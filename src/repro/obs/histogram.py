"""HDR-style log-bucketed latency histograms with lossless merge.

The paper reports *means* per stage; tail behaviour (where learned
indexes and B-trees actually diverge — *Benchmarking Learned Indexes*,
arXiv:2006.12804) needs full distributions.  A :class:`Histogram`
records simulated-microsecond samples into logarithmic buckets with a
fixed number of linear sub-buckets per octave (HdrHistogram's layout),
so:

* relative value error is bounded by ``1 / 2**SUB_BUCKET_BITS`` (~3%);
* memory stays tiny — buckets are a sparse dict, one int per occupied
  bucket, regardless of sample count;
* **merging is exact**: bucket boundaries are a pure function of the
  bucket index, identical for every instance, so folding one
  histogram's counts into another yields byte-for-byte the bucket
  occupancy a single histogram fed all samples would have.  This is
  what lets :class:`~repro.service.sharded.ShardedDB` aggregate
  per-shard histograms losslessly (property-tested in
  ``tests/test_obs.py``).

Samples are quantised to integer nanoseconds before bucketing: values
below ``2**SUB_BUCKET_BITS`` ns are recorded exactly, everything above
with the bounded relative error.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Linear sub-buckets per octave: 2**5 = 32 -> <= ~3.1% relative error.
SUB_BUCKET_BITS = 5
SUB_BUCKET_COUNT = 1 << SUB_BUCKET_BITS

#: The percentile set every report shows (issue: p50/p90/p99/p999).
REPORT_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
)


def bucket_index(ns: int) -> int:
    """Bucket index for a non-negative integer nanosecond value."""
    if ns < SUB_BUCKET_COUNT:
        return ns
    shift = ns.bit_length() - 1 - SUB_BUCKET_BITS
    return (shift << SUB_BUCKET_BITS) + (ns >> shift)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive-exclusive nanosecond range ``[lo, hi)`` of one bucket."""
    if index < SUB_BUCKET_COUNT:
        return index, index + 1
    shift = (index >> SUB_BUCKET_BITS) - 1
    base = (index - (shift << SUB_BUCKET_BITS)) << shift
    return base, base + (1 << shift)


class Histogram:
    """Log-bucketed distribution of non-negative microsecond samples."""

    __slots__ = ("counts", "count", "sum_us", "min_us", "max_us")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum_us = 0.0
        self.min_us = float("inf")
        self.max_us = 0.0

    # -- recording -----------------------------------------------------

    def record(self, us: float) -> None:
        """Record one sample of ``us`` simulated microseconds."""
        if us < 0:
            raise ValueError(f"negative latency sample: {us}")
        index = bucket_index(int(round(us * 1000.0)))
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum_us += us
        if us < self.min_us:
            self.min_us = us
        if us > self.max_us:
            self.max_us = us

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact on bucket counts).

        Bucket occupancy, total count, min and max after a merge are
        identical to a single histogram fed both sample streams, so
        every percentile is too; only ``sum_us`` (a float sum) can
        differ in the last bits by addition order.
        """
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.sum_us += other.sum_us
        if other.min_us < self.min_us:
            self.min_us = other.min_us
        if other.max_us > self.max_us:
            self.max_us = other.max_us

    def copy(self) -> "Histogram":
        """An independent copy (for window baselines)."""
        dup = Histogram()
        dup.counts = dict(self.counts)
        dup.count = self.count
        dup.sum_us = self.sum_us
        dup.min_us = self.min_us
        dup.max_us = self.max_us
        return dup

    def since(self, baseline: "Histogram") -> "Histogram":
        """The samples recorded after ``baseline`` was captured.

        ``baseline`` must be an earlier :meth:`copy` of this histogram;
        the delta's min/max are bucket-bound approximations (the exact
        extremes of just the window are not recoverable).
        """
        delta = Histogram()
        for index, n in self.counts.items():
            change = n - baseline.counts.get(index, 0)
            if change:
                delta.counts[index] = change
        delta.count = self.count - baseline.count
        delta.sum_us = self.sum_us - baseline.sum_us
        if delta.counts:
            delta.min_us = bucket_bounds(min(delta.counts))[0] / 1000.0
            delta.max_us = bucket_bounds(max(delta.counts))[1] / 1000.0
        return delta

    # -- reading -------------------------------------------------------

    @property
    def mean_us(self) -> float:
        """Mean sample value (0.0 when empty)."""
        return self.sum_us / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) in microseconds.

        Returns the midpoint of the bucket holding the target rank,
        clamped into the exact observed ``[min, max]`` range; 0.0 when
        the histogram is empty.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"percentile out of range: {q}")
        if not self.count:
            return 0.0
        if q == 1.0:
            return self.max_us  # tracked exactly; skip the bucket walk
        target = max(1, int(round(q * self.count)))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= target:
                lo, hi = bucket_bounds(index)
                mid_us = (lo + hi) / 2000.0
                return min(max(mid_us, self.min_us), self.max_us)
        return self.max_us  # pragma: no cover - ranks always land above

    def percentiles(self) -> Dict[str, float]:
        """The standard report set plus count/mean/max."""
        out = {name: self.percentile(q) for name, q in REPORT_PERCENTILES}
        out["count"] = float(self.count)
        out["mean"] = self.mean_us
        out["max"] = self.max_us if self.count else 0.0
        return out

    def state(self) -> Tuple[Tuple[Tuple[int, int], ...], int, float, float]:
        """Canonical comparable state: (buckets, count, min, max).

        Two histograms with equal state produce identical percentiles;
        ``sum_us`` is deliberately excluded (float addition order).
        """
        buckets = tuple(sorted((i, n) for i, n in self.counts.items() if n))
        return (buckets, self.count,
                self.min_us if self.count else 0.0,
                self.max_us if self.count else 0.0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump: percentiles plus raw bucket occupancy."""
        out: Dict[str, object] = dict(self.percentiles())
        out["min"] = self.min_us if self.count else 0.0
        out["buckets"] = {str(i): n for i, n in sorted(self.counts.items())}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, mean={self.mean_us:.2f}us, "
                f"p99={self.percentile(0.99):.2f}us)")


def percentile_keys() -> List[str]:
    """Report column order for percentile tables."""
    return [name for name, _ in REPORT_PERCENTILES]
