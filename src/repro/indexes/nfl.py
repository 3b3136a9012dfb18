"""A compact NFL: normalizing-flow key transformation + after-flow index.

NFL (Section 3.2 of the paper) attacks hard key distributions in two
stages: a *Numerical Normalizing Flow* first transforms the keys into a
near-uniform distribution, then a simple *After-Flow Learned Index*
(AFLI) is built over the transformed keys, where linear models are now
accurate because the transformed CDF is nearly a straight line.

The flow here is a monotone piecewise-linear CDF equalizer — the
numerical (non-neural) flow the original paper uses in spirit: split
the key range into quantile bins from a training sample and map each
bin linearly onto an equal-width slice of the unit interval.  The AFLI
is a bucketed structure over the transformed space: uniform buckets
hold small sorted runs, found with one multiply and finished with a
short local search.

Like the other Section 3.2 structures this is data-unclustered (pairs
live in bucket payloads), so it joins ALEX/LIPP/DILI in the
compatibility study rather than plugging into SSTables.  That study
looks only at the layout, so the index is bulk-built once over an
immutable key set and takes no inserts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.indexes.unclustered import UnclusteredIndex

#: Quantile bins in the flow (transformation resolution).
_FLOW_BINS = 256
#: Target pairs per AFLI bucket.
_BUCKET_TARGET = 16


class NumericalFlow:
    """A monotone piecewise-linear map from keys to [0, 1).

    Built from key quantiles: bin edges are the sample's q-quantiles,
    so each bin holds the same probability mass and maps onto an
    equal-width slice of the unit interval — the transformed
    distribution of the training keys is near-uniform by construction.
    """

    def __init__(self, sample: Sequence[int], bins: int = _FLOW_BINS) -> None:
        if not sample:
            raise IndexBuildError("flow needs a non-empty key sample")
        if bins < 1:
            raise IndexBuildError(f"flow bins must be >= 1, got {bins}")
        n = len(sample)
        edges: List[int] = []
        for i in range(bins + 1):
            edges.append(sample[min(n - 1, (i * (n - 1)) // bins)])
        # Deduplicate plateau edges while keeping monotonicity.
        unique: List[int] = [edges[0]]
        for edge in edges[1:]:
            if edge > unique[-1]:
                unique.append(edge)
        if len(unique) == 1:
            unique.append(unique[0] + 1)
        self.edges = unique

    def transform(self, key: int) -> float:
        """Map ``key`` monotonically into [0, 1)."""
        edges = self.edges
        nbins = len(edges) - 1
        if key <= edges[0]:
            return 0.0
        if key >= edges[-1]:
            return 1.0 - 1e-12
        idx = bisect_right(edges, key) - 1
        lo, hi = edges[idx], edges[idx + 1]
        fraction = (key - lo) / (hi - lo)
        return (idx + fraction) / nbins

    def uniformity(self, keys: Sequence[int]) -> float:
        """RMS deviation of transformed keys from perfect uniformity.

        Near 0 means the flow succeeded; used by tests and the study.
        """
        n = len(keys)
        if n < 2:
            return 0.0
        acc = 0.0
        for i, key in enumerate(keys):
            acc += (self.transform(key) - i / (n - 1)) ** 2
        return (acc / n) ** 0.5


class _Bucket:
    """One AFLI bucket: a small sorted run of pairs."""

    __slots__ = ("keys", "values")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.values: List[bytes] = []


class NFLIndex(UnclusteredIndex):
    """Normalizing flow + bucketed after-flow index (unclustered)."""

    def __init__(self, bucket_target: int = _BUCKET_TARGET,
                 flow_bins: int = _FLOW_BINS) -> None:
        super().__init__()
        if bucket_target < 1:
            raise IndexBuildError(
                f"bucket_target must be >= 1, got {bucket_target}")
        self.bucket_target = bucket_target
        self.flow_bins = flow_bins
        self._flow: Optional[NumericalFlow] = None
        self._buckets: List[_Bucket] = []
        self._size = 0

    # -- construction ------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        if not pairs:
            raise IndexBuildError("NFL bulk_load needs at least one pair")
        keys = [key for key, _ in pairs]
        self._flow = NumericalFlow(keys, bins=self.flow_bins)
        n_buckets = max(1, len(pairs) // self.bucket_target)
        self._buckets = [_Bucket() for _ in range(n_buckets)]
        # Keys arrive sorted and the flow is monotone, so each bucket
        # receives its keys in order: appending keeps it sorted.
        for key, value in pairs:
            bucket = self._bucket_for(key)
            bucket.keys.append(key)
            bucket.values.append(value)
        self._size = len(pairs)

    def _bucket_for(self, key: int) -> _Bucket:
        assert self._flow is not None
        position = self._flow.transform(key)
        idx = min(len(self._buckets) - 1,
                  int(position * len(self._buckets)))
        return self._buckets[idx]

    # -- operations -----------------------------------------------------------

    def get(self, key: int) -> Optional[bytes]:
        self.counters.operations += 1
        if self._flow is None:
            raise IndexBuildError("NFL used before bulk_load")
        self.counters.node_hops += 1  # bucket dereference
        bucket = self._bucket_for(key)
        idx = bisect_right(bucket.keys, key) - 1
        self.counters.slot_probes += max(1, len(bucket.keys).bit_length())
        if idx >= 0 and bucket.keys[idx] == key:
            return bucket.values[idx]
        return None

    def range_scan(self, start_key: int,
                   count: int) -> List[Tuple[int, bytes]]:
        self.counters.operations += 1
        if self._flow is None:
            raise IndexBuildError("NFL used before bulk_load")
        position = self._flow.transform(start_key)
        idx = min(len(self._buckets) - 1,
                  int(position * len(self._buckets)))
        out: List[Tuple[int, bytes]] = []
        while idx < len(self._buckets) and len(out) < count:
            bucket = self._buckets[idx]
            self.counters.node_hops += 1
            self.counters.scatter_jumps += 1
            for key, value in zip(bucket.keys, bucket.values):
                if key >= start_key and len(out) < count:
                    out.append((key, value))
            idx += 1
        return out

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        flow_bytes = 8 * len(self._flow.edges) if self._flow else 0
        bucket_bytes = sum(16 * len(bucket.keys) + 16
                           for bucket in self._buckets)
        return flow_bytes + bucket_bytes

    def __len__(self) -> int:
        return self._size

    def flow_uniformity(self, keys: Sequence[int]) -> float:
        """Post-transform uniformity of ``keys`` (0 = perfectly uniform)."""
        if self._flow is None:
            raise IndexBuildError("NFL used before bulk_load")
        return self._flow.uniformity(keys)

    def max_bucket_size(self) -> int:
        """Largest bucket occupancy (flow quality indicator)."""
        return max((len(bucket.keys) for bucket in self._buckets), default=0)
