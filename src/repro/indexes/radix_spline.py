"""RadixSpline: spline knots indexed by a radix table (Figure 2 D).

A single pass of GreedySplineCorridor selects a subset of the keys as
spline knots; linear interpolation between consecutive knots predicts
any member key's position within ``±epsilon``.  A radix table over the
top ``radix_bits`` bits of the (min-shifted) key narrows the knot
binary search to one prefix bucket.

The paper tunes ``RadixBits = 1`` for LSM-trees — with per-SSTable
indexes the key count per table is small enough that a large radix
table is pure memory overhead — so 1 is the default here.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

from repro.errors import IndexBuildError
from repro.indexes import codec
from repro.indexes.base import ClusteredIndex, SearchBound
from repro.indexes.segmentation import greedy_spline_points
from repro.storage.cost_model import CostModel

RADIX_SPLINE_TAG = 5

#: The radix-table widths the index accepts, in bits.
MIN_RADIX_BITS = 1
MAX_RADIX_BITS = 24


def interpolate(x0: int, y0: int, x1: int, y1: int, key: int) -> float:
    """Linear interpolation between two spline knots."""
    if x1 == x0:
        return float(y0)
    t = float(key - x0) / float(x1 - x0)
    return y0 + t * (y1 - y0)


class RadixSplineIndex(ClusteredIndex):
    """GreedySpline knots + radix table over key prefixes."""

    kind = "RS"

    def __init__(self, epsilon: int, radix_bits: int = 1) -> None:
        super().__init__()
        if epsilon < 1:
            raise IndexBuildError(f"RS epsilon must be >= 1, got {epsilon}")
        if not MIN_RADIX_BITS <= radix_bits <= MAX_RADIX_BITS:
            raise IndexBuildError(
                f"RS radix_bits must be in [{MIN_RADIX_BITS}, "
                f"{MAX_RADIX_BITS}], got {radix_bits}")
        self.epsilon = epsilon
        self.radix_bits = radix_bits
        self._spline_keys: List[int] = []
        self._spline_pos: List[int] = []
        self._table: List[int] = []
        self._key_min = 0
        self._shift = 0

    # -- construction ------------------------------------------------------

    def _fit(self, keys: Sequence[int]) -> None:
        points, visits = greedy_spline_points(keys, self.epsilon)
        self._record_visits(visits)
        self._spline_keys = [key for key, _ in points]
        self._spline_pos = [pos for _, pos in points]
        self._key_min = keys[0]
        span = keys[-1] - keys[0]
        self._shift = max(0, span.bit_length() - self.radix_bits)
        self._table = self._build_table()

    def _build_table(self) -> List[int]:
        buckets = 1 << self.radix_bits
        table = [0] * (buckets + 1)
        spline_idx = 0
        count = len(self._spline_keys)
        for prefix in range(buckets + 1):
            while (spline_idx < count
                   and self._prefix(self._spline_keys[spline_idx]) < prefix):
                spline_idx += 1
            table[prefix] = spline_idx
        table[buckets] = count
        return table

    def _prefix(self, key: int) -> int:
        shifted = (key - self._key_min) >> self._shift
        limit = (1 << self.radix_bits) - 1
        if shifted < 0:
            return 0
        return min(shifted, limit)

    # -- lookup ------------------------------------------------------------

    def _predict(self, key: int) -> SearchBound:
        count = len(self._spline_keys)
        if count == 1:
            return SearchBound(0, 1)
        if key <= self._spline_keys[0]:
            insertion = 1
        else:
            prefix = self._prefix(key)
            lo = self._table[prefix]
            hi = self._table[prefix + 1]
            insertion = bisect_right(self._spline_keys, key, lo, hi)
            if insertion == 0:
                insertion = 1
            elif insertion >= count:
                insertion = count - 1
        left = insertion - 1
        predicted = interpolate(
            self._spline_keys[left], self._spline_pos[left],
            self._spline_keys[insertion], self._spline_pos[insertion], key)
        center = int(predicted)
        return SearchBound(center - self.epsilon, center + self.epsilon + 2)

    # -- introspection -----------------------------------------------------

    def configured_boundary(self) -> int:
        return 2 * self.epsilon

    def spline_point_count(self) -> int:
        """Number of spline knots."""
        return len(self._spline_keys)

    def expected_lookup_cost_us(self, cost: CostModel) -> float:
        buckets = 1 << self.radix_bits
        avg_bucket = max(2, len(self._spline_keys) // buckets)
        return (cost.index_compare_us
                + cost.binary_search_us(avg_bucket)
                + cost.model_eval_us)

    # -- serialisation -------------------------------------------------------

    def describe(self) -> dict:
        """Base summary plus spline and radix-table sizes."""
        info = super().describe()
        info["spline_points"] = len(self._spline_keys)
        info["radix_bits"] = self.radix_bits
        info["table_slots"] = len(self._table)
        return info

    def serialize(self) -> bytes:
        writer = codec.Writer()
        writer.put_u8(RADIX_SPLINE_TAG)
        writer.put_u32(self.epsilon)
        writer.put_u8(self.radix_bits)
        writer.put_u64(self._key_min)
        writer.put_u8(self._shift)
        writer.put_u64(self._n)
        writer.put_u32_array(self._table)
        writer.put_u64_array(self._spline_keys)
        writer.put_u32_array(self._spline_pos)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, reader: codec.Reader) -> "RadixSplineIndex":
        """Rebuild from a :class:`codec.Reader` positioned after the tag."""
        epsilon = reader.get_u32()
        radix_bits = reader.get_u8()
        index = cls(epsilon, radix_bits)
        index._key_min = reader.get_u64()
        index._shift = reader.get_u8()
        index._n = reader.get_u64()
        index._table = reader.get_u32_array()
        index._spline_keys = reader.get_u64_array()
        index._spline_pos = reader.get_u32_array()
        index._built = True
        return index
