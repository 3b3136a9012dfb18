"""The PGM-index: recursive optimal piecewise-linear models (Figure 2 C).

PGM differs from the greedy family in two ways the paper leans on:

* its segmentation is *optimal* — the streaming convex-hull algorithm
  (:func:`repro.indexes.segmentation.optimal_pla_segments`) produces
  the minimum number of epsilon-bounded segments, so PGM needs fewer
  segments (less memory) than PLR/FITing-Tree at the same boundary;
* instead of binary-searching the segment array, it recursively builds
  PLA models *over the segment first-keys* with an internal error
  bound ``epsilon_recursive``, walking down a constant number of
  levels with tiny windowed searches.

The paper keeps ``EpsilonRecursive = 4`` (it "has little impact" in
LSM systems); that is the default here too.

Here the leaf a key falls in is found with one bisect over the leaf
first keys: the descent's windowed searches end at exactly that floor,
and in Python one C-level bisect beats a walk of interpreted levels.
The recursive levels remain — they are built, charged
(:meth:`PGMIndex.expected_lookup_cost_us`), counted in memory and
serialized as in the paper; the test suite keeps the descent as the
reference the bisect is checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

from repro.errors import IndexBuildError
from repro.indexes import codec
from repro.indexes.base import ClusteredIndex, SearchBound, Segment, segments_to_bound
from repro.indexes.plr import deserialize_segments, serialize_segments
from repro.indexes.segmentation import optimal_pla_segments
from repro.storage.cost_model import CostModel

PGM_TAG = 4

#: The paper's default internal error bound.
DEFAULT_EPSILON_RECURSIVE = 4
#: The smallest internal error bound the index accepts.
MIN_EPSILON_RECURSIVE = 1


class PGMIndex(ClusteredIndex):
    """Recursive optimal PLA over a sorted key array."""

    kind = "PGM"

    def __init__(self, epsilon: int,
                 epsilon_recursive: int = DEFAULT_EPSILON_RECURSIVE) -> None:
        super().__init__()
        if epsilon < 1:
            raise IndexBuildError(f"PGM epsilon must be >= 1, got {epsilon}")
        if epsilon_recursive < MIN_EPSILON_RECURSIVE:
            raise IndexBuildError(
                f"PGM epsilon_recursive must be >= {MIN_EPSILON_RECURSIVE}, "
                f"got {epsilon_recursive}")
        self.epsilon = epsilon
        self.epsilon_recursive = epsilon_recursive
        #: levels[0] are the leaf segments over the data; levels[-1] has
        #: exactly one segment (the root).
        self._levels: List[List[Segment]] = []
        #: First key of each leaf segment: what a lookup bisects.
        self._leaf_firsts: List[int] = []

    # -- construction ------------------------------------------------------

    def _fit(self, keys: Sequence[int]) -> None:
        leaves, visits = optimal_pla_segments(keys, self.epsilon)
        self._record_visits(visits)
        levels = [leaves]
        while len(levels[-1]) > 1:
            seg_keys = [segment.first_key for segment in levels[-1]]
            upper, upper_visits = optimal_pla_segments(
                seg_keys, self.epsilon_recursive)
            self._record_visits(upper_visits)
            if len(upper) >= len(seg_keys):
                # No compression possible (pathological keys): stop,
                # leaving the top level unrooted.
                break
            levels.append(upper)
        self._levels = levels
        self._leaf_firsts = [segment.first_key for segment in leaves]

    # -- lookup ------------------------------------------------------------

    def _predict(self, key: int) -> SearchBound:
        leaf_no = max(0, bisect_right(self._leaf_firsts, key) - 1)
        return segments_to_bound(self._levels[0][leaf_no], key, self.epsilon)

    # -- introspection -----------------------------------------------------

    def configured_boundary(self) -> int:
        return 2 * self.epsilon

    def segment_count(self) -> int:
        """Leaf segment count (the dominant memory term)."""
        return len(self._levels[0]) if self._levels else 0

    def level_count(self) -> int:
        """Number of PLA levels including the leaves."""
        return len(self._levels)

    def expected_lookup_cost_us(self, cost: CostModel) -> float:
        window = 2 * self.epsilon_recursive + 2
        per_level = cost.model_eval_us + cost.binary_search_us(window)
        return max(1, len(self._levels)) * per_level

    # -- serialisation -------------------------------------------------------

    def describe(self) -> dict:
        """Base summary plus per-level segment counts."""
        info = super().describe()
        info["levels"] = [len(level) for level in self._levels]
        info["epsilon_recursive"] = self.epsilon_recursive
        return info

    def serialize(self) -> bytes:
        writer = codec.Writer()
        writer.put_u8(PGM_TAG)
        writer.put_u32(self.epsilon)
        writer.put_u32(self.epsilon_recursive)
        writer.put_u64(self._n)
        writer.put_u8(len(self._levels))
        for level in self._levels:
            serialize_segments(writer, level)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, reader: codec.Reader) -> "PGMIndex":
        """Rebuild from a :class:`codec.Reader` positioned after the tag."""
        epsilon = reader.get_u32()
        epsilon_recursive = reader.get_u32()
        n = reader.get_u64()
        level_count = reader.get_u8()
        index = cls(epsilon, epsilon_recursive)
        levels: List[List[Segment]] = []
        size = n
        for depth in range(level_count):
            level = deserialize_segments(reader, size)
            levels.append(level)
            size = len(level)
        index._levels = levels
        index._leaf_firsts = [segment.first_key
                              for segment in (levels[0] if levels else ())]
        index._n = n
        index._built = True
        return index
