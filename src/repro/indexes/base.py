"""The unified learned-index interface (the paper's Section 4 contract).

Every LSM-compatible ("data-clustered") index implements
:class:`ClusteredIndex`: it is built once over the sorted key array of
an immutable SSTable segment and afterwards answers
``lookup(key) -> SearchBound`` where the bound is guaranteed to contain
the key's true position if the key is present.  The bound's width is
the paper's **position boundary** — the number of entries the table
must fetch from disk and binary-search.

The interface also exposes the two quantities the benchmark sweeps
charge for:

* ``train_key_visits`` — how many key visits the build performed (one
  visit = touching one key during one training pass).  Single-pass
  algorithms (PLR, PGM, RadixSpline, FITing-Tree) report ~n; RMI's
  error-recording second pass reports ~2n; PLEX's self-tuning reports
  several n.  Figure 9's compaction-overhead breakdown falls straight
  out of these counts.
* ``expected_lookup_cost_us(cost_model)`` — the simulated CPU cost of
  one inner-index access plus model evaluation ("Prediction" in the
  paper's Table 1), derived from the structure (tree heights, segment
  counts), not wall clock.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

from repro.errors import IndexBuildError, IndexLookupError
from repro.storage.cost_model import CostModel


@dataclass(frozen=True)
class SearchBound:
    """A half-open position range ``[lo, hi)`` guaranteed to hold the key."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        """Number of candidate positions in the bound."""
        return self.hi - self.lo

    def contains(self, position: int) -> bool:
        """True when ``position`` falls inside the bound."""
        return self.lo <= position < self.hi

    def clamped(self, n: int) -> "SearchBound":
        """The bound intersected with the valid position range ``[0, n)``."""
        lo = max(0, min(self.lo, n))
        hi = max(lo, min(self.hi, n))
        if lo == self.lo and hi == self.hi:
            return self  # already inside: frozen, so shareable
        return SearchBound(lo, hi)

    def block_aligned(self, entries_per_block: int, n: int) -> "SearchBound":
        """The bound widened outward to whole-block boundaries.

        Learned-index predictions are entry-granular, but block-format
        tables fetch whole blocks of ``entries_per_block`` entries, so
        the effective search range is the predicted one rounded out to
        block edges (and re-clamped to the ``n`` valid positions).
        """
        lo = (self.lo // entries_per_block) * entries_per_block
        hi = -(-self.hi // entries_per_block) * entries_per_block
        return SearchBound(lo, min(hi, n))


class ClusteredIndex(ABC):
    """Base class for all data-clustered learned indexes (and fence pointers).

    Subclasses implement ``_fit`` (training over a strictly-increasing
    key array) and ``_predict`` (raw bound for a key); this base class
    handles validation, clamping, and the bookkeeping shared by every
    index type.
    """

    #: Short name used in reports ("PGM", "PLR", ...). Set by subclasses.
    kind: ClassVar[str] = "?"

    def __init__(self) -> None:
        self._n = 0
        self._built = False
        self._train_key_visits = 0
        self._size_cache: Optional[int] = None

    # -- construction ----------------------------------------------------

    def build(self, keys: Sequence[int]) -> None:
        """Train the index over a strictly-increasing key array."""
        if len(keys) == 0:
            raise IndexBuildError(f"{self.kind}: cannot build over zero keys")
        self._n = len(keys)
        self._train_key_visits = 0
        self._size_cache = None
        self._fit(keys)
        self._built = True

    @abstractmethod
    def _fit(self, keys: Sequence[int]) -> None:
        """Subclass hook: train over ``keys`` (len >= 1, strictly increasing)."""

    def _record_visits(self, count: int) -> None:
        """Account ``count`` training key visits (used for Figure 9)."""
        self._train_key_visits += count

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int) -> SearchBound:
        """Bound on the position of ``key`` within the indexed array."""
        if not self._built:
            raise IndexLookupError(f"{self.kind}: lookup before build")
        return self._predict(key).clamped(self._n)

    @abstractmethod
    def _predict(self, key: int) -> SearchBound:
        """Subclass hook: raw (possibly out-of-range) bound for ``key``."""

    # -- introspection -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of keys the index was built over."""
        return self._n

    @property
    def places_absent_keys(self) -> bool:
        """True when ``lookup(key).lo`` is at most ``key``'s insertion
        point for absent keys too — what a seek relies on.  Every index
        does, except one that lost the state it needs for it."""
        return True

    @property
    def train_key_visits(self) -> int:
        """Key visits performed by the last :meth:`build`."""
        return self._train_key_visits

    def size_bytes(self) -> int:
        """Memory footprint: the length of the compact serialised form."""
        if self._size_cache is None:
            self._size_cache = len(self.serialize())
        return self._size_cache

    @abstractmethod
    def serialize(self) -> bytes:
        """Compact binary encoding (includes the registry type tag)."""

    @abstractmethod
    def expected_lookup_cost_us(self, cost: CostModel) -> float:
        """Simulated CPU microseconds for one inner lookup + prediction."""

    def configured_boundary(self) -> int:
        """The position boundary this index was configured for."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Structural summary for reports and debugging.

        Subclasses extend the base dict with their own fields (segment
        counts, tree heights, leaf counts, ...).
        """
        return {
            "kind": self.kind,
            "n": self._n,
            "size_bytes": self.size_bytes() if self._built else 0,
            "boundary": self.configured_boundary(),
            "train_key_visits": self._train_key_visits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"n={self._n}" if self._built else "unbuilt"
        return f"<{type(self).__name__} {self.kind} {state}>"


def floor_index(sorted_keys: Sequence[int], key: int) -> int:
    """Index of the greatest element <= ``key`` (clamped to 0).

    The shared "which segment holds this key" primitive: segment arrays
    store each segment's first key, so the floor entry is the segment
    the key belongs to.
    """
    idx = bisect.bisect_right(sorted_keys, key) - 1
    return 0 if idx < 0 else idx


@dataclass
class Segment:
    """One linear segment: ``first_key`` plus its model and start position.

    ``start``/``length`` describe the slice of the key array the segment
    covers.  The model is evaluated on the key's *offset from
    first_key* — the offset is an exact integer difference, so
    predictions stay precise even when 64-bit keys meet steep slopes
    (absolute-coordinate evaluation loses whole positions to float
    cancellation there).  ``intercept`` is therefore the predicted
    position *at* ``first_key``.
    """

    first_key: int
    slope: float
    intercept: float
    start: int
    length: int

    def predict(self, key: int) -> float:
        """Global position estimate for ``key``."""
        return self.slope * (key - self.first_key) + self.intercept


def segments_to_bound(segment: Segment, key: int, epsilon: int) -> SearchBound:
    """Turn a segment prediction into the paper's ±epsilon search bound."""
    predicted = int(segment.predict(key))
    lo = max(segment.start, predicted - epsilon)
    hi = min(segment.start + segment.length, predicted + epsilon + 1)
    if hi <= lo:  # prediction drifted outside the segment: clamp to edge
        if predicted < segment.start:
            lo, hi = segment.start, min(segment.start + segment.length,
                                        segment.start + 2 * epsilon + 1)
        else:
            hi = segment.start + segment.length
            lo = max(segment.start, hi - 2 * epsilon - 1)
    return SearchBound(lo, hi)
