"""Index registry: names, factories and deserialisation dispatch.

The benchmark sweeps are expressed over (index type, position boundary,
granularity) triples.  This module converts an index-type name plus a
position boundary into concrete per-table index instances, applying the
paper's parameter mapping:

* FP — the boundary is the data-block entry count;
* PLR / FITing-Tree / PGM / RadixSpline / PLEX — epsilon = boundary/2;
* RMI — the boundary is a *target*: the factory owns a shared
  :class:`~repro.indexes.rmi.RmiTuningCache` so the second-layer size
  search warm-starts across the many tables a database builds.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Sequence

from repro.errors import IndexBuildError
from repro.indexes import codec
from repro.indexes.base import ClusteredIndex
from repro.indexes.fence import FENCE_TAG, FencePointerIndex
from repro.indexes.fiting_tree import FITING_TAG, FITingTreeIndex
from repro.indexes.pgm import DEFAULT_EPSILON_RECURSIVE, PGM_TAG, PGMIndex
from repro.indexes.plex import PLEX_TAG, PLEXIndex
from repro.indexes.plr import PLR_TAG, PLRIndex
from repro.indexes.radix_spline import RADIX_SPLINE_TAG, RadixSplineIndex
from repro.indexes.rmi import RMI_TAG, RMIIndex, RmiTuningCache


class IndexKind(str, enum.Enum):
    """The seven index types of the paper's evaluation (Figure 6)."""

    FP = "FP"
    FT = "FT"
    PLR = "PLR"
    PLEX = "PLEX"
    RS = "RS"
    RMI = "RMI"
    PGM = "PGM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Every kind evaluated by the paper, in its plotting order.
ALL_KINDS = (IndexKind.FP, IndexKind.FT, IndexKind.PLR, IndexKind.PLEX,
             IndexKind.RS, IndexKind.RMI, IndexKind.PGM)

#: The learned kinds (everything but the fence-pointer baseline).
LEARNED_KINDS = tuple(kind for kind in ALL_KINDS if kind is not IndexKind.FP)


class IndexFactory:
    """Builds per-table indexes for one (kind, boundary) configuration.

    A factory is shared by every table of a database so cross-build
    state (RMI's tuning cache) persists across flushes and compactions.
    """

    def __init__(self, kind: IndexKind | str, boundary: int, *,
                 epsilon_recursive: int = DEFAULT_EPSILON_RECURSIVE,
                 radix_bits: int = 1) -> None:
        self.kind = IndexKind(kind)
        if boundary < 2:
            raise IndexBuildError(
                f"position boundary must be >= 2, got {boundary}")
        self.boundary = boundary
        self.epsilon = max(1, boundary // 2)
        self.epsilon_recursive = epsilon_recursive
        self.radix_bits = radix_bits
        self._rmi_cache = RmiTuningCache()

    def create(self) -> ClusteredIndex:
        """A fresh, unbuilt index instance for one table."""
        kind = self.kind
        if kind is IndexKind.FP:
            return FencePointerIndex(self.boundary)
        if kind is IndexKind.PLR:
            return PLRIndex(self.epsilon)
        if kind is IndexKind.FT:
            return FITingTreeIndex(self.epsilon)
        if kind is IndexKind.PGM:
            return PGMIndex(self.epsilon,
                            epsilon_recursive=self.epsilon_recursive)
        if kind is IndexKind.RS:
            return RadixSplineIndex(self.epsilon, radix_bits=self.radix_bits)
        if kind is IndexKind.PLEX:
            return PLEXIndex(self.epsilon)
        if kind is IndexKind.RMI:
            return RMIIndex(self.boundary, cache=self._rmi_cache)
        raise IndexBuildError(f"unknown index kind: {kind}")  # pragma: no cover

    def build(self, keys: Sequence[int]) -> ClusteredIndex:
        """Create and train an index over ``keys``."""
        index = self.create()
        index.build(keys)
        return index

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return f"{self.kind.value}(boundary={self.boundary})"


_DESERIALIZERS: Dict[int, Callable[[codec.Reader], ClusteredIndex]] = {
    FENCE_TAG: FencePointerIndex.deserialize,
    PLR_TAG: PLRIndex.deserialize,
    FITING_TAG: FITingTreeIndex.deserialize,
    PGM_TAG: PGMIndex.deserialize,
    RADIX_SPLINE_TAG: RadixSplineIndex.deserialize,
    PLEX_TAG: PLEXIndex.deserialize,
    RMI_TAG: RMIIndex.deserialize,
}


def deserialize_index(data: bytes) -> ClusteredIndex:
    """Reconstruct any serialised index from its tagged byte string."""
    reader = codec.Reader(data)
    tag = reader.get_u8()
    loader = _DESERIALIZERS.get(tag)
    if loader is None:
        raise IndexBuildError(f"unknown index type tag: {tag}")
    return loader(reader)
