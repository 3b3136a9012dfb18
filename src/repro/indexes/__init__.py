"""Learned indexes for LSM-trees: the eight structures the paper revisits.

Data-clustered indexes (pluggable into SSTables):

* :class:`~repro.indexes.fence.FencePointerIndex` — the classic baseline.
* :class:`~repro.indexes.plr.PLRIndex` — Bourbon's greedy piecewise
  linear regression.
* :class:`~repro.indexes.fiting_tree.FITingTreeIndex` — greedy segments
  behind a B+-tree.
* :class:`~repro.indexes.pgm.PGMIndex` — recursive optimal PLA.
* :class:`~repro.indexes.radix_spline.RadixSplineIndex` — spline knots
  behind a radix table.
* :class:`~repro.indexes.plex.PLEXIndex` — spline knots behind a
  self-tuned Compact Hist-Tree.
* :class:`~repro.indexes.rmi.RMIIndex` — two-layer recursive model index.

Data-unclustered indexes (in-memory, for the Section 3.3 compatibility
study): :mod:`repro.indexes.alex`, :mod:`repro.indexes.lipp`,
:mod:`repro.indexes.dili` and :mod:`repro.indexes.nfl`.
"""

from repro.indexes.alex import ALEXIndex
from repro.indexes.base import ClusteredIndex, SearchBound, Segment
from repro.indexes.dili import DILIIndex
from repro.indexes.lipp import LIPPIndex
from repro.indexes.nfl import NFLIndex, NumericalFlow
from repro.indexes.unclustered import AccessCounters, UnclusteredIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.fence import FencePointerIndex
from repro.indexes.fiting_tree import FITingTreeIndex
from repro.indexes.pgm import PGMIndex
from repro.indexes.plex import CompactHistTree, PLEXIndex
from repro.indexes.plr import PLRIndex
from repro.indexes.radix_spline import RadixSplineIndex
from repro.indexes.registry import (
    ALL_KINDS,
    LEARNED_KINDS,
    IndexFactory,
    IndexKind,
    deserialize_index,
)
from repro.indexes.rmi import RMIIndex, RmiTuningCache

__all__ = [
    "ClusteredIndex",
    "SearchBound",
    "Segment",
    "UnclusteredIndex",
    "AccessCounters",
    "ALEXIndex",
    "LIPPIndex",
    "DILIIndex",
    "NFLIndex",
    "NumericalFlow",
    "BPlusTree",
    "FencePointerIndex",
    "PLRIndex",
    "FITingTreeIndex",
    "PGMIndex",
    "RadixSplineIndex",
    "PLEXIndex",
    "CompactHistTree",
    "RMIIndex",
    "RmiTuningCache",
    "IndexFactory",
    "IndexKind",
    "ALL_KINDS",
    "LEARNED_KINDS",
    "deserialize_index",
]
