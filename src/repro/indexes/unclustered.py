"""Shared interface for data-unclustered learned indexes (ALEX, LIPP).

Section 3 of the paper splits learned indexes into *data-clustered*
(key-value pairs stored contiguously — pluggable into SSTables) and
*data-unclustered* (pairs scattered across model-addressed nodes).
The paper argues the latter cannot replace fence pointers without
redesigning the LSM storage layout, and supports the claim
qualitatively: pointer-chasing lookups and scattered range scans.

To reproduce that argument quantitatively, ALEX and LIPP implement
this interface, which counts the two costs the clustered layout never
pays: *node hops* (pointer dereferences = cache/disk jumps) and
*scatter jumps* during range scans (a contiguous segment scan performs
zero).  The unclustered-study experiment turns these counters into the
paper's Section 3.3 comparison table.  Like every index here, these are
bulk-built once per immutable key set and take no inserts: the study
compares layouts, not update paths.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class AccessCounters:
    """Traversal statistics accumulated across operations."""

    node_hops: int = 0
    slot_probes: int = 0
    scatter_jumps: int = 0
    operations: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.node_hops = 0
        self.slot_probes = 0
        self.scatter_jumps = 0
        self.operations = 0

    def hops_per_op(self) -> float:
        """Mean pointer dereferences per operation."""
        return self.node_hops / self.operations if self.operations else 0.0


class UnclusteredIndex(ABC):
    """An in-memory learned index over (int key -> bytes value).

    Built once by :meth:`bulk_load` over an immutable key set, the way
    the paper builds every index per immutable SSTable; it takes no
    inserts.
    """

    def __init__(self) -> None:
        self.counters = AccessCounters()

    @abstractmethod
    def bulk_load(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        """Build from sorted, unique (key, value) pairs."""

    @abstractmethod
    def get(self, key: int) -> Optional[bytes]:
        """Point lookup."""

    @abstractmethod
    def range_scan(self, start_key: int,
                   count: int) -> List[Tuple[int, bytes]]:
        """Up to ``count`` pairs with key >= ``start_key``, in order."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate structure footprint (slots, models, pointers)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""
