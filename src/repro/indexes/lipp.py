"""A compact LIPP: precise-position nodes with conflict child nodes.

LIPP (Figure 3 B of the paper) removes the "last mile" search
entirely: each node's linear model maps a key to *exactly one slot*.
A slot is NULL (empty), DATA (holds one key-value pair) or NODE
(points to a child built from the keys that collided there).  Lookups
never search — they follow at most ``depth`` pointers.

The original uses the FMCD algorithm to pick node models minimising
conflicts; this implementation fits the model over the node's key
range with a configurable slot-per-key expansion, which is FMCD's
behaviour for near-uniform key subsets and preserves everything the
Section 3.3 study measures: pointer-chased lookups, scattered storage,
and memory paid for empty slots.  The study looks only at that layout,
so the index is bulk-built once over an immutable key set and takes no
inserts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.indexes.unclustered import UnclusteredIndex

#: Slots allocated per key when building a node (the gap factor).
_EXPANSION = 2.0
_MIN_SLOTS = 8
_MAX_DEPTH = 32

# Slot kinds.
_NULL = 0
_DATA = 1
_NODE = 2


class _LippNode:
    """One LIPP node: a linear slot mapping plus a slot array.

    The slot mapping is evaluated in exact integer arithmetic (floats
    would collapse adjacent 64-bit keys onto one slot forever); any two
    distinct keys therefore separate after at most one conflict level,
    and multi-key conflicts shrink their key span geometrically.
    """

    __slots__ = ("key_min", "key_span", "kinds", "payload", "size")

    def __init__(self, pairs: Sequence[Tuple[int, bytes]],
                 depth: int = 1) -> None:
        if depth > _MAX_DEPTH:
            raise IndexBuildError("LIPP node depth exceeded the safety cap")
        n_slots = max(_MIN_SLOTS, int(len(pairs) * _EXPANSION))
        keys = [key for key, _ in pairs]
        self.key_min = keys[0]
        self.key_span = max(1, keys[-1] - keys[0])
        self.kinds = bytearray(n_slots)
        self.payload: List[Optional[object]] = [None] * n_slots
        self.size = len(pairs)
        # Group colliding keys per slot, then place.
        buckets: dict = {}
        for key, value in pairs:
            buckets.setdefault(self._slot(key), []).append((key, value))
        for slot, bucket in buckets.items():
            if len(bucket) == 1:
                self.kinds[slot] = _DATA
                self.payload[slot] = bucket[0]
            else:
                self.kinds[slot] = _NODE
                self.payload[slot] = _LippNode(bucket, depth + 1)

    def _slot(self, key: int) -> int:
        if key <= self.key_min:
            return 0
        offset = key - self.key_min
        if offset >= self.key_span:
            return len(self.kinds) - 1
        return (offset * (len(self.kinds) - 1)) // self.key_span

    # -- operations -----------------------------------------------------

    def get(self, key: int, counters) -> Optional[bytes]:
        slot = self._slot(key)
        counters.slot_probes += 1
        kind = self.kinds[slot]
        if kind == _NULL:
            return None
        if kind == _DATA:
            found_key, value = self.payload[slot]
            return value if found_key == key else None
        counters.node_hops += 1
        return self.payload[slot].get(key, counters)

    def iter_from(self, start_key: int, counters):
        """Yield pairs with key >= start_key in order (DFS over slots)."""
        for slot in range(self._slot(start_key), len(self.kinds)):
            kind = self.kinds[slot]
            if kind == _NULL:
                continue
            if kind == _DATA:
                key, value = self.payload[slot]
                if key >= start_key:
                    yield key, value
            else:
                counters.node_hops += 1
                counters.scatter_jumps += 1
                yield from self.payload[slot].iter_from(start_key, counters)

    def memory_bytes(self) -> int:
        total = 16 + len(self.kinds) * 9  # model + kind byte + payload ptr
        for kind, payload in zip(self.kinds, self.payload):
            if kind == _DATA:
                total += 16
            elif kind == _NODE:
                total += payload.memory_bytes()
        return total

    def max_depth(self) -> int:
        deepest = 1
        for kind, payload in zip(self.kinds, self.payload):
            if kind == _NODE:
                deepest = max(deepest, 1 + payload.max_depth())
        return deepest


class LIPPIndex(UnclusteredIndex):
    """The precise-position LIPP index, bulk-built once."""

    def __init__(self) -> None:
        super().__init__()
        self._root: Optional[_LippNode] = None

    def bulk_load(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        if not pairs:
            raise IndexBuildError("LIPP bulk_load needs at least one pair")
        self._root = _LippNode(list(pairs))

    def _require_root(self) -> _LippNode:
        if self._root is None:
            raise IndexBuildError("LIPP used before bulk_load")
        return self._root

    def get(self, key: int) -> Optional[bytes]:
        self.counters.operations += 1
        self.counters.node_hops += 1  # root access
        return self._require_root().get(key, self.counters)

    def range_scan(self, start_key: int,
                   count: int) -> List[Tuple[int, bytes]]:
        self.counters.operations += 1
        self.counters.node_hops += 1
        out: List[Tuple[int, bytes]] = []
        for key, value in self._require_root().iter_from(start_key,
                                                         self.counters):
            out.append((key, value))
            if len(out) >= count:
                break
        return out

    def memory_bytes(self) -> int:
        return self._require_root().memory_bytes() if self._root else 0

    def __len__(self) -> int:
        return self._root.size if self._root else 0

    def depth(self) -> int:
        """Maximum node depth (pointer chain length)."""
        return self._require_root().max_depth()
