"""A compact ALEX: model-routed inner nodes over gapped-array data nodes.

ALEX (Figure 3 A of the paper) is the canonical updatable learned
index: inner nodes use a linear model to route to children; data nodes
store key-value pairs in *gapped arrays* — sorted arrays interleaved
with empty slots so inserts shift only to the nearest gap — and locate
keys by model prediction plus exponential search.

The paper studies ALEX only for its layout, so this implementation is
bulk-built once over an immutable key set and takes no inserts: it
keeps the gapped arrays, per-node linear models, exponential search and
the leaf chain for scans, and routing corrections use the sorted
first-key array.  What the Section 3.3 study measures — pointer hops
per lookup, scatter during scans, slot overhead — is preserved.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.indexes.linear import LinearModel, fit_endpoints
from repro.indexes.unclustered import UnclusteredIndex

#: Pairs per data node at bulk load.
_LEAF_KEYS = 64
_TARGET_DENSITY = 0.7
_INNER_FANOUT = 64


def _fit_slots(keys: Sequence[int], capacity: int) -> LinearModel:
    """Model mapping a key to a slot in a gapped array of ``capacity``."""
    if len(keys) < 2 or keys[-1] == keys[0]:
        return LinearModel(0.0, capacity / 2.0)
    return fit_endpoints(float(keys[0]), 0.0, float(keys[-1]),
                         float(capacity - 1))


class _DataNode:
    """A gapped array of key-value pairs with a slot-prediction model."""

    __slots__ = ("slots", "model", "next")

    def __init__(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        self.next: Optional["_DataNode"] = None
        capacity = max(8, int(len(pairs) / _TARGET_DENSITY))
        self.slots: List[Optional[Tuple[int, bytes]]] = [None] * capacity
        self.model = _fit_slots([key for key, _ in pairs], capacity)
        # Model-based placement: predict each key's slot, then enforce
        # strictly increasing slots (keys arrive sorted) with enough
        # room left for every remaining key — slot order always equals
        # key order, which scans rely on.
        n = len(pairs)
        desired = [max(0, min(int(self.model.predict(float(key))),
                              capacity - 1)) for key, _ in pairs]
        previous = -1
        for i in range(n):
            desired[i] = max(desired[i], previous + 1)
            previous = desired[i]
        for i in range(n - 1, -1, -1):
            limit = capacity - (n - i)
            if desired[i] > limit:
                desired[i] = limit
        previous = -1
        for i in range(n):
            desired[i] = max(desired[i], previous + 1)
            previous = desired[i]
        for (key, value), slot in zip(pairs, desired):
            self.slots[slot] = (key, value)

    # -- helpers ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self.slots)

    def min_key(self) -> int:
        for entry in self.slots:
            if entry is not None:
                return entry[0]
        raise IndexBuildError("empty ALEX data node")

    def pairs(self) -> List[Tuple[int, bytes]]:
        return [entry for entry in self.slots if entry is not None]

    def find(self, key: int, counters) -> Optional[bytes]:
        """Exponential search around the predicted slot."""
        slot = int(self.model.predict(float(key)))
        slot = max(0, min(slot, self.capacity - 1))
        probes = 0
        # Walk outward until we bracket the key among occupied slots.
        for offset in self._exponential_offsets():
            for candidate in (slot + offset, slot - offset):
                if 0 <= candidate < self.capacity:
                    probes += 1
                    entry = self.slots[candidate]
                    if entry is not None and entry[0] == key:
                        counters.slot_probes += probes
                        return entry[1]
            if offset > self.capacity:
                break
        counters.slot_probes += probes
        return None

    def _exponential_offsets(self):
        yield 0
        offset = 1
        while True:
            for step in range(offset, min(offset * 2, self.capacity + 1)):
                yield step
            offset *= 2
            if offset > self.capacity:
                return


class _InnerNode:
    """Model-routed inner node with a sorted first-key array."""

    __slots__ = ("first_keys", "children", "model")

    def __init__(self, first_keys: List[int], children: List[object]) -> None:
        self.first_keys = first_keys
        self.children = children
        n = len(first_keys)
        if n >= 2:
            self.model = fit_endpoints(float(first_keys[0]), 0.0,
                                       float(first_keys[-1]), float(n - 1))
        else:
            self.model = LinearModel(0.0, 0.0)

    def route(self, key: int, counters) -> int:
        """Predicted child index corrected by local search."""
        n = len(self.first_keys)
        idx = int(self.model.predict(float(key)))
        idx = max(0, min(idx, n - 1))
        counters.slot_probes += 1
        while idx + 1 < n and self.first_keys[idx + 1] <= key:
            idx += 1
            counters.slot_probes += 1
        while idx > 0 and self.first_keys[idx] > key:
            idx -= 1
            counters.slot_probes += 1
        return idx


class ALEXIndex(UnclusteredIndex):
    """The data-unclustered ALEX index, bulk-built once."""

    def __init__(self) -> None:
        super().__init__()
        self._root: Optional[object] = None
        self._size = 0

    # -- construction ------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        if not pairs:
            raise IndexBuildError("ALEX bulk_load needs at least one pair")
        leaves: List[_DataNode] = []
        for start in range(0, len(pairs), _LEAF_KEYS):
            leaves.append(_DataNode(pairs[start:start + _LEAF_KEYS]))
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        self._size = len(pairs)
        self._root = self._build_inner(leaves)

    def _build_inner(self, nodes: List[object]):
        while len(nodes) > 1:
            parents: List[object] = []
            for start in range(0, len(nodes), _INNER_FANOUT):
                group = nodes[start:start + _INNER_FANOUT]
                parents.append(_InnerNode(
                    [self._first_key(child) for child in group],
                    list(group)))
            nodes = parents
        return nodes[0]

    @staticmethod
    def _first_key(node) -> int:
        while isinstance(node, _InnerNode):
            node = node.children[0]
        return node.min_key()

    # -- operations -----------------------------------------------------------

    def _descend(self, key: int) -> _DataNode:
        node = self._root
        while isinstance(node, _InnerNode):
            self.counters.node_hops += 1
            node = node.children[node.route(key, self.counters)]
        self.counters.node_hops += 1
        return node

    def get(self, key: int) -> Optional[bytes]:
        self.counters.operations += 1
        return self._descend(key).find(key, self.counters)

    def range_scan(self, start_key: int,
                   count: int) -> List[Tuple[int, bytes]]:
        self.counters.operations += 1
        leaf = self._descend(start_key)
        out: List[Tuple[int, bytes]] = []
        while leaf is not None and len(out) < count:
            for key, value in leaf.pairs():
                if key >= start_key and len(out) < count:
                    out.append((key, value))
                    self.counters.slot_probes += 1
            # Every leaf boundary is a pointer jump to a non-contiguous
            # node — the scatter cost clustered layouts avoid.
            leaf = leaf.next
            self.counters.scatter_jumps += 1
            self.counters.node_hops += 1
        return out

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _InnerNode):
                total += len(node.first_keys) * 8 + len(node.children) * 8 + 16
                stack.extend(node.children)
            elif isinstance(node, _DataNode):
                total += node.capacity * 17 + 16  # slot ptr/key + model
        return total

    def __len__(self) -> int:
        return self._size
