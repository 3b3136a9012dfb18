"""A compact DILI: distribution-driven tree with linear-model nodes.

DILI (Section 3.2 of the paper) builds its index in two phases: a
bottom-up pass creates leaf nodes from local key distributions, then a
top-down refinement sizes each internal node's fanout to its local
distribution so that hot, dense regions get wide nodes (shallow paths)
and sparse regions stay narrow.  Every node routes with a linear model;
leaves hold the key-value pairs.

This implementation keeps the two-phase construction and the
distribution-driven fanout at reduced scale:

* phase 1 groups keys into leaves whose span tracks local density
  (dense regions -> more, smaller leaves);
* phase 2 builds internal nodes whose fanout is proportional to the
  number of distinct child regions under them, balancing leaf count
  against height exactly as the paper describes.

Like ALEX and LIPP it is *data-unclustered*: pairs live inside node
payloads, so it joins them in the Section 3.3 compatibility study
rather than plugging into SSTables.  That study looks only at the
layout, so the index is bulk-built once over an immutable key set and
takes no inserts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.indexes.linear import LinearModel, fit_endpoints
from repro.indexes.unclustered import UnclusteredIndex

#: Target keys per leaf before density adjustment.
_BASE_LEAF_KEYS = 64
#: Internal fanout bounds for the top-down refinement.
_MIN_FANOUT = 4
_MAX_FANOUT = 256


class _DiliLeaf:
    """A sorted run of pairs with a local prediction model."""

    __slots__ = ("keys", "values", "model", "next")

    def __init__(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        self.keys: List[int] = [key for key, _ in pairs]
        self.values: List[bytes] = [value for _, value in pairs]
        self.model = self._fit()
        self.next: Optional["_DiliLeaf"] = None

    def _fit(self) -> LinearModel:
        if len(self.keys) >= 2 and self.keys[-1] > self.keys[0]:
            return fit_endpoints(float(self.keys[0]), 0.0,
                                 float(self.keys[-1]),
                                 float(len(self.keys) - 1))
        return LinearModel(0.0, 0.0)

    def min_key(self) -> int:
        return self.keys[0]

    def find(self, key: int, counters) -> Optional[bytes]:
        n = len(self.keys)
        idx = self.model.predict_clamped(float(key), n)
        counters.slot_probes += 1
        while idx > 0 and self.keys[idx] > key:
            idx -= 1
            counters.slot_probes += 1
        while idx + 1 < n and self.keys[idx + 1] <= key:
            idx += 1
            counters.slot_probes += 1
        return self.values[idx] if self.keys[idx] == key else None


class _DiliInner:
    """An internal node with distribution-sized fanout."""

    __slots__ = ("first_keys", "children", "model")

    def __init__(self, first_keys: List[int], children: List[object]) -> None:
        self.first_keys = first_keys
        self.children = children
        n = len(first_keys)
        if n >= 2 and first_keys[-1] > first_keys[0]:
            self.model = fit_endpoints(float(first_keys[0]), 0.0,
                                       float(first_keys[-1]), float(n - 1))
        else:
            self.model = LinearModel(0.0, 0.0)

    def route(self, key: int, counters) -> int:
        n = len(self.first_keys)
        idx = self.model.predict_clamped(float(key), n)
        counters.slot_probes += 1
        while idx + 1 < n and self.first_keys[idx + 1] <= key:
            idx += 1
            counters.slot_probes += 1
        while idx > 0 and self.first_keys[idx] > key:
            idx -= 1
            counters.slot_probes += 1
        return idx


class DILIIndex(UnclusteredIndex):
    """Two-phase, distribution-driven learned index (unclustered)."""

    def __init__(self) -> None:
        super().__init__()
        self._root: Optional[object] = None
        self._size = 0

    # -- construction ------------------------------------------------------

    def bulk_load(self, pairs: Sequence[Tuple[int, bytes]]) -> None:
        if not pairs:
            raise IndexBuildError("DILI bulk_load needs at least one pair")
        self._size = len(pairs)
        leaves = self._phase1_leaves(pairs)
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        self._root = self._phase2_tree(leaves)

    def _phase1_leaves(self,
                       pairs: Sequence[Tuple[int, bytes]]) -> List[_DiliLeaf]:
        """Bottom-up: leaf spans track local density.

        Dense regions (small key gaps) produce smaller leaves so their
        local models stay precise; sparse regions produce larger ones.
        """
        n = len(pairs)
        if n <= _BASE_LEAF_KEYS:
            return [_DiliLeaf(pairs)]
        keys = [key for key, _ in pairs]
        span = max(1, keys[-1] - keys[0])
        leaves: List[_DiliLeaf] = []
        start = 0
        while start < n:
            end = min(n, start + _BASE_LEAF_KEYS)
            # Local density relative to uniform: gap of this window vs
            # the average gap.  Dense window (< avg gap) -> shrink the
            # leaf; sparse -> grow it, bounded either way.
            window_span = keys[min(end, n - 1)] - keys[start]
            expected_span = span * (end - start) / n
            if window_span > 0 and expected_span > 0:
                ratio = window_span / expected_span
                size = int(_BASE_LEAF_KEYS * min(2.0, max(0.5, ratio)))
                end = min(n, start + max(8, size))
            leaves.append(_DiliLeaf(pairs[start:end]))
            start = end
        return leaves

    def _phase2_tree(self, nodes: List[object]) -> object:
        """Top-down refinement: fanout follows the child-count locally."""
        while len(nodes) > 1:
            total = len(nodes)
            # Balance height against node width: fanout ~ sqrt of the
            # remaining children, clamped to the configured range.
            fanout = max(_MIN_FANOUT, min(_MAX_FANOUT, int(total ** 0.5) + 1))
            parents: List[object] = []
            for start in range(0, total, fanout):
                group = nodes[start:start + fanout]
                parents.append(_DiliInner(
                    [self._first_key(child) for child in group],
                    list(group)))
            nodes = parents
        return nodes[0]

    @staticmethod
    def _first_key(node) -> int:
        while isinstance(node, _DiliInner):
            node = node.children[0]
        return node.min_key()

    # -- operations -----------------------------------------------------------

    def _descend(self, key: int) -> _DiliLeaf:
        node = self._root
        if node is None:
            raise IndexBuildError("DILI used before bulk_load")
        while isinstance(node, _DiliInner):
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
        idx = bisect_right(leaf.keys, start_key - 1)
        while leaf is not None and len(out) < count:
            while idx < len(leaf.keys) and len(out) < count:
                out.append((leaf.keys[idx], leaf.values[idx]))
                idx += 1
            leaf = leaf.next
            idx = 0
            self.counters.scatter_jumps += 1
            self.counters.node_hops += 1
        return out

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _DiliInner):
                total += len(node.first_keys) * 16 + 16
                stack.extend(node.children)
            elif isinstance(node, _DiliLeaf):
                total += len(node.keys) * 16 + 16
        return total

    def __len__(self) -> int:
        return self._size

    def depth(self) -> int:
        """Routing depth (inner levels + leaf)."""
        depth = 1
        node = self._root
        while isinstance(node, _DiliInner):
            depth += 1
            node = node.children[0]
        return depth
