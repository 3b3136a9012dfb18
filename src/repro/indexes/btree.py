"""An in-memory B+-tree over integer keys.

FITing-Tree (Figure 2 B of the paper) indexes its segments with a
B+-tree rather than a flat array — faster segment lookup, more memory.
This module provides that tree: bulk loading from sorted pairs,
point/floor search and ordered iteration.  Like every index here it is
built once per immutable table and takes no inserts.

Keys are arbitrary Python ints; values are non-negative ints (segment
ids, positions).  Nodes hold up to ``order`` keys.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import IndexBuildError
from repro.indexes import codec

#: Node order of every FITing-Tree inner tree; no option sets another.
DEFAULT_ORDER = 16


class _Node:
    """One B+-tree node.

    Leaf nodes keep parallel ``keys``/``values`` lists plus a ``next``
    link for range scans.  Internal nodes keep ``keys`` as separators
    with ``children[i]`` covering keys < ``keys[i]`` (children has one
    more element than keys).
    """

    __slots__ = ("keys", "values", "children", "next", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.values: List[int] = []
        self.children: List["_Node"] = []
        self.next: Optional["_Node"] = None


class BPlusTree:
    """A B+-tree mapping int keys to int values."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise IndexBuildError(f"B+-tree order must be >= 3, got {order}")
        self.order = order
        self._root: _Node = _Node(is_leaf=True)
        self._size = 0
        self._height = 1

    # -- bulk loading ----------------------------------------------------

    @classmethod
    def bulk_load(cls, pairs: Sequence[Tuple[int, int]],
                  order: int = DEFAULT_ORDER) -> "BPlusTree":
        """Build bottom-up from sorted, unique ``(key, value)`` pairs."""
        tree = cls(order)
        if not pairs:
            return tree
        # Fill nodes to ~ 2/3 of ``order``, the occupancy a B+-tree
        # built by inserts settles at, so node count and serialized
        # size are those of a classic tree.
        per_leaf = max(2, (2 * order) // 3)
        leaves: List[_Node] = []
        for i in range(0, len(pairs), per_leaf):
            chunk = pairs[i:i + per_leaf]
            leaf = _Node(is_leaf=True)
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [value for _, value in chunk]
            leaves.append(leaf)
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        level: List[_Node] = leaves
        height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            per_inner = max(2, (2 * order) // 3)
            for i in range(0, len(level), per_inner):
                chunk = level[i:i + per_inner]
                parent = _Node(is_leaf=False)
                parent.children = list(chunk)
                parent.keys = [_smallest_key(child) for child in chunk[1:]]
                parents.append(parent)
            level = parents
            height += 1
        tree._root = level[0]
        tree._size = len(pairs)
        tree._height = height
        return tree

    # -- queries -----------------------------------------------------------

    def _descend(self, key: int) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key: int) -> Optional[int]:
        """Value for ``key``, or None when absent."""
        leaf = self._descend(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return None

    def floor(self, key: int) -> Optional[Tuple[int, int]]:
        """The ``(key, value)`` pair with the greatest key <= ``key``."""
        leaf = self._descend(key)
        idx = bisect_right(leaf.keys, key) - 1
        if idx >= 0:
            return leaf.keys[idx], leaf.values[idx]
        # Key is smaller than everything in this leaf; since internal
        # separators route by smallest key, there is no predecessor.
        return None

    def items(self) -> Iterator[Tuple[int, int]]:
        """All pairs in key order (follows the leaf chain)."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaves (1 for a lone leaf)."""
        return self._height

    def node_count(self) -> int:
        """Total node count (for memory accounting)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    # -- serialisation --------------------------------------------------------

    def serialize_into(self, writer: codec.Writer) -> None:
        """Flatten the tree (pre-order) into ``writer``.

        Nodes are written as ``is_leaf, keys[]`` plus either values
        (leaves) or child indices (internal), giving a byte size that
        matches what the pointer structure would occupy natively.
        """
        nodes: List[_Node] = []
        index_of = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                stack.extend(reversed(node.children))
        writer.put_u32(self.order)
        writer.put_u32(len(nodes))
        writer.put_u32(self._size)
        writer.put_u32(self._height)
        for node in nodes:
            writer.put_u8(1 if node.is_leaf else 0)
            writer.put_u64_array(node.keys)
            if node.is_leaf:
                writer.put_u32_array(node.values)
            else:
                writer.put_u32_array([index_of[id(child)]
                                      for child in node.children])

    @classmethod
    def deserialize_from(cls, reader: codec.Reader) -> "BPlusTree":
        """Inverse of :meth:`serialize_into`."""
        order = reader.get_u32()
        node_count = reader.get_u32()
        size = reader.get_u32()
        height = reader.get_u32()
        tree = cls(order)
        nodes: List[_Node] = []
        child_refs: List[List[int]] = []
        for _ in range(node_count):
            is_leaf = reader.get_u8() == 1
            node = _Node(is_leaf=is_leaf)
            node.keys = reader.get_u64_array()
            if is_leaf:
                node.values = reader.get_u32_array()
                child_refs.append([])
            else:
                child_refs.append(reader.get_u32_array())
            nodes.append(node)
        for node, refs in zip(nodes, child_refs):
            if not node.is_leaf:
                node.children = [nodes[ref] for ref in refs]
        # Restore the leaf chain in key order.
        leaves = [node for node in nodes if node.is_leaf]
        leaves.sort(key=lambda leaf: leaf.keys[0] if leaf.keys else 0)
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        if nodes:
            tree._root = nodes[0]
        tree._size = size
        tree._height = height
        return tree


def _smallest_key(node: _Node) -> int:
    while not node.is_leaf:
        node = node.children[0]
    return node.keys[0]
