"""Iterator protocol and the run merge behind scans and compaction.

LSM reads are iterator compositions (the paper's ``NewIter``):

* each memtable / SSTable / level exposes a :class:`KVIterator` over
  its entries in ascending user-key order, one buffered block at a
  time, as columns;
* :class:`RunMerge` merges several of them in (key, newest-first)
  order a *run* at a time: the child with the smallest head emits
  every entry that precedes all other heads in one step;
* :class:`DBIterator` collapses versions on top: per user key only the
  newest entry survives, and tombstones hide older values.

Compaction drives the same :class:`RunMerge` (with a different I/O
stage label), which is how the paper's testbed implements
``BuildTable``'s sort-merge input.

The protocol separates *reading headers* from *materialising a
record*.  A child's ``keys`` and ``metas`` (``seq << 8 | kind``) are
the header columns of its buffered block — an SSTable iterator decodes
them once per fetched block, without touching a value — and ``head``
is the column index of its current entry.  :meth:`KVIterator.row` is
the only call that builds a :class:`~repro.lsm.record.Record` and
copies a value: a range scan builds one per row it returns, and a
compaction none unless an input's layout differs from its output's (it
copies stored entry bytes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from heapq import heapify, heappop, heapreplace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.lsm.record import KIND_TOMBSTONE, Record


class KVIterator(ABC):
    """A forward cursor over entries sorted by (key asc, seq desc).

    ``keys`` / ``metas`` are the header columns of the buffered block
    and ``head`` the column index of the current entry; the cursor is
    valid while ``head < len(keys)``.  Inside the block, moving is
    setting ``head``; :meth:`advance_to` does just that there, and at
    the block's end fetches the next block.
    """

    keys: Sequence[int] = ()
    metas: Sequence[int] = ()
    head: int = 0

    @abstractmethod
    def seek_to_first(self) -> None:
        """Position on the first entry."""

    @abstractmethod
    def seek(self, key: int) -> None:
        """Position on the first entry with user key >= ``key``."""

    @abstractmethod
    def advance_to(self, index: int) -> None:
        """Move to column index ``index`` (``head < index <=
        len(keys)``); at ``len(keys)``, to the next block, if any."""

    @abstractmethod
    def row(self, index: int) -> Record:
        """The entry at column index ``index`` of the buffered block,
        materialised."""

    # Single-entry views of the columns.

    def valid(self) -> bool:
        """True while positioned on an entry."""
        return self.head < len(self.keys)

    def key(self) -> int:
        """User key at the current position (requires ``valid()``)."""
        return self.keys[self.head]

    def seq(self) -> int:
        """Sequence number at the current position (a header read)."""
        return self.metas[self.head] >> 8

    def kind(self) -> int:
        """Record kind at the current position (a header read)."""
        return self.metas[self.head] & 0xFF

    def record(self) -> Record:
        """Record at the current position (requires ``valid()``)."""
        return self.row(self.head)

    def advance(self) -> None:
        """Move to the next entry."""
        self.advance_to(self.head + 1)


class MemTableIterator(KVIterator):
    """Iterator over the live memtable (snapshot-free, single threaded).

    Its block is one record: each step reads the next key's record as
    it stands when the cursor reaches it.
    """

    def __init__(self, memtable) -> None:
        self._memtable = memtable
        self._iter: Optional[Iterator[Record]] = None
        self._current: Optional[Record] = None

    def seek_to_first(self) -> None:
        self._iter = self._memtable.records()
        self._step()

    def seek(self, key: int) -> None:
        self._iter = self._memtable.records_from(key)
        self._step()

    def _step(self) -> None:
        assert self._iter is not None
        record = self._current = next(self._iter, None)
        if record is None:
            self.keys = self.metas = ()
        else:
            self.keys = (record.key,)
            self.metas = (record.seq << 8 | record.kind,)
        self.head = 0

    def advance_to(self, index: int) -> None:
        self._step()

    def row(self, index: int) -> Record:
        return self._current


class RunMerge:
    """Merge of child iterators in (key, seq desc, rank) order, by runs.

    ``rank`` breaks ties between sources holding the same (key, seq):
    lower rank (newer source) wins, mirroring LevelDB's source priority
    memtable > L0-newest > ... > deepest level.

    A heap holds each valid child's head.  :meth:`next_run` names the
    child with the smallest head and the end of its *run*: the entries
    of its buffered block that precede the runner-up head, found by
    bisecting the key column.  The caller consumes them, and its next
    call moves that child past the run — fetching its next block only
    when the run reached the end of the current one.  So blocks are
    fetched in merged-entry order: a child's next block right after
    the merge passes its last buffered entry.
    """

    def __init__(self, children: List[KVIterator]) -> None:
        self.children = children
        self._heap: List[Tuple[int, int, int]] = []

    def seek_to_first(self) -> None:
        for child in self.children:
            child.seek_to_first()
        self._rebuild()

    def seek(self, key: int) -> None:
        for child in self.children:
            child.seek(key)
        self._rebuild()

    def _rebuild(self) -> None:
        self._heap = [(child.keys[child.head],
                       -(child.metas[child.head] >> 8), rank)
                      for rank, child in enumerate(self.children)
                      if child.head < len(child.keys)]
        heapify(self._heap)

    def next_run(self, end: int = -1) -> Optional[Tuple[KVIterator, int]]:
        """Consume the current run up to ``end`` (none on the first call
        after a seek), then return the next: ``(child, end)`` names the
        child's entries ``[child.head, end)``, or None when every child
        is exhausted."""
        heap = self._heap
        if end >= 0:
            # Move the run's child past it and re-rank it.
            rank = heap[0][2]
            child = self.children[rank]
            keys = child.keys
            if end < len(keys):  # inside the block: no fetch, no call
                child.head = end
                heapreplace(heap, (keys[end], -(child.metas[end] >> 8),
                                   rank))
            else:
                child.advance_to(end)
                head = child.head
                if head < len(child.keys):
                    heapreplace(heap, (child.keys[head],
                                       -(child.metas[head] >> 8), rank))
                else:
                    heappop(heap)
        if not heap:
            return None
        rank = heap[0][2]
        child = self.children[rank]
        keys = child.keys
        if len(heap) == 1:
            return child, len(keys)
        # The runner-up is the smaller child of the heap's root.
        key, neg_seq, other = (heap[1] if len(heap) == 2 or heap[1] < heap[2]
                               else heap[2])
        end = bisect_left(keys, key, child.head)
        metas = child.metas
        while (end < len(keys) and keys[end] == key
               and (-(metas[end] >> 8), rank) < (neg_seq, other)):
            end += 1
        return child, end


class DBIterator:
    """User-visible iterator: newest visible value per key, no tombstones.

    It stands on an entry of the current run without consuming it, so
    a child moves (and fetches) only once the cursor has passed its
    whole run.
    """

    def __init__(self, children: List[KVIterator]) -> None:
        self._merge = RunMerge(children)
        self._child: Optional[KVIterator] = None
        self._at = 0  # column index of the current entry in ``_child``
        self._end = 0  # end of the current run
        self._last: Optional[int] = None  # key of the last entry passed
        self._key: Optional[int] = None

    def seek_to_first(self) -> None:
        self._merge.seek_to_first()
        self._restart()

    def seek(self, key: int) -> None:
        self._merge.seek(key)
        self._restart()

    def _restart(self) -> None:
        self._child = None
        self._at = self._end = 0
        self._last = None
        self._settle()

    def _settle(self) -> None:
        """Advance until positioned on a live (non-deleted) newest version."""
        merge = self._merge
        child, at, end, last = self._child, self._at, self._end, self._last
        while True:
            if at == end:
                run = merge.next_run(end if child is not None else -1)
                if run is None:
                    self._child = None
                    self._key = None
                    return
                child, end = run
                at = child.head
            key = child.keys[at]
            if key == last:  # an older version of a key already passed
                at += 1
                continue
            # The first entry of a key is its newest version.
            last = key
            if child.metas[at] & 0xFF == KIND_TOMBSTONE:
                at += 1
                continue
            self._child, self._at, self._end, self._last = (child, at, end,
                                                            last)
            self._key = key
            return

    def valid(self) -> bool:
        """True while positioned on a live entry."""
        return self._key is not None

    def key(self) -> int:
        """Current user key."""
        assert self._key is not None
        return self._key

    def value(self) -> bytes:
        """Current value."""
        assert self._key is not None
        return self._child.row(self._at).value

    def advance(self) -> None:
        """Move to the next live user key."""
        assert self._key is not None
        self._at += 1
        self._settle()

    def take(self, count: int) -> List[Tuple[int, bytes]]:
        """Collect up to ``count`` (key, value) pairs from the cursor."""
        out: List[Tuple[int, bytes]] = []
        while self._key is not None and len(out) < count:
            out.append((self._key, self._child.row(self._at).value))
            self._at += 1
            self._settle()
        return out
