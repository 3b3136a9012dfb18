"""Iterator protocol and the merging machinery for reads and compaction.

LSM reads are iterator compositions (the paper's ``NewIter``):

* each memtable / SSTable / level exposes a :class:`KVIterator` over
  its records in ascending user-key order;
* :class:`MergingIterator` heap-merges several of them, surfacing
  records ordered by (key, newest-first);
* :class:`DBIterator` collapses versions: per user key only the newest
  record survives, and tombstones hide older values.

Compaction reuses exactly the same stack (with a different I/O stage
label), which is how the paper's testbed implements ``BuildTable``'s
sort-merge input.

The protocol separates *reading a header* from *materialising a
record*.  ``key()`` and ``seq()`` (and, on a table iterator, ``kind()``
and ``entry()`` — the stored bytes) are header reads: an SSTable
iterator serves them from the ``<QQI`` column it decodes once per
fetched block, without touching a value.  ``record()`` is the only call
that builds a :class:`~repro.lsm.record.Record` and copies a value.
The merge orders its heap on ``(key(), -seq(), rank)`` alone, so a
range scan materialises one record per key it inspects and a compaction
none at all: it copies ``entry()`` bytes from ``top()`` into the output.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Tuple

from repro.lsm.record import Record


class KVIterator(ABC):
    """A forward iterator over records sorted by (key asc, seq desc)."""

    @abstractmethod
    def seek_to_first(self) -> None:
        """Position on the first record."""

    @abstractmethod
    def seek(self, key: int) -> None:
        """Position on the first record with user key >= ``key``."""

    @abstractmethod
    def valid(self) -> bool:
        """True while positioned on a record."""

    @abstractmethod
    def key(self) -> int:
        """User key at the current position (requires ``valid()``)."""

    def seq(self) -> int:
        """Sequence number at the current position (a header read)."""
        return self.record().seq

    @abstractmethod
    def record(self) -> Record:
        """Record at the current position (requires ``valid()``); the
        one call that materialises a value."""

    @abstractmethod
    def advance(self) -> None:
        """Move to the next record."""


class MemTableIterator(KVIterator):
    """Iterator over the live memtable (snapshot-free, single threaded)."""

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
        self._current = next(self._iter, None)

    def valid(self) -> bool:
        return self._current is not None

    def key(self) -> int:
        return self._current.key

    def seq(self) -> int:
        return self._current.seq

    def record(self) -> Record:
        return self._current

    def advance(self) -> None:
        self._step()


class MergingIterator(KVIterator):
    """Heap-merge of child iterators ordered by (key, seq desc, rank).

    ``rank`` breaks ties between sources holding the same (key, seq):
    lower rank (newer source) wins, mirroring LevelDB's source priority
    memtable > L0-newest > ... > deepest level.
    """

    def __init__(self, children: List[KVIterator]) -> None:
        self._children = children
        self._heap: List[Tuple[int, int, int]] = []

    def _push(self, rank: int) -> None:
        child = self._children[rank]
        if child.valid():
            heapq.heappush(self._heap, (child.key(), -child.seq(), rank))

    def _rebuild(self) -> None:
        self._heap = []
        for rank in range(len(self._children)):
            self._push(rank)

    def seek_to_first(self) -> None:
        for child in self._children:
            child.seek_to_first()
        self._rebuild()

    def seek(self, key: int) -> None:
        for child in self._children:
            child.seek(key)
        self._rebuild()

    def valid(self) -> bool:
        return bool(self._heap)

    def key(self) -> int:
        return self._heap[0][0]

    def seq(self) -> int:
        return -self._heap[0][1]

    def top(self) -> KVIterator:
        """The child standing on the current entry."""
        return self._children[self._heap[0][2]]

    def record(self) -> Record:
        return self.top().record()

    def advance(self) -> None:
        _, _, rank = heapq.heappop(self._heap)
        self._children[rank].advance()
        self._push(rank)


class DBIterator:
    """User-visible iterator: newest visible value per key, no tombstones."""

    def __init__(self, merged: KVIterator) -> None:
        self._merged = merged
        self._key: Optional[int] = None
        self._value: Optional[bytes] = None

    def seek_to_first(self) -> None:
        self._merged.seek_to_first()
        self._settle()

    def seek(self, key: int) -> None:
        self._merged.seek(key)
        self._settle()

    def _settle(self) -> None:
        """Advance until positioned on a live (non-deleted) newest version."""
        self._key = None
        self._value = None
        while self._merged.valid():
            record = self._merged.record()
            key = record.key
            # The first record for a key is its newest version.
            if record.is_tombstone:
                self._skip_key(key)
                continue
            self._key = key
            self._value = record.value
            return

    def _skip_key(self, key: int) -> None:
        while self._merged.valid() and self._merged.key() == key:
            self._merged.advance()

    def valid(self) -> bool:
        """True while positioned on a live entry."""
        return self._key is not None

    def key(self) -> int:
        """Current user key."""
        assert self._key is not None
        return self._key

    def value(self) -> bytes:
        """Current value."""
        assert self._value is not None
        return self._value

    def advance(self) -> None:
        """Move to the next live user key."""
        assert self._key is not None
        self._skip_key(self._key)
        self._settle()

    def take(self, count: int) -> List[Tuple[int, bytes]]:
        """Collect up to ``count`` (key, value) pairs from the cursor."""
        out: List[Tuple[int, bytes]] = []
        while self.valid() and len(out) < count:
            out.append((self.key(), self.value()))
            self.advance()
        return out
