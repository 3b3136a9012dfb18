"""The entry-at-a-time merge, kept as the reference for the run merge.

``MergingIterator`` heap-merges child iterators one entry per pop and
push; ``HeapDBIterator`` collapses versions over it one entry at a time;
``heap_do_run`` is ``Compactor._do_run`` driven by that heap, one
``Stats.charge`` per merged entry.  Together they are the merge that
scans and compaction ran before :class:`~repro.lsm.iterators.RunMerge`,
and the tests require the run merge to match them in every output,
count, charge and block fetch.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.lsm.compaction import CompactionOutcome
from repro.lsm.iterators import KVIterator
from repro.lsm.record import KIND_TOMBSTONE, Record, encode_entry
from repro.storage.stats import (
    COMPACT_BYTES_IN,
    COMPACT_BYTES_OUT,
    COMPACTIONS,
    Stage,
)


class ListIterator(KVIterator):
    """An in-memory, pre-sorted record list served ``block`` records at
    a time (the whole list by default)."""

    def __init__(self, records, block: Optional[int] = None) -> None:
        self._records = records
        self._block = block or max(1, len(records))
        self._lo = len(records)
        self.fetches = 0

    def _load(self, lo: int) -> None:
        self._lo = lo
        chunk = self._records[lo:lo - lo % self._block + self._block]
        self.keys = tuple(record.key for record in chunk)
        self.metas = tuple(record.seq << 8 | record.kind for record in chunk)
        self.head = 0
        self.fetches += 1

    def seek_to_first(self) -> None:
        self.seek(0)

    def seek(self, key: int) -> None:
        pos = bisect_left([record.key for record in self._records], key)
        if pos < len(self._records):
            self._load(pos)
        else:
            self.keys = self.metas = ()
            self.head = 0

    def advance_to(self, index: int) -> None:
        self.head = index
        if index == len(self.keys) and self._lo + index < len(self._records):
            self._load(self._lo + index)

    def row(self, index: int) -> Record:
        return self._records[self._lo + index]


class MergingIterator:
    """Heap-merge of child iterators ordered by (key, seq desc, rank)."""

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


class HeapDBIterator:
    """Newest live value per key over a :class:`MergingIterator`."""

    def __init__(self, children: List[KVIterator]) -> None:
        self._merged = MergingIterator(children)
        self._key: Optional[int] = None
        self._value: Optional[bytes] = None

    def seek_to_first(self) -> None:
        self._merged.seek_to_first()
        self._settle()

    def seek(self, key: int) -> None:
        self._merged.seek(key)
        self._settle()

    def _settle(self) -> None:
        self._key = None
        self._value = None
        while self._merged.valid():
            record = self._merged.record()
            if record.is_tombstone:
                self._skip_key(record.key)
                continue
            self._key = record.key
            self._value = record.value
            return

    def _skip_key(self, key: int) -> None:
        while self._merged.valid() and self._merged.key() == key:
            self._merged.advance()

    def valid(self) -> bool:
        return self._key is not None

    def key(self) -> int:
        return self._key

    def value(self) -> bytes:
        return self._value

    def advance(self) -> None:
        self._skip_key(self._key)
        self._settle()

    def take(self, count: int) -> List[Tuple[int, bytes]]:
        out: List[Tuple[int, bytes]] = []
        while self.valid() and len(out) < count:
            out.append((self.key(), self.value()))
            self.advance()
        return out


def heap_do_run(self, tree, task):
    """``Compactor._do_run`` over :class:`MergingIterator`: headers off
    the heap, one stored entry copied (or re-encoded) per newest
    version, one ``COMPACT_MERGE`` charge per merged entry after the
    child advanced, and an output cut right after the entry that fills
    it."""
    version = tree.version
    outcome = CompactionOutcome(task=task)
    all_inputs = task.all_inputs()
    min_key = min(meta.min_key for meta in all_inputs)
    max_key = max(meta.max_key for meta in all_inputs)
    overlap_from = task.level if self._tiering else task.target_level
    drop_tombstones = not version.key_range_overlaps_below(
        overlap_from, min_key, max_key)
    merged = MergingIterator([
        meta.table.iterator(refill_stage=Stage.COMPACT_READ)
        for meta in all_inputs])
    merged.seek_to_first()
    outputs = []
    options = self.options
    capacity = options.value_capacity
    same_layout = all(
        meta.table.footer.entry_bytes == options.entry_bytes
        and meta.table.footer.value_capacity == capacity
        for meta in all_inputs)
    cut = (0 if self._tiering
           else max(1, -(-options.sstable_bytes // options.entry_bytes)))
    last_key = None
    keys, chunks, max_seq = [], [], 0
    while merged.valid():
        key = merged.key()
        newest = key != last_key
        if newest:
            seq = merged.seq()
            top = merged.top()
            keep = not (drop_tombstones and top.kind() == KIND_TOMBSTONE)
            if keep:
                entry = (top.entry() if same_layout
                         else encode_entry(top.record(), capacity))
        merged.advance()
        outcome.entries_in += 1
        self.stats.charge(Stage.COMPACT_MERGE, self.cost.merge_entry_us)
        if not newest:
            outcome.superseded += 1
            continue
        last_key = key
        if not keep:
            outcome.dropped_tombstones += 1
            continue
        keys.append(key)
        chunks.append(entry)
        max_seq = max(max_seq, seq)
        outcome.entries_out += 1
        if cut and outcome.entries_out % cut == 0:
            outputs.append(_output(tree, task.target_level, keys, chunks,
                                   max_seq))
            keys, chunks, max_seq = [], [], 0
    if keys:
        outputs.append(_output(tree, task.target_level, keys, chunks,
                               max_seq))
    self._install(tree, task, outputs)
    outcome.outputs = outputs
    self.stats.add(COMPACTIONS)
    self.stats.add(COMPACT_BYTES_IN, outcome.entries_in * options.entry_bytes)
    self.stats.add(COMPACT_BYTES_OUT,
                   outcome.entries_out * options.entry_bytes)
    return outcome


def _output(tree, level, keys, chunks, max_seq):
    builder = tree.new_table(level)
    builder.append(keys, b"".join(chunks), max_seq)
    return tree.seal(builder)
