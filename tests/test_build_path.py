"""The table build path against the per-record build it replaced.

Flush, bulk ingest and compaction hand each table's entries to
``TableBuilder.append`` in one buffer.  Here all three are checked
against references that build the old way — one ``Record`` per entry,
encoded by ``encode_entry`` and appended alone (``TableBuilder.add``) —
over both index granularities, both codecs and values from empty to
full, trailing NUL bytes included: every ``sst-*``, ``manifest`` and
``mdl-*`` file must be byte-identical, and the ``Stats`` counters and
stage charges equal to the last bit.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.registry import IndexKind
from repro.lsm.compaction import CompactionOutcome, Compactor
from repro.lsm.db import LSMTree
from merge_reference import MergingIterator
from repro.lsm.memtable import MemTable
from repro.lsm.options import Granularity, small_test_options
from repro.lsm.record import KIND_TOMBSTONE, encode_entry, make_value
from repro.storage.stats import (
    COMPACT_BYTES_IN,
    COMPACT_BYTES_OUT,
    COMPACTIONS,
    FLUSHES,
    Stage,
)

CAPACITY = small_test_options().value_capacity


# -- references: one Record, one encode_entry, one append per entry -----------


def _reference_ingest_level(self, level, sorted_keys, value_for):
    per_table = self.options.entries_per_sstable
    added = []
    for start in range(0, len(sorted_keys), per_table):
        builder = self.new_table(level)
        for key in sorted_keys[start:start + per_table]:
            self._seq += 1
            builder.add(make_value(key, self._seq, value_for(key)))
        meta = self.seal(builder)
        self.version.add_file(level, meta)
        added.append((level, meta))
    self.commit("ingest", Stage.WRITE_PATH, added=added, retrain=[level],
                last_seq=self._seq)


def _reference_do_flush(self):
    builder = self.new_table(0)
    for record in self.memtable.records():
        builder.add(record)
    meta = self.seal(builder)
    self.version.add_file(0, meta)
    self.commit("flush", Stage.WRITE_PATH, added=[(0, meta)],
                last_seq=self._seq)
    self.memtable = MemTable(self.options.entry_bytes)
    if self.wal is not None:
        self.wal.reset()
    self.stats.add(FLUSHES)
    self.maybe_compact()
    return meta


def _reference_do_run(self, tree, task):
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
    builder = None
    options = self.options
    capacity = options.value_capacity
    same_layout = all(
        meta.table.footer.entry_bytes == options.entry_bytes
        and meta.table.footer.value_capacity == capacity
        for meta in all_inputs)
    cut = (0 if self._tiering
           else max(1, -(-options.sstable_bytes // options.entry_bytes)))
    last_key = None
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
        if builder is None:
            builder = tree.new_table(task.target_level)
        builder.append((key,), entry, seq)
        outcome.entries_out += 1
        if cut and outcome.entries_out % cut == 0:
            outputs.append(tree.seal(builder))
            builder = None
    if builder is not None:
        outputs.append(tree.seal(builder))
    self._install(tree, task, outputs)
    outcome.outputs = outputs
    self.stats.add(COMPACTIONS)
    self.stats.add(COMPACT_BYTES_IN, outcome.entries_in * options.entry_bytes)
    self.stats.add(COMPACT_BYTES_OUT,
                   outcome.entries_out * options.entry_bytes)
    return outcome


# -- the property ----------------------------------------------------------------


def _run(granularity, codec, values, seed):
    """Bulk-load, churn through flushes and compactions, flush; return
    every file's bytes, the counters and the stage charges as hex."""
    tree = LSMTree(small_test_options(
        index_kind=IndexKind.PGM, granularity=granularity,
        block_codec=codec))

    def value_for(key):
        return values[key % len(values)]

    rng = random.Random(seed)
    universe = rng.sample(range(1 << 40), 900)
    tree.bulk_ingest(universe[:500], value_for=value_for, seed=seed)
    for _ in range(400):
        key = rng.choice(universe)
        if rng.random() < 0.2:
            tree.delete(key)
        else:
            tree.put(key, rng.choice(values))
    tree.flush()
    device = tree.device
    files = {name: device.pread(name, 0, device.size(name))
             for name in device.list_files()}
    stats = tree.stats
    charges = {stage.name: us.hex() for stage, us in stats.stage_us.items()}
    return files, dict(stats.counters), charges


_VALUES = st.lists(
    st.tuples(st.binary(max_size=CAPACITY), st.integers(0, 3)).map(
        lambda pair: (pair[0] + b"\x00" * pair[1])[:CAPACITY]),
    min_size=1, max_size=12).map(
        lambda values: values + [b"", b"\xff" * CAPACITY,
                                 b"z" * (CAPACITY - 1) + b"\x00"])


@settings(max_examples=12, deadline=None)
@given(granularity=st.sampled_from([Granularity.FILE, Granularity.LEVEL]),
       codec=st.sampled_from(["none", "zlib-1"]),
       values=_VALUES, seed=st.integers(0, 2**16))
def test_tables_are_the_per_record_build_byte_for_byte(granularity, codec,
                                                        values, seed):
    files, counters, charges = _run(granularity, codec, values, seed)
    with mock.patch.object(LSMTree, "_ingest_level",
                           _reference_ingest_level), \
            mock.patch.object(LSMTree, "_do_flush", _reference_do_flush), \
            mock.patch.object(Compactor, "_do_run", _reference_do_run):
        reference = _run(granularity, codec, values, seed)
    assert counters[FLUSHES] and counters[COMPACTIONS]
    assert any(name.startswith("sst-") for name in files)
    assert "manifest" in files
    if granularity is Granularity.LEVEL:
        assert any(name.startswith("mdl-") for name in files)
    assert (files, counters, charges) == reference
