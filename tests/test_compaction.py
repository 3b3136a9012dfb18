"""Tests for compaction picking, execution and accounting."""

import random

import pytest

from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity, small_test_options
from repro.persist.manifest import MANIFEST_NAME
from repro.storage.stats import (
    COMPACT_BYTES_IN,
    COMPACT_BYTES_OUT,
    COMPACTIONS,
    Stage,
)


def _filled_db(**overrides):
    options = small_test_options(**overrides)
    db = LSMTree(options)
    rng = random.Random(11)
    keys = rng.sample(range(1, 1 << 40), 1000)
    for i, key in enumerate(keys):
        db.put(key, b"v%d" % i)
    return db, keys


def test_compactions_keep_levels_within_capacity():
    db, _ = _filled_db()
    db.flush()
    options = db.options
    for level in range(1, options.max_levels - 1):
        assert (db.version.level_data_bytes(level)
                <= options.level_capacity_bytes(level))
    db.close()


def test_levels_stay_sorted_and_disjoint():
    db, _ = _filled_db()
    db.flush()
    for level in range(1, db.options.max_levels):
        files = db.version.levels[level]
        for left, right in zip(files, files[1:]):
            assert left.max_key < right.min_key
    db.close()


def test_compaction_counters():
    db, _ = _filled_db()
    db.flush()
    assert db.stats.get(COMPACTIONS) > 0
    assert db.stats.get(COMPACT_BYTES_IN) > 0
    assert db.stats.get(COMPACT_BYTES_OUT) > 0
    # Dedup/tombstone dropping can only shrink output.
    assert (db.stats.get(COMPACT_BYTES_OUT)
            <= db.stats.get(COMPACT_BYTES_IN))
    db.close()


def test_compaction_charges_stages():
    db, _ = _filled_db()
    db.flush()
    for stage in (Stage.COMPACT_READ, Stage.COMPACT_MERGE,
                  Stage.COMPACT_WRITE, Stage.COMPACT_TRAIN,
                  Stage.COMPACT_WRITE_MODEL):
        assert db.stats.stage_time(stage) > 0, stage
    db.close()


def test_superseded_versions_collapse():
    db = LSMTree(small_test_options())
    for round_no in range(20):
        for key in range(40):
            db.put(key, b"r%d" % round_no)
    db.flush()
    db.maybe_compact()
    total_entries = sum(meta.entry_count
                       for _, meta in db.version.all_files())
    # 800 writes of 40 distinct keys must collapse to far fewer entries.
    assert total_entries < 200
    db.close()


def test_obsolete_files_deleted_from_device():
    db, _ = _filled_db()
    db.flush()
    live = {meta.name for _, meta in db.version.all_files()}
    on_disk = set(db.device.list_files())
    assert live <= on_disk
    # Nothing else should linger except the persistence layer's files:
    # the MANIFEST version log (and, under level granularity, the live
    # model sidecars — not built here).  The WAL is disabled.
    assert on_disk - live == {MANIFEST_NAME}
    db.close()


def test_round_robin_pointer_rotates():
    db, _ = _filled_db(size_ratio=3)
    db.flush()
    pointers = db.compactor._pointers
    # After a deep fill with T=3 at least one deep level compacted
    # partially, leaving a pointer.
    assert db.stats.get(COMPACTIONS) >= 2
    assert isinstance(pointers, dict)
    db.close()


def test_level_model_rebuilt_after_compaction():
    db, keys = _filled_db(index_kind=IndexKind.PGM,
                          granularity=Granularity.LEVEL)
    db.flush()
    assert db.level_models is not None
    deepest = db.version.deepest_nonempty_level()
    model = db.level_models.model_for(deepest)
    assert model is not None
    assert model.total_entries == db.version.level_entry_count(deepest)
    # Every key still readable through the level models.
    for key in keys[::31]:
        assert db.get(key) is not None
    db.close()


def test_partial_compaction_moves_subset():
    """Deep-level compactions move one file, not the whole level."""
    db, _ = _filled_db(size_ratio=3, l0_compaction_trigger=2)
    db.flush()
    outcomes = db.maybe_compact()
    # Trigger one more incremental round.
    rng = random.Random(5)
    for i, key in enumerate(rng.sample(range(1 << 41, 1 << 42), 400)):
        db.put(key, b"x%d" % i)
    db.flush()
    deep = [o for o in db.maybe_compact() if o.task.level >= 1]
    for outcome in deep:
        assert len(outcome.task.inputs) == 1  # partial: one upper file
    db.close()


# -- entry pass-through: byte-identical to the record-by-record merge -------


def _reference_do_run(self, tree, task):
    """The merge ``_do_run`` replaced, kept as the oracle: every merged
    entry decoded into a ``Record`` and re-encoded by ``TableBuilder.add``,
    outputs cut on the builder's payload size."""
    from repro.lsm.compaction import CompactionOutcome
    from merge_reference import MergingIterator

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
    last_key = None
    merge_cost = self.cost.merge_entry_us
    while merged.valid():
        record = merged.record()
        merged.advance()
        outcome.entries_in += 1
        self.stats.charge(Stage.COMPACT_MERGE, merge_cost)
        if record.key == last_key:
            outcome.superseded += 1
            continue
        last_key = record.key
        if record.is_tombstone and drop_tombstones:
            outcome.dropped_tombstones += 1
            continue
        if builder is None:
            builder = tree.new_table(task.target_level)
        builder.add(record)
        outcome.entries_out += 1
        if (not self._tiering
                and builder.entry_count * self.options.entry_bytes
                >= self.options.sstable_bytes):
            outputs.append(tree.seal(builder))
            builder = None
    if builder is not None and builder.entry_count:
        outputs.append(tree.seal(builder))
    self._install(tree, task, outputs)
    outcome.outputs = outputs
    entry_bytes = self.options.entry_bytes
    self.stats.add(COMPACTIONS)
    self.stats.add(COMPACT_BYTES_IN, outcome.entries_in * entry_bytes)
    self.stats.add(COMPACT_BYTES_OUT, outcome.entries_out * entry_bytes)
    return outcome


def _churn(db, seed, ops):
    """Seeded puts, overwrites and deletes over a small universe."""
    rng = random.Random(seed)
    live = {}
    for i in range(ops):
        key = rng.randrange(1, 700) * 1_000_003
        if rng.random() < 0.2:
            db.delete(key)
            live.pop(key, None)
        else:
            live[key] = b"v%d" % i * rng.randrange(1, 4)
            db.put(key, live[key])
    db.flush()
    return live


def _recorded(db, do_run):
    """Run ``db``'s compactions through ``do_run``, keeping each outcome
    and the bytes of the files it wrote (inputs are deleted later on)."""
    outcomes = []

    def run(tree, task):
        outcome = do_run(db.compactor, tree, task)
        outcomes.append((
            task.level, [meta.name for meta in task.all_inputs()],
            outcome.entries_in, outcome.entries_out, outcome.superseded,
            outcome.dropped_tombstones,
            [(meta.name, db.device.pread(meta.name, 0,
                                         db.device.size(meta.name)))
             for meta in outcome.outputs]))
        return outcome

    db.compactor._do_run = run
    return outcomes


@pytest.mark.parametrize("policy,granularity", [
    ("leveling", Granularity.FILE), ("leveling", Granularity.LEVEL),
    ("tiering", Granularity.FILE)])
def test_pass_through_merge_writes_the_reference_merge_bytes(policy,
                                                             granularity):
    from repro.lsm.compaction import Compactor
    from repro.lsm.options import CompactionPolicy

    runs = []
    for do_run in (Compactor._do_run, _reference_do_run):
        db = LSMTree(small_test_options(
            index_kind=IndexKind.PGM, granularity=granularity,
            compaction_policy=CompactionPolicy(policy)))
        outcomes = _recorded(db, do_run)
        live = _churn(db, seed=31, ops=3000)
        assert sorted(db.scan(0, 10_000)) == sorted(live.items())
        files = {name: db.device.pread(name, 0, db.device.size(name))
                 for name in db.device.list_files()}
        runs.append((outcomes, files, db.stats))
        deepest = max(level for level, _ in db.version.all_files())
        db.close()
    (outcomes, files, stats), (ref_outcomes, ref_files, ref_stats) = runs
    assert deepest >= 2 and len(outcomes) > 10
    assert {task[0] for task in outcomes} >= {0, 1}  # L0->L1 and L1->L2
    assert any(task[4] for task in outcomes)   # superseded versions
    assert any(task[5] for task in outcomes)   # dropped tombstones
    assert outcomes == ref_outcomes
    assert files == ref_files
    assert stats == ref_stats


def test_inputs_of_another_value_capacity_are_re_encoded():
    from repro.lsm.compaction import Compactor
    from repro.lsm.record import entry_size

    def options(capacity, trigger):
        return small_test_options(
            index_kind=IndexKind.PGM, value_capacity=capacity,
            write_buffer_bytes=64 * entry_size(44),
            sstable_bytes=128 * entry_size(44),
            l0_compaction_trigger=trigger)

    narrow = LSMTree(options(20, trigger=100))
    expected = {}
    for key in range(1, 400, 3):
        expected[key] = b"old%d" % key
        narrow.put(key, expected[key])
    narrow.delete(7)
    del expected[7]
    narrow.flush()
    assert narrow.stats.get(COMPACTIONS) == 0

    wide = LSMTree.reopen(options(44, trigger=2), narrow.device)
    seen = []
    real = Compactor._do_run
    wide.compactor._do_run = lambda tree, task: (
        seen.extend(meta.table.footer.value_capacity
                    for meta in task.all_inputs()),
        real(wide.compactor, tree, task))[1]
    for key in range(2, 400, 5):
        expected[key] = b"a-new-and-much-longer-value-%d" % key
        wide.put(key, expected[key])
    wide.flush()
    assert {20, 44} <= set(seen)  # mixed inputs: the fallback arm ran
    for _, meta in wide.version.all_files():
        if meta.table.footer.level >= 1:
            assert meta.table.footer.value_capacity == 44
            assert meta.table.footer.entry_bytes == entry_size(44)
    assert wide.scan(0, 10_000) == sorted(expected.items())
    for key in (1, 2, 7, 397):
        assert wide.get(key) == expected.get(key)
    wide.close()
