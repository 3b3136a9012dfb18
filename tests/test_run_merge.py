"""The run merge against the entry-at-a-time heap merge it replaced.

Compaction (``Compactor._do_run``) and scans (``DBIterator``) drive
:class:`~repro.lsm.iterators.RunMerge`.  Here the same seeded workloads
run once on it and once on the heap reference of ``merge_reference``
(``heap_do_run`` for compaction, ``HeapDBIterator`` for scans), and must
agree on everything observable: every file's bytes, each compaction's
outcome counts, every scan's rows, every ``Stats`` counter and stage
float (by ``==``), every traced span's ``total_us`` and waterfall, and
the block fetches — each ``Table.read_entries`` call with its stage, and
each device read — in order.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from merge_reference import HeapDBIterator, heap_do_run
from repro.errors import ReproError
from repro.indexes.registry import IndexKind
from repro.lsm.compaction import Compactor
from repro.lsm.db import LSMTree
from repro.lsm.iterators import DBIterator
from repro.lsm.options import (
    CompactionPolicy,
    Granularity,
    small_test_options,
)
from repro.lsm.record import KIND_TOMBSTONE, entry_size
from repro.lsm.sstable import Table
from repro.obs.trace import Tracer
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import COMPACTIONS, Stats


class RecordingDevice(MemoryBlockDevice):
    """A memory device that logs every read it serves."""

    def __init__(self, log, **kwargs) -> None:
        super().__init__(**kwargs)
        self.log = log

    def pread(self, name, offset, length):
        self.log.append(("pread", name, offset, length))
        return super().pread(name, offset, length)


class RootTracer(Tracer):
    """A tracer that keeps every finished root span, as a dict."""

    def __init__(self) -> None:
        super().__init__()
        self.roots = []

    def end(self, span) -> None:
        root = len(self._stack) == 1
        super().end(span)
        if root:
            self.roots.append(span.to_dict())


def _heap_iterator(self):
    """``LSMTree.iterator`` over the heap reference."""
    cursor = _run_iterator(self)
    return HeapDBIterator(cursor._merge.children)


_run_iterator = LSMTree.iterator


class _Recorder:
    """Outcomes of every compaction and every ``read_entries`` call."""

    def __init__(self, log) -> None:
        self.log = log
        self.outcomes = []
        real = Table.read_entries

        def read_entries(table, lo, hi, stage, *, seeks=1):
            log.append(("read_entries", table.name, lo, hi, stage.value,
                        seeks))
            return real(table, lo, hi, stage, seeks=seeks)

        self.patch = mock.patch.object(Table, "read_entries", read_entries)

    def wrap(self, do_run):
        outcomes = self.outcomes

        def run(compactor, tree, task):
            outcome = do_run(compactor, tree, task)
            outcomes.append((
                task.level, [meta.name for meta in task.all_inputs()],
                outcome.entries_in, outcome.entries_out, outcome.superseded,
                outcome.dropped_tombstones,
                [meta.name for meta in outcome.outputs]))
            return outcome

        return run


def _options(policy, granularity, codec, caches, capacity=44, **overrides):
    return small_test_options(
        index_kind=IndexKind.PGM, granularity=granularity,
        compaction_policy=policy, block_codec=codec,
        value_capacity=capacity,
        write_buffer_bytes=64 * entry_size(44),
        sstable_bytes=128 * entry_size(44),
        cache_bytes=2048 if caches else 0,
        data_cache_bytes=4096 if caches else 0, **overrides)


def _fresh(options, faulty=False):
    """A ``make_db`` for :func:`_observe`: an empty tree on a recording
    device (under a fault-injecting one when ``faulty``)."""
    def make_db(log, tracer):
        device = RecordingDevice(log, block_size=options.block_size)
        if faulty:
            device = FaultyBlockDevice(device, FaultPlan(seed=3))
        return LSMTree(options, device=device, tracer=tracer)

    return make_db


def _observe(heap, make_db, workload):
    """Run ``workload(db)`` on ``make_db(log, tracer)``, with the run
    merge or the heap reference; return everything observable."""
    log = []
    recorder = _Recorder(log)
    tracer = RootTracer()
    do_run = heap_do_run if heap else Compactor._do_run
    iterator = _heap_iterator if heap else _run_iterator
    with recorder.patch, \
            mock.patch.object(Compactor, "_do_run", recorder.wrap(do_run)), \
            mock.patch.object(LSMTree, "iterator", iterator):
        db = make_db(log, tracer)
        try:
            result = workload(db)
        except ReproError as exc:
            result = (type(exc).__name__, str(exc))
    stats = db.stats
    observed = {
        "result": result,
        "outcomes": recorder.outcomes,
        "counters": dict(stats.counters),
        "stage_us": dict(stats.stage_us),
        "spans": tracer.roots,
        "fetches": log,
    }
    observed["files"] = {
        name: db.device.pread(name, 0, db.device.size(name))
        for name in db.device.list_files()}
    return observed


def _assert_same(make_db, workload):
    run = _observe(False, make_db, workload)
    heap = _observe(True, make_db, workload)
    assert run["result"] == heap["result"]
    assert run["outcomes"] == heap["outcomes"]
    assert run["counters"] == heap["counters"]
    assert run["stage_us"] == heap["stage_us"]
    assert run["spans"] == heap["spans"]
    assert run["fetches"] == heap["fetches"]
    assert run["files"] == heap["files"]
    return run


def _churn(seed, ops, universe, delete_share, scans):
    """Seeded puts and deletes over ``universe`` keys, with scans from
    random start keys in between; returns the scans' rows."""
    def workload(db):
        rng = random.Random(seed)
        rows = []
        for i in range(ops):
            key = rng.randrange(universe) * 7919
            if rng.random() < delete_share:
                db.delete(key)
            else:
                db.put(key, b"v%d" % i * rng.randrange(0, 4))
            if scans and i % 97 == 0:
                rows.append(db.scan(rng.randrange(universe * 7919),
                                    rng.choice((1, 7, 60))))
        db.flush()
        for start in range(0, universe * 7919, universe * 7919 // 9):
            rows.append(db.scan(start, 150))
        return rows

    return workload


@settings(max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(policy=st.sampled_from(list(CompactionPolicy)),
       granularity=st.sampled_from(list(Granularity)),
       codec=st.sampled_from(["none", "zlib-1"]),
       caches=st.booleans(),
       seed=st.integers(0, 1 << 16),
       delete_share=st.sampled_from([0.0, 0.25]))
def test_run_merge_is_the_heap_merge(policy, granularity, codec, caches,
                                     seed, delete_share):
    if (policy is CompactionPolicy.TIERING
            and granularity is Granularity.LEVEL):
        granularity = Granularity.FILE  # tiering runs overlap in a level
    options = _options(policy, granularity, codec, caches)
    workload = _churn(seed, 900, 500, delete_share, scans=True)
    run = _assert_same(_fresh(options), workload)
    assert run["counters"][COMPACTIONS]
    assert any(outcome[4] for outcome in run["outcomes"])  # superseded


def test_tombstones_dropped_and_kept_and_outputs_cut():
    options = _options(CompactionPolicy.LEVELING, Granularity.FILE, "none",
                       caches=False)
    churn = _churn(5, 2500, 700, 0.3, scans=False)

    def workload(db):
        rows = churn(db)
        # Tombstones a merge kept: only compactions write below level 0.
        kept = 0
        for level, meta in db.version.all_files():
            if level == 0:
                continue
            it = meta.table.iterator()
            it.seek_to_first()
            while it.valid():
                kept += it.kind() == KIND_TOMBSTONE
                it.advance()
        return rows, kept

    run = _assert_same(_fresh(options), workload)
    outcomes = run["outcomes"]
    assert any(outcome[5] for outcome in outcomes)  # dropped tombstones
    assert run["result"][1] > 0  # kept tombstones
    assert any(len(outcome[6]) > 1 for outcome in outcomes)  # cut outputs
    assert max(outcome[0] for outcome in outcomes) >= 1


def test_inputs_of_another_value_capacity():
    """Narrow tables written before a reopen are re-encoded by the merge,
    entry by entry, in both merges."""
    narrow_options = _options(CompactionPolicy.LEVELING, Granularity.FILE,
                              "none", caches=False, capacity=20,
                              l0_compaction_trigger=100)
    options = _options(CompactionPolicy.LEVELING, Granularity.FILE, "none",
                       caches=False)

    def make_db(log, tracer):
        device = RecordingDevice(log, block_size=options.block_size)
        narrow = LSMTree(narrow_options, device=device)
        for key in range(1, 400, 3):
            narrow.put(key, b"old%d" % key)
        narrow.delete(7)
        narrow.flush()
        narrow.close()
        stats = Stats()
        stats.attach_tracer(tracer)
        return LSMTree.reopen(options, device, stats=stats)

    def workload(db):
        for key in range(2, 400, 5):
            db.put(key, b"a-new-and-much-longer-value-%d" % key)
        db.flush()
        return db.scan(0, 10_000)

    run = _assert_same(make_db, workload)
    assert run["outcomes"]
    assert run["result"][0] == (1, b"old1")


@pytest.mark.parametrize("granularity", list(Granularity))
def test_a_rotted_block_mid_merge_fails_the_same_way(granularity):
    """Rot in the middle of a compaction input: both merges fetch up to
    it, fail with the same error and leave the same partial stats and
    files behind."""
    options = _options(CompactionPolicy.LEVELING, granularity, "none",
                       caches=False)

    def workload(db):
        rng = random.Random(11)
        for i in range(600):
            db.put(rng.randrange(400) * 13, b"x%d" % i)
        db.flush()
        assert db.version.levels[1]
        victim = db.version.levels[1][0].table
        middle = victim.handles[len(victim.handles) // 2][1]
        db.device.inject_rot(victim.name, middle // db.device.block_size)
        for i in range(200):
            db.put(rng.randrange(400) * 13, b"y%d" % i)
        db.flush()

    run = _assert_same(_fresh(options, faulty=True), workload)
    assert run["result"][0] in ("QuarantinedBlockError", "ChecksumError")


@pytest.mark.parametrize("granularity", list(Granularity))
def test_scans_across_files_and_levels(granularity):
    """Scans that start anywhere and run across file and level
    boundaries, through per-file seeks or level-model seeks."""
    options = _options(CompactionPolicy.LEVELING, granularity, "none",
                       caches=True)

    def workload(db):
        rng = random.Random(granularity.value)
        for i in range(1500):
            db.put(rng.randrange(1000) * 3, b"s%d" % i)
            if i % 400 == 399:
                db.delete(rng.randrange(1000) * 3)
        rows = [db.scan(start, count) for start in range(0, 3001, 37)
                for count in (1, 40, 400)]
        assert sum(len(level) for level in db.version.levels[1:]) > 1
        cursor = db.iterator()
        cursor.seek(1500)
        rows.append(cursor.take(25))
        cursor.seek(10)
        rows.append([cursor.key(), cursor.take(3)])
        return rows

    _assert_same(_fresh(options), workload)


def test_db_iterator_is_the_run_merge():
    db = LSMTree(small_test_options())
    assert isinstance(db.iterator(), DBIterator)
