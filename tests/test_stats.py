"""Unit tests for the stats registry (counters, stages, snapshots)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.stats import (
    BLOCKS_READ,
    READ_STAGES,
    Stage,
    Stats,
)


def test_counters_accumulate():
    stats = Stats()
    stats.add(BLOCKS_READ)
    stats.add(BLOCKS_READ, 4)
    assert stats.get(BLOCKS_READ) == 5
    assert stats.get("never.touched") == 0.0


def test_stage_charging_and_totals():
    stats = Stats()
    stats.charge(Stage.IO, 2.0)
    stats.charge(Stage.IO, 1.5)
    stats.charge(Stage.PREDICTION, 0.25)
    assert stats.stage_time(Stage.IO) == pytest.approx(3.5)
    assert stats.total_time() == pytest.approx(3.75)


def test_negative_charge_rejected():
    stats = Stats()
    with pytest.raises(ValueError):
        stats.charge(Stage.IO, -1.0)


@settings(max_examples=100, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
       us=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       n=st.integers(min_value=-1, max_value=40))
def test_charge_each_is_n_charges(start, us, n):
    class Recorder:
        def __init__(self):
            self.charges = []

        def on_charge(self, stage, amount):
            self.charges.append((stage, amount))

    one, many = Stats(), Stats()
    one.attach_tracer(Recorder())
    many.attach_tracer(Recorder())
    for stats in (one, many):
        stats.charge(Stage.COMPACT_MERGE, start)
    for _ in range(n):
        one.charge(Stage.COMPACT_MERGE, us)
    many.charge_each(Stage.COMPACT_MERGE, us, n)
    assert many.stage_us == one.stage_us
    assert many.tracer.charges == one.tracer.charges
    with pytest.raises(ValueError):
        many.charge_each(Stage.IO, -1.0, 2)


def test_read_time_covers_only_read_stages():
    stats = Stats()
    for stage in READ_STAGES:
        stats.charge(stage, 1.0)
    stats.charge(Stage.COMPACT_WRITE, 100.0)
    assert stats.read_time() == pytest.approx(len(READ_STAGES))


class _NullTracer:
    """Observes and never writes back, like ``repro.obs.trace.Tracer``."""

    def on_charge(self, stage, us):
        pass

    def on_count(self, name, amount):
        pass


def _summed_read_time(stats):
    # ``sum(stage_us.get(s, 0.0) for s in READ_STAGES)`` spelled as the
    # plain left-to-right additions it was up to Python 3.11; 3.12's
    # ``sum`` compensates and may round the last bit differently.
    total = 0
    for stage in READ_STAGES:
        total = total + stats.stage_us.get(stage, 0.0)
    return total


_CHARGES = st.lists(
    st.tuples(st.sampled_from(list(Stage)),
              st.floats(min_value=0.0, max_value=1e7, allow_nan=False)),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("charge"), _CHARGES),
    st.tuples(st.just("merge"), _CHARGES),
    st.tuples(st.just("reset"), st.just([]))), max_size=12))
def test_read_time_is_the_exact_sum_over_read_stages(ops):
    untraced = Stats()
    traced = Stats()
    traced.attach_tracer(_NullTracer())
    for op, charges in ops:
        for stats in (untraced, traced):
            if op == "reset":
                stats.reset()
                continue
            target = stats if op == "charge" else Stats()
            for stage, us in charges:
                target.charge(stage, us)
            if op == "merge":
                stats.merge(target)
        # Bit for bit, not approx: reports print these floats in full.
        assert untraced.read_time() == _summed_read_time(untraced)
        assert traced.read_time() == untraced.read_time()
        assert traced == untraced


def test_snapshot_delta_isolates_window():
    stats = Stats()
    stats.add(BLOCKS_READ, 10)
    stats.charge(Stage.IO, 5.0)
    snap = stats.snapshot()
    stats.add(BLOCKS_READ, 3)
    stats.charge(Stage.IO, 1.25)
    stats.charge(Stage.SEARCH, 0.5)
    delta = snap.delta(stats)
    assert delta.counter(BLOCKS_READ) == 3
    assert delta.stage_time(Stage.IO) == pytest.approx(1.25)
    assert delta.stage_time(Stage.SEARCH) == pytest.approx(0.5)
    assert delta.total_time() == pytest.approx(1.75)
    assert delta.read_time() == pytest.approx(1.75)


def test_snapshot_delta_skips_unchanged_entries():
    stats = Stats()
    stats.add(BLOCKS_READ, 10)
    snap = stats.snapshot()
    delta = snap.delta(stats)
    assert delta.counters == {}
    assert delta.stage_us == {}


def test_merge_folds_other_registry():
    a = Stats()
    b = Stats()
    a.add(BLOCKS_READ, 1)
    b.add(BLOCKS_READ, 2)
    b.charge(Stage.SCAN, 4.0)
    a.merge(b)
    assert a.get(BLOCKS_READ) == 3
    assert a.stage_time(Stage.SCAN) == pytest.approx(4.0)


def test_reset_clears_everything():
    stats = Stats()
    stats.add(BLOCKS_READ, 9)
    stats.charge(Stage.IO, 1.0)
    stats.reset()
    assert stats.total_time() == 0.0
    assert stats.get(BLOCKS_READ) == 0.0


def test_breakdown_is_sorted_by_stage_name():
    stats = Stats()
    stats.charge(Stage.SEARCH, 1.0)
    stats.charge(Stage.IO, 2.0)
    keys = list(stats.breakdown().keys())
    assert keys == sorted(keys)


def test_iter_yields_sorted_counters():
    stats = Stats()
    stats.add("z", 1)
    stats.add("a", 2)
    assert [name for name, _ in stats] == ["a", "z"]


def test_every_runtime_counter_is_registered():
    """A full workload charges only counters named in ALL_COUNTERS.

    Guards against stringly-typed drift: any call site inventing an
    ad-hoc counter name (instead of importing a constant from
    ``repro.storage.stats``) shows up here as an unregistered key.
    The workload deliberately crosses every subsystem that charges
    counters: WAL group commits, block + data caches, compression,
    level-granularity models, compaction, MultiGet coalescing, scans,
    checkpointing, recovery, and a replicated crash
    schedule that drives every ``repl.*`` series.
    """
    import random

    from repro.errors import ReproError
    from repro.lsm.db import LSMTree
    from repro.lsm.options import Granularity, small_test_options
    from repro.lsm.write_batch import WriteBatch
    from repro.service.replication import (
        HINT_QUEUE_FRAMES,
        AckPolicy,
        ReplicaGroup,
        ReplicationConfig,
    )
    from repro.storage.block_device import MemoryBlockDevice
    from repro.storage.faults import FaultPlan, FaultyBlockDevice
    from repro.storage.stats import ALL_COUNTERS

    assert ALL_COUNTERS, "counter registry must not be empty"
    charged = set()
    for granularity in (Granularity.FILE, Granularity.LEVEL):
        options = small_test_options(granularity=granularity,
                                     enable_wal=True,
                                     cache_bytes=32 * 1024,
                                     data_cache_bytes=32 * 1024)
        db = LSMTree(options)
        rng = random.Random(13)
        for i in range(300):
            db.put(rng.randrange(500), b"w%d" % i)
        batch = WriteBatch()
        for i in range(40):
            batch.put(500 + i, b"b%d" % i)
            batch.delete(rng.randrange(500))
        db.write(batch)
        db.flush()
        for _ in range(200):
            db.get(rng.randrange(600))
        db.multi_get([rng.randrange(600) for _ in range(64)])
        db.scan(rng.randrange(500), 25)
        db.checkpoint()
        device = db.device
        charged.update(db.stats.counters)
        recovered = LSMTree.reopen(options, device)
        charged.update(recovered.stats.counters)
        recovered.close()
    # Replicated phase: one crash schedule that walks the whole
    # protocol — shipping, hints, backpressure, revival, stale reads,
    # promotion with a lost suffix, resync and anti-entropy.
    config = ReplicationConfig(replication_factor=3, ack=AckPolicy.ASYNC,
                               heartbeat_interval_us=1_000.0,
                               heartbeat_timeout_us=3_000.0)
    repl_options = small_test_options()
    devices = [FaultyBlockDevice(
        MemoryBlockDevice(block_size=repl_options.block_size),
        FaultPlan(seed=40 + r)) for r in range(3)]
    group = ReplicaGroup(0, repl_options, config, devices=devices)
    for i in range(4):
        group.put(i, b"r%d" % i)
    group.tick(1_000.0)  # async ship to the followers
    devices[2].cut_power()
    for now in (2_000.0, 3_000.0, 4_000.0, 5_000.0):
        group.tick(now)  # misses accumulate; replica 2 declared dead
    for i in range(HINT_QUEUE_FRAMES):
        group.put(100 + i, b"hinted")
    with pytest.raises(ReproError):
        group.put(12, b"over the hint bound")
    devices[2].revive()
    group.tick(6_000.0)  # rejoin replays the hinted suffix
    group.put(20, b"unshipped")
    group.flush()  # reads must touch the (about to die) device
    devices[0].cut_power()
    group.get(0)  # read discovers the death, serves from a follower
    for now in (7_000.0, 8_000.0, 9_000.0, 10_000.0, 11_000.0):
        group.tick(now)  # promotion; the unshipped frame is lost
    devices[0].revive()
    group.tick(12_000.0)  # diverged old primary resyncs
    follower = next(replica for replica in group.replicas
                    if replica.index != group.primary_index)
    follower.tree.put(999, b"drift")
    group.anti_entropy()
    charged.update(group.stats.counters)
    group.close()
    repl_series = {name for name in ALL_COUNTERS if name.startswith("repl.")}
    uncharged = repl_series - charged
    assert not uncharged, f"repl.* series never charged: {uncharged}"
    unregistered = charged - ALL_COUNTERS
    assert not unregistered, f"unregistered counter names: {unregistered}"
