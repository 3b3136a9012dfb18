"""ReplicaGroup: log shipping, failover, hints, staleness, repair."""

import pytest

from repro.errors import (
    HintQueueFullError,
    InvalidOptionError,
    ReadOnlyModeError,
    ReplicaUnavailableError,
    ReproError,
)
from repro.lsm.options import small_test_options
from repro.lsm.sstable import FOOTER_BYTES
from repro.lsm.write_batch import WriteBatch
from repro.service.gateway import Gateway, GatewayConfig
from repro.service.replication import (
    FAILOVER_OP,
    HINT_QUEUE_FRAMES,
    MAX_STALENESS_FRAMES,
    AckPolicy,
    ReplicaGroup,
    ReplicationConfig,
)
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    REPL_BACKPRESSURE,
    REPL_CATCHUP_FRAMES,
    REPL_FRAMES_LOST,
    REPL_FRAMES_SHIPPED,
    REPL_HINTS_QUEUED,
    REPL_HINTS_REPLAYED,
    REPL_PROMOTIONS,
    REPL_RECORDS_LOST,
    REPL_RESYNCS,
    REPL_STALE_READS,
)

HEARTBEAT_US = 1_000.0
TIMEOUT_US = 3_000.0


def _config(**overrides):
    knobs = dict(replication_factor=3, ack=AckPolicy.QUORUM,
                 heartbeat_interval_us=HEARTBEAT_US,
                 heartbeat_timeout_us=TIMEOUT_US)
    knobs.update(overrides)
    return ReplicationConfig(**knobs)


def _group(config=None, seed=7):
    config = config if config is not None else _config()
    options = small_test_options()
    devices = [
        FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                          FaultPlan(seed=seed + r))
        for r in range(config.replication_factor)]
    return ReplicaGroup(0, options, config, devices=devices), devices


def _tick_past_timeout(group, rounds=6):
    """Advance the detector far enough to declare a dead replica dead."""
    now = group.clock.now_us
    for _ in range(rounds):
        now += HEARTBEAT_US
        group.tick(now)
    return now


# -- config / construction ---------------------------------------------


def test_acks_needed_per_policy():
    assert AckPolicy.ASYNC.acks_needed(3) == 1
    assert AckPolicy.QUORUM.acks_needed(1) == 1
    assert AckPolicy.QUORUM.acks_needed(3) == 2
    assert AckPolicy.QUORUM.acks_needed(5) == 3
    assert AckPolicy.ALL.acks_needed(3) == 3


@pytest.mark.parametrize("overrides", [
    dict(replication_factor=0),
    dict(heartbeat_interval_us=0.0),
    dict(heartbeat_timeout_us=HEARTBEAT_US / 2),
])
def test_config_validation_rejects_bad_knobs(overrides):
    with pytest.raises(InvalidOptionError):
        _config(**overrides).validate()


def test_group_forces_wal_on():
    # A replica's durability promise (acked frames survive its own
    # power cut) rests on its WAL; the group must not honor the
    # paper's WAL-off default.
    options = small_test_options()
    assert not options.enable_wal
    group = ReplicaGroup(0, options, _config())
    assert group.options.enable_wal
    assert all(replica.tree.options.enable_wal
               for replica in group.replicas)
    group.close()


def test_device_count_must_match_factor():
    options = small_test_options()
    with pytest.raises(InvalidOptionError):
        ReplicaGroup(0, options, _config(),
                     devices=[MemoryBlockDevice(
                         block_size=options.block_size)])


# -- log shipping ------------------------------------------------------


def test_quorum_writes_apply_on_every_live_replica():
    group, _ = _group()
    for i in range(20):
        group.put(i, b"v%d" % i)
    for replica in group.replicas:
        for i in range(20):
            assert replica.tree.get(i) == b"v%d" % i
    assert group.stats.get(REPL_FRAMES_SHIPPED) == 40  # 20 frames x 2
    group.close()


def test_async_followers_catch_up_at_the_tick():
    group, _ = _group(_config(ack=AckPolicy.ASYNC))
    for i in range(5):
        group.put(i, b"v%d" % i)
    # Acked on the primary alone; followers have nothing yet.
    followers = [r for r in group.replicas if r.index != group.primary_index]
    assert all(r.applied_lsn == 0 for r in followers)
    group.tick(HEARTBEAT_US)
    assert all(r.applied_lsn == group.last_lsn() for r in followers)
    assert followers[0].tree.get(3) == b"v3"
    group.close()


def test_write_batch_is_one_frame():
    group, _ = _group()
    batch = WriteBatch()
    batch.put(1, b"a")
    batch.put(2, b"b")
    batch.delete(3)
    group.write(batch)
    assert group.last_lsn() == 1
    for replica in group.replicas:
        assert replica.tree.get(1) == b"a"
        assert replica.tree.get(2) == b"b"
    group.close()


def test_retained_frames_are_truncated_once_everyone_applied():
    group, _ = _group()
    for i in range(10):
        group.put(i, b"x")
    # Inline quorum shipping caught every replica up; nothing retained.
    assert not group._frames
    group.close()


# -- failover ----------------------------------------------------------


def test_primary_power_cut_promotes_most_caught_up_follower():
    group, devices = _group()
    for i in range(10):
        group.put(i, b"v%d" % i)
    devices[0].cut_power()
    with pytest.raises(ReproError):
        group.put(99, b"lost")
    _tick_past_timeout(group)
    assert group.primary_index is not None and group.primary_index != 0
    assert group.stats.get(REPL_PROMOTIONS) == 1
    hist = group.registry.histograms.get(FAILOVER_OP)
    assert hist is not None and hist.count == 1
    # Writes resume through the new primary and replicate.
    group.put(99, b"back")
    assert group.get(99) == b"back"
    assert group.get(7) == b"v7"
    group.close()


def test_async_unshipped_suffix_is_truncated_and_counted_lost():
    group, devices = _group(_config(ack=AckPolicy.ASYNC))
    group.put(1, b"shipped")
    group.tick(HEARTBEAT_US)  # frame 1 reaches the followers
    group.put(2, b"doomed")
    group.put(3, b"doomed")
    devices[0].cut_power()
    _tick_past_timeout(group)
    assert group.stats.get(REPL_FRAMES_LOST) == 2
    assert group.stats.get(REPL_RECORDS_LOST) == 2
    assert group.get(1) == b"shipped"
    assert group.get(2) is None and group.get(3) is None
    # The log head rewound to the survivor's history.
    assert group.last_lsn() == 1
    group.close()


def test_headless_group_refuses_writes_with_reason():
    group, devices = _group(_config(replication_factor=1))
    devices[0].cut_power()
    with pytest.raises(ReproError):
        group.put(1, b"x")
    _tick_past_timeout(group)
    assert group.read_only
    assert "headless" in (group.read_only_reason or "")
    with pytest.raises(ReadOnlyModeError):
        group.put(1, b"x")
    group.close()


# -- hinted handoff ----------------------------------------------------


def test_dead_follower_accumulates_hints_and_replays_on_revive():
    group, devices = _group()
    group.put(0, b"seed")
    devices[2].cut_power()
    _tick_past_timeout(group)  # declare replica 2 dead
    for i in range(1, 6):
        group.put(i, b"v%d" % i)  # quorum holds: primary + replica 1
    assert group.stats.get(REPL_HINTS_QUEUED) == 5
    assert group.lag_frames(group.replicas[2]) == 5
    devices[2].revive()
    _tick_past_timeout(group)
    assert group.stats.get(REPL_HINTS_REPLAYED) == 5
    assert group.stats.get(REPL_CATCHUP_FRAMES) == 5
    assert group.replicas[2].applied_lsn == group.last_lsn()
    assert group.replicas[2].tree.get(5) == b"v5"
    group.close()


def test_rejoin_with_nothing_missed_adds_no_catchup_counters():
    group, devices = _group()
    group.put(0, b"seed")
    devices[2].cut_power()
    _tick_past_timeout(group)  # declare replica 2 dead; no writes follow
    devices[2].revive()
    _tick_past_timeout(group)
    assert group.replicas[2].alive
    assert group.replicas[2].applied_lsn == group.last_lsn()
    assert REPL_HINTS_REPLAYED not in group.stats.counters
    assert REPL_CATCHUP_FRAMES not in group.stats.counters
    group.close()


def test_hint_queue_bound_backpressures_writes_all_or_nothing():
    group, devices = _group()
    devices[2].cut_power()
    _tick_past_timeout(group)
    for i in range(HINT_QUEUE_FRAMES):
        group.put(i, b"ok")
    assert group.lag_frames(group.replicas[2]) == HINT_QUEUE_FRAMES
    assert group.stats.get(REPL_BACKPRESSURE) == 0
    with pytest.raises(HintQueueFullError):
        group.put(HINT_QUEUE_FRAMES + 77, b"rejected")
    assert group.stats.get(REPL_BACKPRESSURE) == 1
    # All-or-nothing: the rejected write never touched the primary.
    assert group.get(HINT_QUEUE_FRAMES + 77) is None
    assert group.last_lsn() == HINT_QUEUE_FRAMES
    group.close()


# -- bounded-staleness follower reads ----------------------------------


def test_reads_fail_over_to_a_fresh_follower_within_the_bound():
    group, devices = _group()
    for i in range(8):
        group.put(i, b"v%d" % i)
    # Flush so reads must touch the device (a memtable read would let
    # the dead primary keep "serving" without noticing its disk).
    group.flush()
    devices[0].cut_power()
    # No tick yet: the group has not noticed.  The read discovers the
    # dead primary and falls to a caught-up follower.
    assert group.get(4) == b"v4"
    assert group.stats.get(REPL_STALE_READS) >= 1
    group.close()


def _headless_read(lag):
    """Read key 0 once the primary dies with followers ``lag`` behind."""
    group, devices = _group(_config(ack=AckPolicy.ASYNC))
    try:
        for i in range(lag):
            group.put(i, b"v%d" % i)  # never shipped: followers lag
        group.flush()
        devices[0].cut_power()
        return group.get(0), group.stats.get(REPL_STALE_READS)
    finally:
        group.close()


def test_reads_refused_past_the_staleness_bound():
    # At the bound a follower still serves (it has none of the writes).
    assert _headless_read(MAX_STALENESS_FRAMES) == (None, 1)
    with pytest.raises(ReplicaUnavailableError):
        _headless_read(MAX_STALENESS_FRAMES + 1)


# -- anti-entropy ------------------------------------------------------


def test_diverged_old_primary_resyncs_on_rejoin():
    group, devices = _group(_config(ack=AckPolicy.ASYNC))
    group.put(1, b"shipped")
    group.tick(HEARTBEAT_US)
    group.put(2, b"unshipped")  # applied on the primary alone
    devices[0].cut_power()
    _tick_past_timeout(group)
    assert group.replicas[0].diverged
    new_primary = group.primary_index
    group.put(3, b"post-failover")
    devices[0].revive()
    _tick_past_timeout(group)
    assert group.stats.get(REPL_RESYNCS) == 1
    assert not group.replicas[0].diverged
    # The resynced replica matches the new primary's live view: the
    # disowned write is gone, the surviving history is present.
    assert group.replicas[0].tree.get(2) is None
    assert group.replicas[0].tree.get(3) == b"post-failover"
    assert group.primary_index == new_primary
    group.close()


def test_follower_with_a_rotted_table_rejoins_degraded():
    group, devices = _group()
    for i in range(300):
        group.put(i, b"v%d" % i)
    group.flush()
    follower = group.replicas[2]
    _, meta = follower.tree.version.all_files()[0]
    name = meta.table.name
    raw = bytearray(devices[2].pread(name, 0, devices[2].size(name)))
    raw[-FOOTER_BYTES // 2] ^= 0xFF  # rot the footer
    devices[2].create(name)
    devices[2].append(name, bytes(raw))
    devices[2].cut_power()
    now = _tick_past_timeout(group)
    assert not follower.alive
    devices[2].revive()
    group.tick(now + HEARTBEAT_US)  # restart reopens from the device
    assert follower.alive
    health = follower.tree.health()
    assert health["status"] == "degraded"
    assert health["quarantined_tables"] == 1
    group.anti_entropy()
    assert all(follower.tree.get(i) == b"v%d" % i for i in range(300))
    group.close()


def test_anti_entropy_rewrites_a_drifted_follower():
    group, _ = _group()
    for i in range(5):
        group.put(i, b"v%d" % i)
    # Perturb one follower behind the protocol's back (healed medium,
    # long-truncated hints): an extra key and a clobbered value.
    follower = group.replicas[2]
    follower.tree.put(999, b"ghost")
    follower.tree.put(3, b"stale")
    group.anti_entropy()
    assert follower.tree.get(999) is None
    assert follower.tree.get(3) == b"v3"
    group.close()


# -- facade / introspection --------------------------------------------


def _assert_replication_view(replication, lags):
    """The one schema for roles and lag: ``health()["replication"]``."""
    assert replication["primary"] == 0
    replicas = replication["replicas"]
    assert [entry["role"] for entry in replicas] \
        == ["primary", "follower", "follower"]
    assert sum(entry["alive"] for entry in replicas) == 3
    assert [entry["lag_frames"] for entry in replicas] == lags


def test_replication_summary_reports_roles_and_lag():
    group, devices = _group(_config(ack=AckPolicy.ASYNC))
    for i in range(4):
        group.put(i, b"x")
    _assert_replication_view(group.health()["replication"], [0, 4, 4])
    group.close()


def test_sharded_db_routes_through_replica_groups():
    config = _config()
    db = ShardedDB(num_shards=2, options=small_test_options(),
                   replication=config, observe=False)
    for i in range(40):
        db.put(i, b"v%d" % i)
    for i in range(40):
        assert db.get(i) == b"v%d" % i
    health = db.health()
    assert health["status"] == "ok"
    for shard_health in health["shards"]:
        roles = [entry["role"]
                 for entry in shard_health["replication"]["replicas"]]
        assert roles.count("primary") == 1
    db.close()


def test_gateway_health_surfaces_replica_roles_and_lag():
    db = ShardedDB(num_shards=2, options=small_test_options(),
                   replication=_config(), observe=False)
    gateway = Gateway(db, GatewayConfig())
    batch = WriteBatch()
    batch.put(5, b"x")
    gateway.write(batch)
    for entry in db.health()["shards"]:
        assert entry["breaker"] == "closed"
        _assert_replication_view(entry["replication"], [0, 0, 0])
    db.close()


# -- regression: breaker closes after follower promotion ---------------


def test_breaker_reopens_after_follower_promotion():
    """A force-opened breaker on a headless shard must close again.

    Regression for the failover/overload interaction: the breaker
    opens while the shard is primary-less, and the half-open probe
    after the cooldown must find the promoted follower and close.
    """
    options = small_test_options()
    devices = [
        [FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                           FaultPlan(seed=31 + shard * 97 + r))
         for r in range(3)]
        for shard in range(2)]
    db = ShardedDB(num_shards=2, options=options, devices=devices,
                   replication=_config(), observe=False)
    gateway = Gateway(db, GatewayConfig(breaker_cooldown_us=10_000.0))
    key0 = next(k for k in range(200) if db.shard_for(k) == 0)
    batch = WriteBatch()
    batch.put(key0, b"before")
    gateway.write(batch)
    devices[0][db.shards[0].primary_index].cut_power()
    # First write discovers the death (and trips the breaker); second
    # fails fast against the open breaker.
    for _ in range(2):
        with pytest.raises(ReproError):
            gateway.write(batch)
    assert gateway.breakers[0].state != "closed"
    now = gateway.clock.now_us
    for _ in range(6):
        now += HEARTBEAT_US
        db.tick(now)
    gateway.clock.advance_to(now + 20_000.0)
    landed = None
    for attempt in range(3):
        retry = WriteBatch()
        payload = b"after-%d" % attempt
        retry.put(key0, payload)
        try:
            gateway.write(retry)
            landed = payload
        except ReproError:
            pass
    assert gateway.breakers[0].state == "closed"
    assert landed is not None and db.get(key0) == landed
    db.close()


# -- durability fuzz: power cut at every WAL byte offset ---------------


@pytest.mark.faults
def test_power_cut_fuzz_at_every_wal_byte_offset():
    """Cut the primary at every WAL-frame byte offset; nothing acked dies.

    For each byte the primary's WAL stream grows by during the
    workload, run the identical schedule with a power cut budgeted at
    exactly that offset, fail over, and check both durability claims:
    every acknowledged batch survives promotion intact, and every
    unacknowledged batch is all-or-nothing on the survivors.
    """
    options = small_test_options()
    n_batches = 8

    def workload(group):
        acked = []
        rejected = []
        for i in range(n_batches):
            batch = WriteBatch()
            keys = [1_000 + 3 * i, 1_001 + 3 * i, 1_002 + 3 * i]
            for key in keys:
                batch.put(key, b"b%d" % i)
            try:
                group.write(batch)
            except ReproError:
                rejected.append((keys, b"b%d" % i))
            else:
                acked.append((keys, b"b%d" % i))
        return acked, rejected

    # Baseline run: measure where the workload's WAL bytes start/end.
    group, devices = _group(seed=1_000)
    init_bytes = devices[0]._appended
    workload(group)
    total_bytes = devices[0]._appended
    group.close()
    assert total_bytes > init_bytes

    for offset in range(init_bytes, total_bytes):
        config = _config()
        clean = [
            FaultyBlockDevice(
                MemoryBlockDevice(block_size=options.block_size),
                FaultPlan(seed=2_000 + r))
            for r in range(1, 3)]
        primary_device = FaultyBlockDevice(
            MemoryBlockDevice(block_size=options.block_size),
            FaultPlan(seed=2_000, power_cut_after_bytes=offset))
        group = ReplicaGroup(0, options, config,
                             devices=[primary_device] + clean)
        acked, rejected = workload(group)
        _tick_past_timeout(group)
        assert group.primary_index != 0, f"no failover at offset {offset}"
        for keys, value in acked:
            for key in keys:
                assert group.get(key) == value, \
                    f"acked key {key} lost at offset {offset}"
        for keys, _ in rejected:
            present = [group.get(key) is not None for key in keys]
            assert all(present) or not any(present), \
                f"torn batch {keys} at offset {offset}"
        group.close()
