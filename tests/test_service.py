"""Tests for the serving layer: routing, ShardedDB, oracle equivalence."""

import random

import pytest

from repro.errors import InvalidOptionError
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.lsm.write_batch import WriteBatch
from repro.service.router import HashRouter, mix64
from repro.service.sharded import ShardedDB
from repro.storage.stats import UPDATES, WAL_GROUP_COMMITS
from repro.workloads.ycsb import replay, workload


# -- routing ------------------------------------------------------------

def test_mix64_is_deterministic_and_bounded():
    assert mix64(42) == mix64(42)
    assert mix64(42) != mix64(43)
    for key in (0, 1, (1 << 64) - 1, 1 << 63):
        assert 0 <= mix64(key) < (1 << 64)


def test_router_spreads_sequential_keys():
    router = HashRouter(4)
    counts = [0] * 4
    for key in range(10_000):
        shard = router.shard_for(key)
        counts[shard] += 1
    assert min(counts) > 10_000 / 4 * 0.8  # within 20% of even


def test_router_split_preserves_per_key_order():
    router = HashRouter(4)
    batch = WriteBatch().put(7, b"a").delete(7).put(7, b"b")
    parts = router.split(batch)
    assert len(parts) == 1
    (_, part), = parts.items()
    assert len(part) == 3
    kinds = [kind for kind, _, _ in part]
    assert kinds[0] == kinds[2] != kinds[1]


def test_router_rejects_zero_shards():
    with pytest.raises(InvalidOptionError):
        HashRouter(0)


# -- ShardedDB basics ---------------------------------------------------

def test_sharded_point_operations():
    db = ShardedDB(num_shards=4, options=small_test_options())
    for i in range(200):
        db.put(i, b"v%d" % i)
    assert db.get(50) == b"v50"
    db.delete(50)
    assert db.get(50) is None
    assert db.get(10_000) is None


def test_sharded_constructor_validation():
    with pytest.raises(InvalidOptionError):
        ShardedDB(num_shards=0)
    from repro.storage.block_device import MemoryBlockDevice
    with pytest.raises(InvalidOptionError):
        ShardedDB(num_shards=2, options=small_test_options(),
                  devices=[MemoryBlockDevice(block_size=256)])


def test_sharded_write_splits_into_per_shard_group_commits():
    db = ShardedDB(num_shards=4, options=small_test_options(enable_wal=True))
    batch = WriteBatch()
    for i in range(64):
        batch.put(i, b"v%d" % i)
    shards_touched = len({db.shard_for(i) for i in range(64)})
    applied = db.write(batch)
    assert applied == 64
    assert db.stats.get(WAL_GROUP_COMMITS) == shards_touched
    for i in range(64):
        assert db.get(i) == b"v%d" % i


def test_sharded_scan_merges_across_shards():
    db = ShardedDB(num_shards=4, options=small_test_options())
    keys = list(range(0, 1000, 3))
    for key in keys:
        db.put(key, b"k%d" % key)
    got = db.scan(100, 20)
    expected = [key for key in keys if key >= 100][:20]
    assert [key for key, _ in got] == expected
    assert all(value == b"k%d" % key for key, value in got)
    # Scans starting past every key return nothing.
    assert db.scan(10_000, 5) == []


def test_sharded_aggregated_introspection():
    db = ShardedDB(num_shards=3, options=small_test_options())
    for i in range(300):
        db.put(i, b"x")
    assert db.stats.get(UPDATES) == 300
    assert db.entry_count() >= 300
    breakdown = db.memory_breakdown()
    assert set(breakdown) == {"index", "bloom", "buffer"}
    assert breakdown["buffer"] == 3 * db.options.write_buffer_bytes
    assert len(db.describe_shards()) == 3
    assert db.shard_balance() >= 1.0


def test_sharded_bulk_ingest_and_balance(uniform_keys):
    keys = uniform_keys[:4000]
    db = ShardedDB(num_shards=4, options=small_test_options())
    db.bulk_ingest(keys, seed=1)
    assert db.entry_count() == len(keys)
    assert db.shard_balance() < 1.25
    start = keys[2000]
    assert [key for key, _ in db.scan(start, 50)] == keys[2000:2050]


def test_sharded_reopen_recovers_every_shard():
    options = small_test_options(enable_wal=True)
    db = ShardedDB(num_shards=3, options=options)
    batch = WriteBatch()
    for i in range(150):
        batch.put(i, b"d%d" % i)
    db.write(batch)
    db.flush()  # some data in tables ...
    batch.clear()
    for i in range(150, 180):
        batch.put(i, b"d%d" % i)
    db.write(batch)  # ... and some only in WALs
    recovered = ShardedDB.reopen(3, options, [s.device for s in db.shards])
    for i in range(180):
        assert recovered.get(i) == b"d%d" % i, i


def test_sharded_cache_hit_rate_aggregates():
    db = ShardedDB(num_shards=2,
                   options=small_test_options(cache_bytes=64 * 1024))
    for i in range(400):
        db.put(i, b"c%d" % i)
    db.flush()
    for _ in range(3):
        for i in range(0, 400, 5):
            db.get(i)
    assert db.cache_hit_rate() > 0.0


# -- oracle equivalence -------------------------------------------------

def test_sharded_matches_single_tree_oracle():
    """Property test: a random op mix agrees with one LSMTree."""
    rng = random.Random(0xD15C0)
    sharded = ShardedDB(num_shards=4, options=small_test_options())
    oracle = LSMTree(small_test_options())
    key_space = range(1, 5000)
    live = set()
    batch = WriteBatch()
    for step in range(4000):
        roll = rng.random()
        key = rng.choice(key_space)
        if roll < 0.55:
            value = b"s%d-%d" % (step, key)
            sharded.put(key, value)
            oracle.put(key, value)
            live.add(key)
        elif roll < 0.70:
            sharded.delete(key)
            oracle.delete(key)
            live.discard(key)
        elif roll < 0.85:
            assert sharded.get(key) == oracle.get(key), key
        else:
            start = rng.choice(key_space)
            count = rng.randrange(1, 40)
            assert sharded.scan(start, count) == oracle.scan(start, count)
    # Batched epilogue through both write paths.
    for key in rng.sample(list(key_space), 200):
        batch.put(key, b"final-%d" % key)
    sharded.write(batch)
    oracle.write(batch)
    for key in rng.sample(list(key_space), 500):
        assert sharded.get(key) == oracle.get(key), key
    sharded.close()
    oracle.close()


# -- workload replay ----------------------------------------------------

def test_ycsb_replay_over_sharded_db():
    keys = list(range(1, 2001))

    def value_for(key):
        return b"y%d" % key

    sharded = ShardedDB(num_shards=4, options=small_test_options())
    single = LSMTree(small_test_options())
    for key in keys:
        sharded.put(key, value_for(key))
        single.put(key, value_for(key))
    mix = workload("A", keys, seed=9)
    counts_sharded = replay(sharded, mix.operations(800), value_for)
    mix = workload("A", keys, seed=9)
    counts_single = replay(single, mix.operations(800), value_for)
    assert counts_sharded == counts_single
    assert sum(counts_sharded.values()) == 800
    for key in keys[::7]:
        assert sharded.get(key) == single.get(key), key


# -- write acknowledgment semantics under rejection ---------------------

def _fleet_snapshot(db, keys):
    """Every shard's view of ``keys`` (None for absent)."""
    return [[shard.get(key) for key in keys] for shard in db.shards]


def test_write_rejection_applies_nothing_property():
    """Property: a batch any shard would refuse mutates *no* shard.

    Random multi-shard batches against a fleet where one random shard
    is read-only: every rejected batch must leave all shards exactly
    as they were (no partial cross-shard application acknowledged),
    and once the shard heals the same batch applies everywhere.
    """
    from repro.errors import ReadOnlyModeError

    rng = random.Random(0xD15EA5E)
    for trial in range(20):
        db = ShardedDB(num_shards=4, options=small_test_options())
        preload = {key: b"old%d" % key for key in range(40)}
        for key, value in preload.items():
            db.put(key, value)
        sick = rng.randrange(4)
        db.shards[sick]._enter_read_only("fuzz: simulated media damage")
        batch = WriteBatch()
        batch_keys = rng.sample(range(200), rng.randrange(4, 24))
        touched_shards = {db.shard_for(key) for key in batch_keys}
        for key in batch_keys:
            if rng.random() < 0.8 or key not in preload:
                batch.put(key, b"new%d" % key)
            else:
                batch.delete(key)
        probe = sorted(set(batch_keys) | set(preload))
        before = _fleet_snapshot(db, probe)
        if sick in touched_shards:
            with pytest.raises(ReadOnlyModeError):
                db.write(batch)
            assert _fleet_snapshot(db, probe) == before, \
                f"trial {trial}: rejected batch partially applied"
        else:
            assert db.write(batch) == len(batch)
        # Heal and re-apply: now every record must land.
        db.shards[sick]._read_only_reason = None
        db.write(batch)
        expected = dict(preload)
        for kind, key, value in batch:
            expected[key] = value if value else None
        for key in probe:
            want = expected.get(key)
            if want == b"":
                want = None
            assert db.get(key) == want, f"trial {trial} key {key}"
        db.close()


def test_write_rejects_oversized_value_before_any_commit():
    db = ShardedDB(num_shards=4, options=small_test_options())
    cap = db.options.value_capacity
    batch = WriteBatch()
    for key in range(12):
        batch.put(key, b"ok")
    batch.put(99, b"x" * (cap + 1))
    with pytest.raises(InvalidOptionError):
        db.write(batch)
    assert all(db.get(key) is None for key in range(12)), \
        "an invalid batch must not be partially applied"
    db.close()
