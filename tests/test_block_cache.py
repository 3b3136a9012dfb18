"""Tests for the LRU block cache and its device decorator."""

import random

import pytest

from repro.errors import StorageError
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.storage.block_cache import CachedBlockDevice, LRUBlockCache
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import (
    BLOCKS_READ,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    READ_CALLS,
    Stage,
    Stats,
)

BS = 64


def _device(capacity_blocks=4, nblocks=16):
    inner = MemoryBlockDevice(block_size=BS)
    inner.create("f")
    inner.append("f", bytes(range(256))[:BS] * nblocks)
    cached = CachedBlockDevice(inner, capacity_blocks * BS)
    cached.stats = Stats()  # fresh registry, ignore the fill traffic
    return cached, inner


# -- LRUBlockCache ------------------------------------------------------

def test_lru_eviction_order():
    cache = LRUBlockCache(3 * BS, BS)
    for index in range(3):
        cache.put("f", index, b"x" * BS)
    cache.get("f", 0)  # 0 becomes most recently used
    evicted = cache.put("f", 3, b"y" * BS)  # evicts 1, the LRU
    assert evicted == 1
    assert cache.get("f", 1) is None
    assert cache.get("f", 0) is not None
    assert cache.get("f", 3) is not None


def test_lru_invalidate_file():
    cache = LRUBlockCache(8 * BS, BS)
    cache.put("a", 0, b"x" * BS)
    cache.put("a", 1, b"x" * BS)
    cache.put("b", 0, b"x" * BS)
    assert cache.invalidate_file("a") == 2
    assert len(cache) == 1
    assert cache.get("b", 0) is not None


def test_lru_zero_capacity_drops_admissions():
    cache = LRUBlockCache(0, BS)
    assert cache.put("f", 0, b"x" * BS) == 0
    assert cache.get("f", 0) is None
    assert len(cache) == 0


def test_lru_rejects_negative_capacity():
    with pytest.raises(StorageError):
        LRUBlockCache(-1, BS)


# -- CachedBlockDevice --------------------------------------------------

def test_cached_pread_matches_inner():
    cached, inner = _device(capacity_blocks=4)
    rng = random.Random(11)
    size = inner.size("f")
    for _ in range(200):
        offset = rng.randrange(0, size + BS)
        length = rng.randrange(0, 3 * BS)
        assert cached.pread("f", offset, length) == \
            inner.pread("f", offset, length)


def test_repeated_reads_hit():
    cached, _ = _device()
    cached.pread("f", 0, BS)
    before = cached.stats.snapshot()
    cached.pread("f", 0, BS)
    delta = before.delta(cached.stats)
    assert delta.counter(CACHE_HITS) == 1
    assert delta.counter(CACHE_MISSES) == 0
    assert delta.counter(READ_CALLS) == 0  # served without touching disk


def test_miss_then_hit_accounting():
    cached, _ = _device()
    before = cached.stats.snapshot()
    cached.pread("f", 0, 2 * BS)  # two cold blocks
    cached.pread("f", 0, 2 * BS)  # both hot now
    delta = before.delta(cached.stats)
    assert delta.counter(CACHE_MISSES) == 2
    assert delta.counter(CACHE_HITS) == 2
    assert cached.stats.cache_hit_rate() == 0.5


def test_partial_hit_fetches_only_missing_run():
    cached, _ = _device(capacity_blocks=8)
    cached.pread("f", 0, BS)          # block 0 cached
    before = cached.stats.snapshot()
    data, hit_frac = cached.pread_cached("f", 0, 3 * BS)
    delta = before.delta(cached.stats)
    assert len(data) == 3 * BS
    assert hit_frac == pytest.approx(1 / 3)
    assert delta.counter(BLOCKS_READ) == 2  # only blocks 1-2 from disk


def test_eviction_counter_flows_to_stats():
    cached, _ = _device(capacity_blocks=2)
    cached.pread("f", 0, 6 * BS)
    assert cached.stats.get(CACHE_EVICTIONS) >= 4


def test_append_invalidates_partial_tail_block():
    inner = MemoryBlockDevice(block_size=BS)
    inner.create("g")
    inner.append("g", b"a" * (BS + 10))  # block 1 is partial
    cached = CachedBlockDevice(inner, 8 * BS)
    assert cached.pread("g", BS, 10) == b"a" * 10
    cached.append("g", b"b" * 10)
    assert cached.pread("g", BS, 20) == b"a" * 10 + b"b" * 10


def test_delete_invalidates_and_create_resets():
    cached, inner = _device()
    cached.pread("f", 0, BS)
    cached.delete("f")
    assert not cached.exists("f")
    cached.create("f")
    cached.append("f", b"z" * BS)
    assert cached.pread("f", 0, BS) == b"z" * BS


def test_stats_reassignment_propagates_to_inner():
    cached, inner = _device()
    fresh = Stats()
    cached.stats = fresh
    assert inner.stats is fresh


def test_read_past_eof_returns_available_suffix():
    cached, inner = _device(nblocks=1)
    assert cached.pread("f", BS - 8, 100) == inner.pread("f", BS - 8, 100)
    assert cached.pread("f", 10 * BS, 4) == b""


# -- LSMTree integration ------------------------------------------------

def _loaded_db(**overrides):
    db = LSMTree(small_test_options(**overrides))
    for i in range(400):
        db.put(i * 3 + 1, b"x%d" % i)
    db.flush()
    return db


def test_cached_db_equals_uncached_db():
    hot = _loaded_db(cache_bytes=64 * 1024)
    cold = _loaded_db()
    for i in range(400):
        assert hot.get(i * 3 + 1) == cold.get(i * 3 + 1)
    assert hot.get(2) is None
    assert hot.scan(0, 60) == cold.scan(0, 60)


def test_cache_cuts_device_blocks_and_io_time():
    hot = _loaded_db(cache_bytes=256 * 1024)
    cold = _loaded_db()
    queries = [i * 3 + 1 for i in range(0, 400, 4)] * 3

    def measure(db):
        before = db.stats.snapshot()
        for key in queries:
            db.get(key)
        delta = before.delta(db.stats)
        return delta.counter(BLOCKS_READ), delta.stage_time(Stage.IO)

    hot_blocks, hot_io = measure(hot)
    cold_blocks, cold_io = measure(cold)
    assert hot.stats.get(CACHE_HITS) > 0
    assert hot_blocks < cold_blocks
    assert hot_io < cold_io


def test_cache_survives_compaction():
    # Enough writes to force multi-level compactions; dead table files
    # must be invalidated, never served stale.
    db = LSMTree(small_test_options(cache_bytes=32 * 1024))
    for round_no in range(3):
        for i in range(500):
            db.put(i + 1, b"r%d-%d" % (round_no, i))
        db.flush()
        for i in range(0, 500, 7):
            assert db.get(i + 1) == b"r%d-%d" % (round_no, i)
    assert db.stats.get("op.compactions") >= 1
    assert db.stats.get(CACHE_MISSES) > 0


def test_reopen_honours_changed_cache_bytes():
    db = _loaded_db(cache_bytes=64 * 1024)
    db.get(1)
    # Cache disabled on reopen: the stale wrapper must be unwrapped.
    cold = LSMTree.reopen(small_test_options(), db.device)
    assert not isinstance(cold.device, CachedBlockDevice)
    # Unchanged capacity: the warm cache is kept.
    warm = LSMTree.reopen(small_test_options(cache_bytes=64 * 1024),
                          db.device)
    assert isinstance(warm.device, CachedBlockDevice)
    # Changed capacity: rewrapped with the configured size.
    resized = LSMTree.reopen(small_test_options(cache_bytes=8 * 1024),
                             db.device)
    assert isinstance(resized.device, CachedBlockDevice)
    assert resized.device.cache.capacity_bytes == 8 * 1024


def test_wal_replay_does_not_populate_cache():
    options = small_test_options(enable_wal=True, cache_bytes=64 * 1024)
    db = LSMTree(options)
    for i in range(20):
        db.put(i + 1, b"w")  # stays in the memtable + WAL (no flush)
    recovered = LSMTree.reopen(options, db.device)
    assert recovered.get(5) == b"w"
    # Replaying the log admitted nothing and counted no cache traffic.
    assert len(recovered.device.cache) == 0
    assert recovered.stats.get(CACHE_MISSES) == 0


def test_cache_bytes_option_validation():
    from repro.errors import InvalidOptionError
    with pytest.raises(InvalidOptionError):
        small_test_options(cache_bytes=-1)


# -- the decompressed data-block tier ------------------------------------


def test_data_block_cache_lru_and_byte_capacity():
    from repro.storage.block_cache import DataBlockCache
    cache = DataBlockCache(100)
    assert cache.put_run("f", 0, [b"x" * 40, b"y" * 40]) == 0
    assert cache.get("f", 0) == b"x" * 40  # touch: 0 is now MRU
    assert cache.put_run("f", 2, [b"z" * 40]) == 1  # evicts block 1 (LRU)
    assert cache.get("f", 1) is None
    assert cache.get("f", 0) is not None
    assert cache.used_bytes() == 80
    assert len(cache) == 2


def test_data_block_cache_rejects_oversized_payloads():
    from repro.storage.block_cache import DataBlockCache
    cache = DataBlockCache(10)
    assert cache.put_run("f", 0, [b"a" * 11]) == 0  # dropped, not admitted
    assert cache.get("f", 0) is None
    assert len(cache) == 0


def test_data_block_cache_replacement_updates_bytes():
    from repro.storage.block_cache import DataBlockCache
    cache = DataBlockCache(100)
    cache.put_run("f", 0, [b"a" * 60])
    cache.put_run("f", 0, [b"b" * 20])  # same key, smaller payload
    assert cache.used_bytes() == 20
    assert cache.get("f", 0) == b"b" * 20


def test_data_block_cache_file_invalidation():
    from repro.storage.block_cache import DataBlockCache
    cache = DataBlockCache(1000)
    cache.put_run("f", 0, [b"a" * 10, b"b" * 10])
    cache.put_run("g", 0, [b"c" * 10])
    assert cache.invalidate_file("f") == 2
    assert cache.get("f", 0) is None
    assert cache.get("g", 0) == b"c" * 10
    assert cache.used_bytes() == 10
    assert cache.invalidate_file("missing") == 0
    cache.clear()
    assert len(cache) == 0 and cache.used_bytes() == 0


def test_data_block_cache_rejects_negative_capacity():
    from repro.storage.block_cache import DataBlockCache
    with pytest.raises(StorageError):
        DataBlockCache(-1)


# -- quarantine: the poisoned-block regression --------------------------


def test_lru_cache_quarantine_blocks_readmission():
    cache = LRUBlockCache(capacity_bytes=1024, block_size=BS)
    cache.put("f", 3, b"x" * BS)
    cache.quarantine("f", 3)
    # Eviction is immediate and re-admission is refused: a reader that
    # re-fetches the poisoned bytes must not repopulate the cache.
    assert cache.get("f", 3) is None
    assert cache.put("f", 3, b"x" * BS) == 0
    assert cache.get("f", 3) is None
    assert cache.is_quarantined("f", 3)
    # Other blocks of the same file are unaffected.
    cache.put("f", 4, b"y" * BS)
    assert cache.get("f", 4) == b"y" * BS
    # Whole-file invalidation changes the identity and lifts the bar.
    cache.invalidate_file("f")
    assert not cache.is_quarantined("f", 3)
    cache.put("f", 3, b"z" * BS)
    assert cache.get("f", 3) == b"z" * BS


def test_data_block_cache_quarantine_blocks_readmission():
    from repro.storage.block_cache import DataBlockCache
    cache = DataBlockCache(1024)
    cache.put_run("f", 0, [b"decoded"])
    cache.quarantine("f", 0)
    assert cache.get("f", 0) is None
    assert cache.put_run("f", 0, [b"decoded"]) == 0
    assert cache.get("f", 0) is None
    assert cache.is_quarantined("f", 0)
    cache.invalidate_file("f")
    assert not cache.is_quarantined("f", 0)


def test_cached_device_quarantine_never_recaches_the_block():
    cached, inner = _device()
    stats = cached.stats
    cached.pread("f", 0, 4 * BS)  # warm blocks 0-3
    assert len(cached.cache) == 4
    cached.quarantine("f", 1)
    assert len(cached.cache) == 3
    before = stats.get(CACHE_MISSES)
    for _ in range(3):
        # The bytes still arrive (from the device), but block 1 misses
        # every time and is never re-admitted.
        assert cached.pread("f", BS, BS) == bytes(range(256))[:BS]
        assert not cached.cache.get("f", 1)
    assert stats.get(CACHE_MISSES) == before + 3
    assert len(cached.cache) == 3


def test_rename_lifts_quarantine_with_the_old_identity():
    cached, inner = _device()
    cached.pread("f", 0, BS)
    cached.quarantine("f", 0)
    cached.rename("f", "g")
    # The poison belonged to the *old* bytes under the old name; a new
    # file reusing either name starts clean.
    assert not cached.cache.is_quarantined("f", 0)
    assert not cached.cache.is_quarantined("g", 0)
    assert cached.pread("g", 0, BS) == bytes(range(256))[:BS]
    assert cached.cache.get("g", 0) is not None
