"""One conformance suite for every :class:`repro.kv.KVStore`.

Runs the contract stated in ``repro/kv.py`` against a single tree, a
replica group, a sharded fleet and a replicated sharded fleet, plus the
cases a :class:`Gateway` in front of a replicated fleet supports
(``get``/``multi_get``/``write``).  Every call goes through
:func:`_call`, which fails the test when an error is outside the
method's declared :data:`~repro.kv.RAISES` taxonomy.
"""

import collections
import random

import pytest

from repro.errors import (
    CircuitOpenError,
    DatabaseClosedError,
    InvalidOptionError,
    QuarantinedBlockError,
    ReadOnlyModeError,
    ReproError,
)
from repro.kv import HEALTH_STATUSES, RAISES, KVStore, VirtualClock
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.lsm.sstable import FOOTER_BYTES, HEADER_BYTES
from repro.lsm.write_batch import WriteBatch
from repro.service.gateway import Gateway
from repro.service.replication import ReplicaGroup, ReplicationConfig
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import QUARANTINED_TABLES

STORES = ("tree", "group", "sharded", "replicated")
KINDS = STORES + ("gateway",)
KEYS = list(range(600))
SHARDS = 2
REPLICAS = 3


def _value(key):
    return b"v%d" % key


def _device(options, seed):
    return FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                             FaultPlan(seed=seed))


def _build(kind, **overrides):
    """The KVStore of ``kind`` (a gateway fronts a replicated fleet)."""
    options = small_test_options(cache_bytes=0, data_cache_bytes=0,
                                 **overrides)
    if kind == "tree":
        return LSMTree(options, device=_device(options, 1))
    if kind == "group":
        return ReplicaGroup(0, options, ReplicationConfig(),
                            devices=[_device(options, r)
                                     for r in range(REPLICAS)])
    if kind == "sharded":
        return ShardedDB(SHARDS, options, observe=False,
                         devices=[_device(options, s) for s in range(SHARDS)])
    return ShardedDB(SHARDS, options, observe=False,
                     replication=ReplicationConfig(),
                     devices=[[_device(options, SHARDS * s + r)
                               for r in range(REPLICAS)]
                              for s in range(SHARDS)])


class Case:
    """One store under test: ``store`` is called, ``db`` is beneath it."""

    def __init__(self, kind, loaded=False, **overrides):
        self.db = _build(kind, **overrides)
        if loaded:
            self.db.bulk_ingest(KEYS, value_for=_value)
        self.store = Gateway(self.db) if kind == "gateway" else self.db

    def serving_tree(self):
        """The tree serving the first shard's reads (rot and wounds go
        here)."""
        return _serving_trees(self.db)[0]


def _serving_trees(db):
    if isinstance(db, LSMTree):
        return [db]
    if isinstance(db, ReplicaGroup):
        return [db.replicas[db.primary_index].tree]
    return [tree for shard in db.shards for tree in _serving_trees(shard)]


def _rot_first_block(tree):
    _, meta = tree.version.all_files()[0]
    tree.device.inject_rot(meta.table.name,
                           meta.table.handles[0][1] // tree.device.block_size)


def _quarantined_keys(db):
    """Trip every quarantine; return the keys whose lookups now fail."""
    failing = set()
    for key in KEYS:
        try:
            _call(db, "get", key)
        except QuarantinedBlockError:
            failing.add(key)
    return failing


def _call(store, method, *args, **kwargs):
    """Call ``method``; any error must be in ``RAISES[method]``."""
    try:
        return getattr(store, method)(*args, **kwargs)
    except ReproError as exc:
        assert isinstance(exc, RAISES[method]), \
            f"{type(store).__name__}.{method} raised undeclared {exc!r}"
        raise


# -- the contract itself ---------------------------------------------------


def test_virtual_clock_is_monotone():
    clock = VirtualClock()
    clock.advance_to(10.0)
    clock.advance_to(5.0)
    assert clock.now_us == 10.0


def test_raises_covers_every_method_with_repro_errors():
    methods = {name for name in vars(KVStore)
               if not name.startswith("_") and callable(vars(KVStore)[name])}
    assert set(RAISES) == methods
    for errors in RAISES.values():
        assert all(issubclass(error, ReproError) for error in errors)


@pytest.mark.parametrize("kind", STORES)
def test_every_store_is_a_kvstore(kind):
    case = Case(kind)
    assert isinstance(case.store, KVStore)
    case.db.close()


# -- behaviour, one suite over every store -----------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_read_your_writes_including_deletes(kind):
    case = Case(kind)
    store = case.store
    batch = WriteBatch()
    for key in range(40):
        batch.put(key, _value(key))
    for key in range(0, 40, 4):
        batch.delete(key)
    assert _call(store, "write", batch) == 50
    expected = [None if key % 4 == 0 else _value(key) for key in range(40)]
    assert [_call(store, "get", key) for key in range(40)] == expected
    assert _call(store, "multi_get", list(range(40)) + [7, 7, 8]) \
        == expected + [_value(7), _value(7), None]
    if kind != "gateway":
        _call(store, "put", 1, b"overwritten")
        _call(store, "delete", 2)
        _call(store, "flush")
        assert _call(store, "get", 1) == b"overwritten"
        assert _call(store, "get", 2) is None
        assert _call(store, "multi_get", [1, 2, 5]) \
            == [b"overwritten", None, _value(5)]
    case.db.close()


@pytest.mark.parametrize("kind", KINDS)
def test_a_refused_batch_applies_nothing(kind):
    case = Case(kind)
    batch = WriteBatch()
    for key in range(20):
        batch.put(key, b"ok")
    batch.put(20, b"x" * (case.db.options.value_capacity + 1))
    with pytest.raises(InvalidOptionError):
        _call(case.store, "write", batch)
    # A read-only shard refuses the batch before any shard commits.
    case.serving_tree()._enter_read_only("contract: wounded shard")
    good = WriteBatch()
    for key in range(20):
        good.put(key, b"ok")
    with pytest.raises((ReadOnlyModeError, CircuitOpenError)):
        _call(case.store, "write", good)
    assert [case.db.get(key) for key in range(21)] == [None] * 21
    case.db.close()


@pytest.mark.parametrize("wal", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_out_of_range_keys_are_refused_before_anything_applies(kind, wal):
    case = Case(kind, enable_wal=wal)
    for key in (-1, 2**64):
        batch = WriteBatch()
        batch.put(1, b"ok")
        batch.put(key, b"x")
        with pytest.raises(InvalidOptionError):
            _call(case.store, "write", batch)
        if kind != "gateway":
            with pytest.raises(InvalidOptionError):
                _call(case.store, "put", key, b"x")
            with pytest.raises(InvalidOptionError):
                _call(case.store, "delete", key)
    # Nothing was applied: the store still flushes, serves and is ok.
    _call(case.db, "flush")
    assert _call(case.store, "get", 1) is None
    assert _call(case.db, "health")["status"] == "ok"
    case.db.close()


def _all_trees(db):
    """Every tree under ``db``, followers included."""
    if isinstance(db, LSMTree):
        return [db]
    if isinstance(db, ReplicaGroup):
        return [replica.tree for replica in db.replicas]
    return [tree for shard in db.shards for tree in _all_trees(shard)]


def _table_files(db):
    return [name for tree in _all_trees(db)
            for name in tree.device.list_files() if name.startswith("sst-")]


def _oversized_last(key):
    """``_value``, but one byte over capacity for the largest key."""
    if key == KEYS[-1]:
        return b"x" * (small_test_options().value_capacity + 1)
    return _value(key)


@pytest.mark.parametrize("bad,value_for", [
    (KEYS + [KEYS[-1]], _value),
    (KEYS[:300] + [KEYS[5]] + KEYS[300:], _value),
    (KEYS + [2**64], _value),
    ([-1] + KEYS, _value),
    (KEYS, _oversized_last),
], ids=["duplicate-last", "duplicate-inside", "too-large", "negative",
        "oversized-value"])
@pytest.mark.parametrize("kind", STORES)
def test_bulk_ingest_is_all_or_nothing(kind, bad, value_for):
    case = Case(kind)
    with pytest.raises(InvalidOptionError):
        case.db.bulk_ingest(bad, value_for=value_for)
    assert _table_files(case.db) == []
    # Nothing was committed, so a retry loads good keys in any order.
    case.db.bulk_ingest(random.Random(7).sample(KEYS, len(KEYS)),
                        value_for=_value)
    assert _table_files(case.db)
    assert [case.db.get(key) for key in KEYS] == [_value(key) for key in KEYS]
    assert case.db.health()["status"] == "ok"
    case.db.close()


@pytest.mark.parametrize("kind", STORES)
def test_bulk_ingest_checks_once_and_builds_once_per_copy(kind):
    case = Case(kind)
    calls = collections.Counter()

    def value_for(key):
        calls[key] += 1
        return _value(key)

    case.db.bulk_ingest(KEYS, value_for=value_for)
    copies = REPLICAS if kind in ("group", "replicated") else 1
    assert set(calls) == set(KEYS)
    assert set(calls.values()) == {1 + copies}
    case.db.close()


@pytest.mark.parametrize("kind", STORES)
def test_bulk_ingest_refuses_a_non_empty_store(kind):
    case = Case(kind)
    case.db.put(KEYS[-1], b"x")
    with pytest.raises(InvalidOptionError):
        case.db.bulk_ingest(KEYS[:-1], value_for=_value)
    assert _table_files(case.db) == []
    case.db.close()


@pytest.mark.parametrize("kind", STORES)
def test_scan_returns_live_entries_in_key_order(kind):
    store = Case(kind).store
    keys = random.Random(5).sample(range(1000), 60)
    for key in keys:
        _call(store, "put", key, _value(key))
    for key in keys[:10]:
        _call(store, "delete", key)
    live = sorted(keys[10:])
    assert _call(store, "scan", 0, 1000) == [(k, _value(k)) for k in live]
    assert _call(store, "scan", live[5], 3) \
        == [(k, _value(k)) for k in live[5:8]]
    store.close()


@pytest.mark.parametrize("kind", KINDS)
def test_multi_get_errors_isolate_the_failing_keys(kind):
    case = Case(kind, loaded=True)
    _rot_first_block(case.serving_tree())
    failing = _quarantined_keys(case.db)
    assert failing and len(failing) < len(KEYS)
    errors = {}
    values = _call(case.store, "multi_get", KEYS, errors=errors)
    assert set(errors) == failing
    for key, value in zip(KEYS, values):
        if key in failing:
            assert isinstance(value, QuarantinedBlockError)
        else:
            assert value == _value(key)
    # Without ``errors`` the first failing key fails the whole call.
    with pytest.raises(QuarantinedBlockError):
        _call(case.store, "multi_get", KEYS)
    case.db.close()


@pytest.mark.parametrize("kind", STORES)
def test_health_status_vocabulary(kind):
    case = Case(kind, loaded=True)
    statuses = [_call(case.store, "health")["status"]]
    _rot_first_block(case.serving_tree())
    _quarantined_keys(case.db)
    statuses.append(_call(case.store, "health")["status"])
    case.serving_tree()._enter_read_only("contract: wounded shard")
    statuses.append(_call(case.store, "health")["status"])
    assert statuses == ["ok", "degraded", "read_only"]
    assert set(statuses) <= set(HEALTH_STATUSES)
    case.db.close()


@pytest.mark.parametrize("kind", KINDS)
def test_close_is_idempotent_and_every_later_call_raises(kind):
    case = Case(kind)
    batch = WriteBatch()
    batch.put(1, b"x")
    _call(case.store, "write", batch)
    _call(case.db, "close")
    _call(case.db, "close")
    calls = [("get", (1,)), ("multi_get", ([1, 2],)), ("write", (batch,)),
             ("write", (WriteBatch(),))]
    if kind != "gateway":
        calls += [("put", (1, b"y")), ("delete", (1,)), ("multi_get", ([],)),
                  ("scan", (0, 5)), ("flush", ()), ("health", ())]
    for method, args in calls:
        with pytest.raises(DatabaseClosedError):
            _call(case.store, method, *args)


@pytest.mark.parametrize("kind", STORES)
def test_close_keeps_what_was_committed(kind):
    case = Case(kind, loaded=True)
    written = list(range(1000, 1100))
    for key in written:
        _call(case.db, "put", key, _value(key))
    _call(case.db, "flush")
    _call(case.db, "close")
    acked = KEYS + written
    if kind == "sharded":
        reopened = [(ShardedDB.reopen(
            SHARDS, case.db.options,
            [shard.device for shard in case.db.shards], observe=False),
            acked)]
    else:
        # Every replica's tree reopens from its own device alone.
        groups = case.db.shards if kind == "replicated" else [case.db]
        reopened = [
            (LSMTree.reopen(tree.options, tree.device),
             [key for key in acked
              if kind != "replicated" or case.db.router.shard_for(key) == s])
            for s, group in enumerate(groups)
            for tree in _all_trees(group)]
    for store, keys in reopened:
        assert _call(store, "health")["status"] == "ok"
        assert [_call(store, "get", key) for key in keys] \
            == [_value(key) for key in keys]
        store.close()


# -- a committed table that cannot open --------------------------------------

REGIONS = ("footer", "header", "block_index", "index", "bloom")


def _rot_table_region(tree, region):
    """Flip one byte inside ``region`` of a committed table of ``tree``;
    return the keys that table holds."""
    files = tree.version.all_files()
    table = files[len(files) // 2][1].table
    footer = table.footer
    assert footer.index_len, "the table must embed a learned index"
    size = tree.device.size(table.name)
    offset = {
        "footer": size - FOOTER_BYTES // 2,
        "header": HEADER_BYTES // 2,
        "block_index": footer.block_index_offset + footer.block_index_len // 2,
        "index": footer.index_offset + footer.index_len // 2,
        "bloom": footer.bloom_offset + footer.bloom_len // 2,
    }[region]
    keys = set(table.load_keys())
    raw = bytearray(tree.device.pread(table.name, 0, size))
    raw[offset] ^= 0xFF
    tree.device.create(table.name)
    tree.device.append(table.name, bytes(raw))
    return keys


def _assert_quarantined_one_table(tree):
    health = _call(tree, "health")
    assert health["status"] == "degraded"
    assert health["quarantined_tables"] == 1
    assert tree.stats.get(QUARANTINED_TABLES) == health["quarantined_tables"]


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("kind", ["tree", "sharded"])
def test_reopen_quarantines_a_table_that_cannot_open(kind, region):
    case = Case(kind, loaded=True)
    lost = _rot_table_region(case.serving_tree(), region)
    if kind == "tree":
        reopened = LSMTree.reopen(case.db.options, case.db.device)
        tree = reopened
    else:
        reopened = ShardedDB.reopen(
            SHARDS, case.db.options,
            [shard.device for shard in case.db.shards], observe=False)
        tree = reopened.shards[0]
    _assert_quarantined_one_table(tree)
    assert _call(reopened, "health")["status"] == "degraded"
    for key in KEYS:
        want = None if key in lost else _value(key)
        assert _call(reopened, "get", key) == want, key
    reopened.close()


def test_a_later_reopen_remembers_the_quarantine():
    case = Case("tree", loaded=True)
    _rot_table_region(case.serving_tree(), "footer")
    device, options = case.db.device, case.db.options
    _assert_quarantined_one_table(LSMTree.reopen(options, device))
    # The next restart quarantines nothing, but the set-aside file is
    # still on the device: the tree is still degraded.
    again = LSMTree.reopen(options, device)
    health = _call(again, "health")
    assert (health["status"], health["quarantined_tables"]) == ("degraded", 1)
    assert again.stats.get(QUARANTINED_TABLES) == 0
    # Removing the file is what clears it.
    [quarantined] = [name for name in device.list_files()
                     if name.startswith("quar-")]
    device.delete(quarantined)
    assert _call(LSMTree.reopen(options, device), "health")["status"] == "ok"


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("kind", ["group", "replicated"])
def test_follower_restart_quarantines_and_anti_entropy_refills(kind, region):
    case = Case(kind, loaded=True)
    group = case.db if kind == "group" else case.db.shards[0]
    follower = next(replica for replica in group.replicas
                    if replica.index != group.primary_index)
    lost = _rot_table_region(follower.tree, region)
    # Power cut until the detector declares the follower dead, then
    # revive: the next probe restarts it from its device.
    follower.device.cut_power()
    interval = ReplicationConfig().heartbeat_interval_us
    now = group.clock.now_us
    while follower.alive:
        now += interval
        case.db.tick(now)
    follower.device.revive()
    case.db.tick(now + interval)
    assert follower.alive
    _assert_quarantined_one_table(follower.tree)
    assert lost and all(follower.tree.get(key) is None for key in lost)
    case.db.anti_entropy()
    owned = [key for key in KEYS
             if kind == "group" or case.db.router.shard_for(key) == 0]
    assert all(follower.tree.get(key) == _value(key) for key in owned)
    for key in KEYS:
        assert _call(case.store, "get", key) == _value(key), key
    case.db.close()
