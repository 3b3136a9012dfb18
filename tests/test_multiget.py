"""MultiGet oracle tests: the batched read path vs per-key ``get``.

The contract under test is exact result equivalence —
``multi_get(keys) == [get(k) for k in keys]`` — under randomized
puts/deletes/overwrites, duplicate keys in the batch, absent keys,
both index granularities, coalescing on and off, with and without a
block cache, and across ``ShardedDB`` shards.  A second group checks
the cost story: coalesced runs charge fewer seeks, and the
``multiget.*`` counters say so.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import (
    CompactionPolicy,
    Granularity,
    small_test_options,
)
from repro.service.sharded import ShardedDB
from repro.storage.stats import (
    MULTIGET_BATCHES,
    MULTIGET_COALESCED,
    MULTIGET_KEYS,
    MULTIGET_SEEKS_SAVED,
    SEEKS,
    Stage,
)


def _mutate(db, rng, universe, n_ops=600):
    """Randomized puts/overwrites/deletes; returns the reference dict."""
    reference = {}
    for _ in range(n_ops):
        key = rng.choice(universe)
        roll = rng.random()
        if roll < 0.75:
            value = b"v%x-%x" % (key, rng.randrange(16))
            db.put(key, value)
            reference[key] = value
        else:
            db.delete(key)
            reference.pop(key, None)
    return reference


def _query_batch(rng, universe, reference, size=120):
    """Present + absent + duplicate keys, shuffled."""
    present = list(reference)
    batch = []
    if present:
        batch += [rng.choice(present) for _ in range(size // 2)]
    batch += [rng.choice(universe) for _ in range(size // 3)]
    batch += batch[: size // 6]  # guaranteed duplicates
    rng.shuffle(batch)
    return batch


@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
@pytest.mark.parametrize("cache_bytes", [0, 1 << 14])
@pytest.mark.parametrize("coalesce", [True, False])
def test_multi_get_matches_per_key_oracle(granularity, cache_bytes,
                                          coalesce):
    rng = random.Random(0xA11CE)
    options = small_test_options(IndexKind.PGM, granularity=granularity,
                                 cache_bytes=cache_bytes)
    db = LSMTree(options)
    universe = sorted(rng.sample(range(1 << 30), 1500))
    try:
        for phase in range(3):
            reference = _mutate(db, rng, universe)
            if phase:  # leave a non-empty memtable on the last phase
                db.flush()
            for _ in range(3):
                batch = _query_batch(rng, universe, reference)
                expected = [db.get(key) for key in batch]
                assert db.multi_get(batch, coalesce=coalesce) == expected
    finally:
        db.close()


def test_multi_get_matches_oracle_under_tiering():
    """Overlapping runs per level: newest-first resolution must hold."""
    rng = random.Random(0x7137)
    options = small_test_options(IndexKind.PGM,
                                 compaction_policy=CompactionPolicy.TIERING)
    db = LSMTree(options)
    universe = sorted(rng.sample(range(1 << 30), 1500))
    try:
        for _ in range(3):
            reference = _mutate(db, rng, universe)
            db.flush()
            batch = _query_batch(rng, universe, reference)
            expected = [db.get(key) for key in batch]
            assert db.multi_get(batch) == expected
        # The batched walk must not charge more than the per-key path.
        batch = sorted(set(_query_batch(rng, universe, reference)))[:64]
        before = db.stats.snapshot()
        db.multi_get(batch)
        batched_us = before.delta(db.stats).read_time()
        before = db.stats.snapshot()
        for key in batch:
            db.get(key)
        per_key_us = before.delta(db.stats).read_time()
        assert batched_us <= per_key_us
    finally:
        db.close()


def test_multi_get_empty_and_singleton():
    db = LSMTree(small_test_options(IndexKind.PGM))
    try:
        assert db.multi_get([]) == []
        assert db.multi_get([42]) == [None]
        db.put(42, b"x")
        assert db.multi_get([42, 42, 7]) == [b"x", b"x", None]
    finally:
        db.close()


def test_multi_get_sees_newest_version_across_levels():
    """Overwrites and tombstones in shallower levels shadow deep data."""
    db = LSMTree(small_test_options(IndexKind.PGM))
    try:
        for key in range(400):
            db.put(key, b"old%x" % key)
        db.flush()
        for key in range(0, 400, 3):
            db.put(key, b"new%x" % key)
        for key in range(1, 400, 3):
            db.delete(key)
        db.flush()
        batch = list(range(0, 400, 7)) + list(range(400, 420))
        assert db.multi_get(batch) == [db.get(key) for key in batch]
    finally:
        db.close()


@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_sharded_multi_get_matches_single_tree(granularity):
    rng = random.Random(0x5AA5)
    options = small_test_options(IndexKind.PGM, granularity=granularity)
    sdb = ShardedDB(num_shards=3, options=options)
    oracle = LSMTree(options)
    universe = sorted(rng.sample(range(1 << 30), 1200))
    try:
        for _ in range(500):
            key = rng.choice(universe)
            if rng.random() < 0.8:
                value = b"s%x" % key
                sdb.put(key, value)
                oracle.put(key, value)
            else:
                sdb.delete(key)
                oracle.delete(key)
        sdb.flush()
        batch = [rng.choice(universe) for _ in range(300)]
        batch += batch[:40]  # duplicates spanning shards
        assert sdb.multi_get(batch) == [oracle.get(key) for key in batch]
    finally:
        sdb.close()
        oracle.close()


keys_st = st.integers(min_value=0, max_value=1 << 16)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys_st,
                  st.binary(min_size=0, max_size=8)),
        st.tuples(st.just("delete"), keys_st, st.just(b"")),
    ),
    max_size=120,
), batch=st.lists(keys_st, min_size=1, max_size=40))
def test_multi_get_hypothesis_model(ops, batch):
    db = LSMTree(small_test_options(IndexKind.PGM))
    reference = {}
    try:
        for op, key, value in ops:
            if op == "put":
                db.put(key, value)
                reference[key] = value
            else:
                db.delete(key)
                reference.pop(key, None)
        assert db.multi_get(batch) == [reference.get(key) for key in batch]
    finally:
        db.close()


# -- cost accounting ------------------------------------------------------


def _loaded_level_db(**overrides):
    db = LSMTree(small_test_options(IndexKind.PGM,
                                    granularity=Granularity.LEVEL,
                                    **overrides))
    for key in range(2000):
        db.put(key, b"v%x" % key)
    db.flush()
    db.maybe_compact()
    return db


def test_multi_get_coalesces_and_saves_seeks():
    db = _loaded_level_db()
    try:
        batch = list(range(500, 564))  # dense: adjacent predicted segments
        before = db.stats.snapshot()
        result = db.multi_get(batch)
        delta = before.delta(db.stats)
        assert result == [b"v%x" % key for key in batch]
        assert delta.counter(MULTIGET_BATCHES) == 1
        assert delta.counter(MULTIGET_KEYS) == len(batch)
        assert delta.counter(MULTIGET_COALESCED) > 0
        assert delta.counter(MULTIGET_SEEKS_SAVED) > 0
        batched_seeks = delta.counter(SEEKS)

        before = db.stats.snapshot()
        for key in batch:
            db.get(key)
        per_key_seeks = before.delta(db.stats).counter(SEEKS)
        assert batched_seeks < per_key_seeks
    finally:
        db.close()


def _charged_tree(options):
    """1,500 puts/deletes, then one L0 file and a non-empty memtable."""
    rng = random.Random(0xC0DE)
    db = LSMTree(options)
    universe = sorted(rng.sample(range(1 << 30), 1000))
    written = []
    for step in range(1500):
        if written and rng.random() < 0.1:
            db.delete(rng.choice(written))
        else:
            key = rng.choice(universe)
            db.put(key, b"v%x-%d" % (key, step))
            written.append(key)
    db.flush()
    for key in universe[:20]:
        db.put(key, b"late")
    assert db.version.levels[0] and len(db.memtable) > 0
    return db, universe


def _charges(db):
    counters = {name: value for name, value in db.stats.counters.items()
                if not name.startswith("multiget.")}
    return counters, dict(db.stats.stage_us)


_CHARGE_CASES = [
    pytest.param(granularity, kind, caches, CompactionPolicy.LEVELING,
                 id=f"{granularity.value}-{kind.value}-caches{caches}")
    for granularity in (Granularity.FILE, Granularity.LEVEL)
    for kind in (IndexKind.FP, IndexKind.PGM)
    for caches in (0, 1 << 14)
] + [pytest.param(Granularity.FILE, IndexKind.PGM, 0,
                  CompactionPolicy.TIERING, id="file-tiering")]


@pytest.mark.parametrize("granularity,kind,caches,policy", _CHARGE_CASES)
def test_single_key_multi_get_charges_exactly_what_get_charges(
        granularity, kind, caches, policy):
    """``multi_get([k])`` and ``get(k)`` cost the same, to the last bit.

    Two identical trees answer the same ~600 present and absent keys,
    one through ``get`` and one through one-key batches; only the
    ``multiget.*`` counters may differ.
    """
    options = small_test_options(kind, granularity=granularity,
                                 cache_bytes=caches, data_cache_bytes=caches,
                                 compaction_policy=policy)
    by_get, universe = _charged_tree(options)
    by_batch, _ = _charged_tree(options)
    rng = random.Random(0xBEEF)
    keys = [rng.choice(universe) if rng.random() < 0.5
            else rng.randrange(1 << 30) for _ in range(600)]
    try:
        answers = [by_get.get(key) for key in keys]
        assert [by_batch.multi_get([key])[0] for key in keys] == answers
        assert any(answer is not None for answer in answers)
        assert None in answers
        assert _charges(by_batch) == _charges(by_get)
    finally:
        by_get.close()
        by_batch.close()


def test_multi_get_coalesce_off_disables_merging():
    db = _loaded_level_db()
    try:
        before = db.stats.snapshot()
        db.multi_get(list(range(500, 564)), coalesce=False)
        delta = before.delta(db.stats)
        assert delta.counter(MULTIGET_COALESCED) == 0
        assert delta.counter(MULTIGET_SEEKS_SAVED) == 0
    finally:
        db.close()


def test_empty_memtable_charges_no_table_lookup():
    """Satellite fix: an empty memtable costs neither probe nor charge."""
    db = LSMTree(small_test_options(IndexKind.PGM))
    try:
        assert db.get(123) is None
        assert db.stats.stage_time(Stage.TABLE_LOOKUP) == 0.0
        assert db.multi_get([1, 2, 3]) == [None, None, None]
        assert db.stats.stage_time(Stage.TABLE_LOOKUP) == 0.0
    finally:
        db.close()
