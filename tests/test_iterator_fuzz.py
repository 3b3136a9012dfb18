"""Fuzzed iterator semantics: interleaved seeks and advances vs reference."""

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


def _reference_scan(reference, start, count):
    return sorted((k, v) for k, v in reference.items() if k >= start)[:count]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1 << 16),
       cursor_ops=st.lists(
           st.one_of(st.tuples(st.just("seek"), st.integers(0, 3000)),
                     st.tuples(st.just("advance"), st.just(0))),
           min_size=1, max_size=40))
def test_cursor_interleavings_match_reference(seed, cursor_ops):
    db = LSMTree(small_test_options(index_kind=IndexKind.PGM,
                                    value_capacity=8))
    rng = random.Random(seed)
    reference = {}
    for _ in range(400):
        key = rng.randrange(3000)
        value = b"%d" % rng.randrange(100)
        db.put(key, value)
        reference[key] = value
    ordered = sorted(reference.items())
    cursor = db.iterator()
    cursor.seek_to_first()
    position = 0  # index into ordered

    for op, arg in cursor_ops:
        if op == "seek":
            cursor.seek(arg)
            position = next((i for i, (k, _) in enumerate(ordered)
                             if k >= arg), len(ordered))
        else:
            if position < len(ordered):
                cursor.advance()
                position += 1
        if position < len(ordered):
            assert cursor.valid()
            assert (cursor.key(), cursor.value()) == ordered[position]
        else:
            assert not cursor.valid()
    db.close()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1 << 16))
def test_cursor_full_walk_all_policies(seed):
    for policy in (CompactionPolicy.LEVELING, CompactionPolicy.TIERING):
        db = LSMTree(small_test_options(value_capacity=8,
                                        compaction_policy=policy))
        rng = random.Random(seed)
        reference = {}
        for _ in range(300):
            key = rng.randrange(2000)
            value = b"%d" % rng.randrange(50)
            db.put(key, value)
            reference[key] = value
        cursor = db.iterator()
        cursor.seek_to_first()
        assert cursor.take(10_000) == sorted(reference.items())
        db.close()


@pytest.mark.parametrize("granularity", [Granularity.FILE, Granularity.LEVEL])
def test_rmi_scans_from_every_start_key(granularity):
    """Every start key, including absent ones between and around the
    stored keys, scans the oracle's rows: an RMI seek never starts past
    the insertion point, in a table or through a level model, built in
    this process or read back by a reopen."""
    options = small_test_options(index_kind=IndexKind.RMI,
                                 granularity=granularity)
    db = LSMTree(options)
    rng = random.Random(1)
    reference = {}
    for i in range(268):
        # Three clusters with gaps between them.
        key = rng.choice((rng.randrange(40), 100 + rng.randrange(60),
                          200 + rng.randrange(100)))
        db.put(key, b"v%d" % i)
        reference[key] = b"v%d" % i
    assert len(db.version.levels[0]) + sum(
        len(files) for files in db.version.levels[1:]) > 1
    ordered = sorted(reference.items())

    def check(tree):
        for start in range(0, 302):
            for count in (1, 5, 18):
                assert tree.scan(start, count) == [
                    row for row in ordered if row[0] >= start][:count], (
                    start, count)

    check(db)
    db.flush()
    db.close()
    reopened = LSMTree.reopen(options, db.device)
    check(reopened)
    reopened.close()
