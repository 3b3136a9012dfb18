"""Unit + property tests for the sorted-array memtable."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memtable import MemTable
from repro.lsm.record import make_tombstone, make_value


def test_add_get():
    table = MemTable(entry_bytes=64)
    table.add(make_value(5, 1, b"a"))
    table.add(make_value(3, 2, b"b"))
    assert table.get(5).value == b"a"
    assert table.get(3).value == b"b"
    assert table.get(4) is None
    assert len(table) == 2


def test_newer_seq_supersedes():
    table = MemTable(entry_bytes=64)
    table.add(make_value(1, 1, b"old"))
    table.add(make_value(1, 5, b"new"))
    assert table.get(1).value == b"new"
    assert len(table) == 1
    # A stale (lower-seq) write must not clobber a newer one.
    table.add(make_value(1, 3, b"stale"))
    assert table.get(1).value == b"new"


def test_tombstones_stored():
    table = MemTable(entry_bytes=64)
    table.add(make_value(1, 1, b"x"))
    table.add(make_tombstone(1, 2))
    assert table.get(1).is_tombstone


def test_records_sorted():
    table = MemTable(entry_bytes=64)
    keys = random.Random(7).sample(range(10_000), 500)
    for i, key in enumerate(keys):
        table.add(make_value(key, i + 1, b"v"))
    out = [record.key for record in table.records()]
    assert out == sorted(keys)


def test_records_from_midpoint():
    table = MemTable(entry_bytes=64)
    for i, key in enumerate(range(0, 100, 10)):
        table.add(make_value(key, i + 1, b"v"))
    assert [r.key for r in table.records_from(35)] == [40, 50, 60, 70, 80, 90]
    assert [r.key for r in table.records_from(40)][0] == 40
    assert list(table.records_from(1000)) == []


def test_approximate_bytes():
    table = MemTable(entry_bytes=100)
    assert table.approximate_bytes() == 0
    assert table.is_empty()
    for i in range(10):
        table.add(make_value(i, i + 1, b"v"))
    assert table.approximate_bytes() == 1000
    assert not table.is_empty()


def test_comparison_depth_grows():
    small = MemTable(entry_bytes=8)
    for i in range(4):
        small.add(make_value(i, i + 1, b""))
    big = MemTable(entry_bytes=8)
    for i in range(4000):
        big.add(make_value(i, i + 1, b""))
    assert big.comparison_depth() >= small.comparison_depth()


def test_cursor_held_across_writes():
    """An open ``records_from`` cursor sees writes ahead of it, in order,
    each key's newest record, and nothing written behind it."""
    table = MemTable(entry_bytes=8)
    for seq, key in enumerate((10, 20, 30, 40), start=1):
        table.add(make_value(key, seq, b"v%d" % key))
    cursor = table.records_from(15)
    assert next(cursor).key == 20
    table.add(make_value(15, 10, b"behind"))
    table.add(make_value(25, 11, b"ahead"))
    table.add(make_value(40, 12, b"newer"))
    table.add(make_value(30, 1, b"older"))  # a stale seq never supersedes
    assert [(r.key, r.value) for r in cursor] == [
        (25, b"ahead"), (30, b"v30"), (40, b"newer")]
    assert [r.key for r in table.records()] == [10, 15, 20, 25, 30, 40]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 32),
                          st.binary(max_size=8)), max_size=300))
def test_property_matches_dict(ops):
    table = MemTable(entry_bytes=32)
    reference = {}
    for seq, (key, value) in enumerate(ops, start=1):
        table.add(make_value(key, seq, value))
        reference[key] = value
    assert len(table) == len(reference)
    for key, value in reference.items():
        assert table.get(key).value == value
    assert [r.key for r in table.records()] == sorted(reference)
