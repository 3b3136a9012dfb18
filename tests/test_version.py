"""Tests for level metadata bookkeeping."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.sstable import TableBuilder
from repro.lsm.version import FileMetaData, Version
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.stats import Stats


def _meta(number, keys, device=None, stats=None):
    options = small_test_options()
    stats = stats or Stats()
    device = device or MemoryBlockDevice(block_size=options.block_size,
                                         stats=stats)
    builder = TableBuilder(device, f"sst-{number}", options,
                           IndexFactory(IndexKind.FP, 8), stats,
                           CostModel(block_size=options.block_size))
    for i, key in enumerate(keys):
        builder.add(make_value(key, i + 1, b"v"))
    return FileMetaData(number=number, table=builder.finish())


@pytest.fixture()
def version():
    return Version(max_levels=4)


def test_add_sorted_non_overlapping(version):
    version.add_file(1, _meta(1, range(100, 200)))
    version.add_file(1, _meta(2, range(300, 400)))
    version.add_file(1, _meta(3, range(200, 300)))
    mins = [meta.min_key for meta in version.levels[1]]
    assert mins == sorted(mins)
    assert version.file_count(1) == 3


def test_overlap_rejected_in_deep_levels(version):
    version.add_file(1, _meta(1, range(100, 200)))
    with pytest.raises(StorageError):
        version.add_file(1, _meta(2, range(150, 250)))
    with pytest.raises(StorageError):
        version.add_file(1, _meta(3, range(50, 150)))


def test_l0_allows_overlap_newest_first(version):
    version.add_file(0, _meta(1, range(0, 100)))
    version.add_file(0, _meta(2, range(50, 150)))
    files = version.files_for_key(0, 75)
    assert [meta.number for meta in files] == [2, 1]  # newest first


def test_files_for_key_deep_level(version):
    version.add_file(1, _meta(1, range(100, 200)))
    version.add_file(1, _meta(2, range(300, 400)))
    assert [m.number for m in version.files_for_key(1, 150)] == [1]
    assert version.files_for_key(1, 250) == []
    assert version.files_for_key(1, 50) == []
    assert [m.number for m in version.files_for_key(1, 399)] == [2]


def _range_meta(number, min_key, max_key):
    """A file that is only a key range: all ``Version`` looks at."""
    return FileMetaData(number=number, table=SimpleNamespace(
        name=f"sst-{number}", min_key=min_key, max_key=max_key))


#: Slot -> key range.  Disjoint for sorted runs; every neighbour
#: overlaps for level 0 / tiering.
_DISJOINT = [(slot * 10 + 2, slot * 10 + 7) for slot in range(8)]
_OVERLAPPING = [(slot * 5, slot * 5 + 12) for slot in range(8)]
_EDITS = st.lists(st.tuples(st.sampled_from(["add", "remove", "clear",
                                             "replace", "drop"]),
                            st.integers(0, 7)), max_size=30)


def _check_files_for_key(version, level, ranges):
    files = version.levels[level]
    probes = {-1, 0, 100}
    for lo, hi in ranges:  # at, between and outside every fence
        probes.update((lo - 1, lo, (lo + hi) // 2, hi, hi + 1))
    for key in sorted(probes):
        assert version.files_for_key(level, key) == [
            meta for meta in files if meta.min_key <= key <= meta.max_key]


def _apply_edits(version, level, ranges, edits):
    """Apply ``edits`` to ``version`` and to a list model of the level.

    ``replace`` swaps a file for a narrower one (a scrub rewrite) in the
    same slot; ``drop`` is ``replace_file`` with ``None``.
    """
    overlapping = level == 0 or version.overlapping_levels
    live = {}
    order = []  # the level's files in the order the version must keep
    number = 0
    for op, slot in edits:
        if op == "add" and slot not in live:
            number += 1
            live[slot] = _range_meta(number, *ranges[slot])
            version.add_file(level, live[slot])
            order.insert(0, live[slot])
            if not overlapping:
                order.sort(key=lambda meta: meta.min_key)
        elif op == "remove" and slot in live:
            order.remove(live[slot])
            version.remove_files(level, [live.pop(slot)])
        elif op == "clear":
            version.remove_files(level, list(live.values()))
            live.clear()
            order.clear()
        elif op == "replace" and slot in live:
            number += 1
            lo, hi = ranges[slot]
            new = _range_meta(number, lo + 1, hi - 1)
            version.replace_file(level, live[slot], new)
            order[order.index(live[slot])] = new
            live[slot] = new
        elif op == "drop" and slot in live:
            version.replace_file(level, live[slot], None)
            order.remove(live.pop(slot))
        assert list(version.levels[level]) == order
        _check_files_for_key(version, level, ranges)


@settings(max_examples=150, deadline=None)
@given(_EDITS)
def test_files_for_key_matches_brute_force_on_a_sorted_level(edits):
    _apply_edits(Version(max_levels=3), 1, _DISJOINT, edits)


@settings(max_examples=100, deadline=None)
@given(_EDITS, st.sampled_from([(False, 0), (True, 0), (True, 2)]))
def test_files_for_key_matches_brute_force_on_overlapping_levels(edits, shape):
    tiering, level = shape
    _apply_edits(Version(max_levels=3, overlapping_levels=tiering), level,
                 _OVERLAPPING, edits)


def test_files_for_key_after_a_level_is_emptied_and_refilled(version):
    _apply_edits(version, 1, _DISJOINT,
                 [("add", 1), ("add", 5), ("add", 3), ("clear", 0),
                  ("add", 6), ("add", 0), ("remove", 6), ("add", 4)])
    assert [meta.min_key for meta in version.levels[1]] == [2, 42]


def test_replace_file_after_a_cached_lookup_moves_the_fences(version):
    for number, slot in enumerate((0, 1, 2), 1):
        version.add_file(1, _range_meta(number, *_DISJOINT[slot]))
    old = version.levels[1][1]
    assert version.files_for_key(1, 12) == [old]  # fences now cached
    new = _range_meta(9, 14, 15)
    version.replace_file(1, old, new)
    assert version.files_for_key(1, 12) == []
    assert version.files_for_key(1, 14) == [new]
    version.replace_file(1, new, None)
    assert version.files_for_key(1, 14) == []
    assert version.files_for_key(1, 22) == [version.levels[1][1]]


def test_levels_cannot_be_edited_in_place(version):
    meta = _range_meta(1, 2, 7)
    version.add_file(1, meta)
    with pytest.raises(TypeError):
        version.levels[1][0] = meta
    with pytest.raises(AttributeError):
        version.levels[1].append(meta)


def test_overlapping_files(version):
    version.add_file(1, _meta(1, range(0, 100)))
    version.add_file(1, _meta(2, range(200, 300)))
    version.add_file(1, _meta(3, range(400, 500)))
    got = version.overlapping_files(1, 250, 450)
    assert [meta.number for meta in got] == [2, 3]
    assert version.overlapping_files(1, 100, 199) == []


def test_remove_files(version):
    a = _meta(1, range(0, 100))
    b = _meta(2, range(200, 300))
    version.add_file(1, a)
    version.add_file(1, b)
    version.remove_files(1, [a])
    assert [meta.number for meta in version.levels[1]] == [2]


def test_byte_and_entry_accounting(version):
    version.add_file(1, _meta(1, range(100)))
    version.add_file(2, _meta(2, range(200, 250)))
    assert version.level_entry_count(1) == 100
    assert version.level_entry_count(2) == 50
    assert version.level_data_bytes(1) == 100 * 64
    assert version.file_count() == 2


def test_deepest_nonempty_and_overlaps_below(version):
    assert version.deepest_nonempty_level() == -1
    version.add_file(1, _meta(1, range(100)))
    version.add_file(3, _meta(2, range(1000, 1100)))
    assert version.deepest_nonempty_level() == 3
    assert version.key_range_overlaps_below(1, 1000, 1050)
    assert not version.key_range_overlaps_below(1, 0, 999)
    assert not version.key_range_overlaps_below(3, 0, 5000)


def test_all_files_order(version):
    version.add_file(2, _meta(1, range(100)))
    version.add_file(0, _meta(2, range(200, 300)))
    levels = [level for level, _ in version.all_files()]
    assert levels == sorted(levels)


def test_level_bounds_checked(version):
    with pytest.raises(StorageError):
        version.files_for_key(9, 1)
    with pytest.raises(StorageError):
        version.add_file(-1, _meta(1, range(10)))
