"""Unit + property tests for the B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexBuildError
from repro.indexes import codec
from repro.indexes.btree import BPlusTree


def _bulk(n, order=16):
    pairs = [(i * 10, i) for i in range(n)]
    return BPlusTree.bulk_load(pairs, order=order), pairs


def test_bulk_load_and_get():
    tree, pairs = _bulk(500)
    for key, value in pairs:
        assert tree.get(key) == value
    assert tree.get(5) is None
    assert len(tree) == 500


def test_floor_semantics():
    tree, _ = _bulk(100)
    assert tree.floor(55) == (50, 5)
    assert tree.floor(50) == (50, 5)
    assert tree.floor(99999) == (990, 99)
    assert tree.floor(-1) is None


def test_items_in_order():
    tree, pairs = _bulk(300)
    assert list(tree.items()) == pairs


def test_height_grows_logarithmically():
    tree, _ = _bulk(2000, order=8)
    assert 3 <= tree.height <= 6
    assert tree.node_count() > 100


def test_empty_tree():
    tree = BPlusTree()
    assert tree.get(1) is None
    assert tree.floor(1) is None
    assert list(tree.items()) == []
    assert len(tree) == 0


def test_invalid_order():
    with pytest.raises(IndexBuildError):
        BPlusTree(order=2)


def test_serialize_roundtrip():
    tree, pairs = _bulk(700, order=8)
    writer = codec.Writer()
    tree.serialize_into(writer)
    restored = BPlusTree.deserialize_from(codec.Reader(writer.getvalue()))
    assert list(restored.items()) == pairs
    assert restored.height == tree.height
    assert restored.floor(123) == tree.floor(123)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 32), min_size=1,
                max_size=300, unique=True))
def test_property_bulk_load_floor_matches_bisect(keys):
    keys = sorted(keys)
    tree = BPlusTree.bulk_load([(key, i) for i, key in enumerate(keys)],
                               order=8)
    import bisect
    for probe in keys + [keys[0] - 1, keys[-1] + 1, (keys[0] + keys[-1]) // 2]:
        idx = bisect.bisect_right(keys, probe) - 1
        expected = (keys[idx], idx) if idx >= 0 else None
        assert tree.floor(probe) == expected
