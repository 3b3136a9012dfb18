"""Tests for the data-unclustered indexes (ALEX, LIPP, DILI and NFL)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexBuildError
from repro.indexes.alex import ALEXIndex
from repro.indexes.dili import DILIIndex
from repro.indexes.lipp import LIPPIndex
from repro.indexes.nfl import NFLIndex


def _pairs(keys):
    return [(key, b"v%d" % key) for key in keys]


@pytest.fixture(params=[ALEXIndex, LIPPIndex, DILIIndex, NFLIndex])
def index_cls(request):
    return request.param


def test_bulk_load_and_get(index_cls, uniform_keys):
    keys = uniform_keys[:3000]
    index = index_cls()
    index.bulk_load(_pairs(keys))
    assert len(index) == len(keys)
    for key in keys[::97]:
        assert index.get(key) == b"v%d" % key
    assert index.get(keys[0] + 1) is None


def test_range_scan_matches_sorted_reference(index_cls, uniform_keys):
    keys = uniform_keys[:2000]
    index = index_cls()
    index.bulk_load(_pairs(keys))
    rng = random.Random(9)
    for _ in range(20):
        start = keys[rng.randrange(len(keys))]
        expected = [(k, b"v%d" % k) for k in keys if k >= start][:50]
        assert index.range_scan(start, 50) == expected


def test_counters_track_traversal(index_cls, uniform_keys):
    keys = uniform_keys[:2000]
    index = index_cls()
    index.bulk_load(_pairs(keys))
    index.counters.reset()
    for key in keys[:100]:
        index.get(key)
    assert index.counters.operations == 100
    assert index.counters.node_hops >= 100  # at least one hop per lookup
    assert index.counters.hops_per_op() >= 1.0


def test_memory_accounts_slots(index_cls, uniform_keys):
    keys = uniform_keys[:1000]
    index = index_cls()
    index.bulk_load(_pairs(keys))
    # Unclustered structures pay per-slot overhead well above 8B/key.
    assert index.memory_bytes() > 8 * len(keys)


def test_empty_bulk_load_raises(index_cls):
    with pytest.raises(IndexBuildError):
        index_cls().bulk_load([])


def test_lipp_conflicts_create_children(uniform_keys):
    index = LIPPIndex()
    # Dense cluster forces slot conflicts -> child nodes.
    keys = list(range(10_000, 10_400))
    index.bulk_load(_pairs(keys))
    assert index.depth() >= 1
    for key in keys[::17]:
        assert index.get(key) == b"v%d" % key


def test_lipp_scan_counts_scatter(uniform_keys):
    index = LIPPIndex()
    keys = list(range(0, 100_000, 7))
    index.bulk_load(_pairs(keys))
    index.counters.reset()
    index.range_scan(keys[10], 500)
    assert index.counters.scatter_jumps >= 0  # counted, possibly zero
    assert index.counters.operations == 1


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 48), min_size=1,
                max_size=150, unique=True))
def test_property_unclustered_get_after_load(keys):
    keys = sorted(keys)
    for cls in (ALEXIndex, LIPPIndex, DILIIndex, NFLIndex):
        index = cls()
        index.bulk_load(_pairs(keys))
        for key in keys:
            assert index.get(key) == b"v%d" % key


def test_dili_distribution_driven_leaves(clustered_keys):
    """Dense regions should get more, smaller leaves than sparse ones."""
    index = DILIIndex()
    index.bulk_load(_pairs(clustered_keys[:4000]))
    assert index.depth() >= 2
    for key in clustered_keys[:4000:131]:
        assert index.get(key) == b"v%d" % key


def test_nfl_flow_uniformises_hard_distribution(clustered_keys):
    """The point of NFL: after the flow, hard keys look uniform."""
    from repro.workloads.datasets import generate, hardness_score
    keys = generate("fb", 3000, seed=3)
    index = NFLIndex()
    index.bulk_load(_pairs(keys))
    raw_hardness = hardness_score(keys)
    transformed = index.flow_uniformity(keys)
    assert transformed < raw_hardness / 5
    assert transformed < 0.05


def test_nfl_buckets_stay_balanced(uniform_keys):
    index = NFLIndex(bucket_target=16)
    index.bulk_load(_pairs(uniform_keys[:4000]))
    # The flow should keep the worst bucket within a small multiple of
    # the target occupancy.
    assert index.max_bucket_size() <= 16 * 6


def test_nfl_transform_monotone(uniform_keys):
    from repro.indexes.nfl import NumericalFlow
    flow = NumericalFlow(uniform_keys[:2000])
    probes = uniform_keys[:2000:97]
    values = [flow.transform(key) for key in probes]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert 0.0 <= values[0] and values[-1] < 1.0
