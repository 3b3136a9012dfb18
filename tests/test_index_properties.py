"""Cross-index property tests: the Section 4 interface contract.

Every clustered index must satisfy, for any strictly-increasing key
array and any configured boundary:

1. containment — ``lookup(k)`` brackets the true position of every
   member key;
2. bounded width — the returned range respects the configured position
   boundary (with the +2 integer-rounding slack);
3. serialisation — ``deserialize(serialize())`` answers identically;
4. clamping — bounds always fall inside ``[0, n)``.
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexBuildError, IndexLookupError
from repro.indexes.registry import (
    ALL_KINDS,
    IndexFactory,
    IndexKind,
    deserialize_index,
)

sorted_keys = st.lists(
    st.integers(min_value=0, max_value=(1 << 62)),
    min_size=2, max_size=300, unique=True).map(sorted)

boundaries = st.sampled_from([4, 8, 32, 128])


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=25, deadline=None)
@given(keys=sorted_keys, boundary=boundaries)
def test_containment_and_width(kind, keys, boundary):
    index = IndexFactory(kind, boundary).build(keys)
    slack = boundary + 2
    for step in range(0, len(keys), max(1, len(keys) // 40)):
        bound = index.lookup(keys[step])
        assert 0 <= bound.lo <= step < bound.hi <= len(keys)
        if kind is not IndexKind.RMI:
            # RMI's boundary is a tuning target, not a hard bound.
            assert bound.width <= slack


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=15, deadline=None)
@given(keys=sorted_keys, boundary=boundaries)
def test_serialization_equivalence(kind, keys, boundary):
    index = IndexFactory(kind, boundary).build(keys)
    clone = deserialize_index(index.serialize())
    assert clone.kind == index.kind
    assert clone.n == index.n
    probes = keys[:: max(1, len(keys) // 20)] + [keys[0] - 1, keys[-1] + 1]
    for probe in probes:
        assert clone.lookup(probe) == index.lookup(probe)


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=15, deadline=None)
@given(keys=sorted_keys, boundary=boundaries)
def test_absent_key_bounds_clamped(kind, keys, boundary):
    index = IndexFactory(kind, boundary).build(keys)
    for probe in (0, keys[0] - 1 if keys[0] else 0, keys[-1] + 1, 1 << 63):
        bound = index.lookup(probe)
        assert 0 <= bound.lo <= bound.hi <= len(keys)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lookup_before_build_raises(kind):
    index = IndexFactory(kind, 16).create()
    with pytest.raises(IndexLookupError):
        index.lookup(1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_build_raises(kind):
    index = IndexFactory(kind, 16).create()
    with pytest.raises(IndexBuildError):
        index.build([])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_size_and_cost_reported(kind, uniform_keys):
    keys = uniform_keys[:4000]
    index = IndexFactory(kind, 32).build(keys)
    assert index.size_bytes() == len(index.serialize())
    assert index.size_bytes() > 0
    assert index.train_key_visits >= len(keys) // 32  # FP visits per block
    from repro.storage.cost_model import DEFAULT_COST_MODEL
    assert index.expected_lookup_cost_us(DEFAULT_COST_MODEL) > 0.0


def _seek_key_sets(uniform_keys):
    """Key sets for the seek contract: 2,000 uniform keys, then small
    uniform, clustered and equal-gap sets of 16 to 500 keys."""
    yield uniform_keys[:2000]
    rng = random.Random(0x5EEC)
    for n in (16, 64, 128, 500):
        for _ in range(6):
            yield sorted(rng.sample(range(n * 10), n))
        for _ in range(3):
            keys = set()
            while len(keys) < n:
                base = rng.randrange(1 << 40)
                keys.update(base + rng.randrange(n) for _ in range(8))
            yield sorted(keys)[:n]
        for _ in range(3):
            # Runs of equal gaps, with a jump between runs.
            keys, key = [], rng.randrange(100)
            while len(keys) < n:
                gap = rng.choice((1, 2, 7))
                for _ in range(rng.randrange(2, 12)):
                    key += gap
                    keys.append(key)
                key += rng.randrange(50, 5000)
            yield keys[:n]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_insertion_point_for_absent_keys_between_members(kind, uniform_keys):
    """For seeks: an absent key's bound starts at or before the position
    it would be inserted at, so scanning forward from ``bound.lo`` finds
    its successor."""
    rng = random.Random(kind.value)
    for keys in _seek_key_sets(uniform_keys):
        members = set(keys)
        probes = [key + 1 for key in keys[::max(1, len(keys) // 40)]]
        probes += [rng.randrange(keys[0] - 5, keys[-1] + 5)
                   for _ in range(20)]
        probes = [probe for probe in probes
                  if probe >= 0 and probe not in members]
        for boundary in (8, 32):
            index = IndexFactory(kind, boundary).build(keys)
            for probe in probes:
                bound = index.lookup(probe)
                assert bound.lo <= bisect_left(keys, probe), (
                    boundary, len(keys), probe)
