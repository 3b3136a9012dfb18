"""Unit + property tests for the bloom filter.

The load-bearing property is zero false negatives; the false-positive
rate is checked loosely against the 10-bit/key design point the paper
uses.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.bloom import BloomFilter


def test_no_false_negatives_basic():
    keys = list(range(0, 100_000, 97))
    bloom = BloomFilter.build(keys, bits_per_key=10)
    assert all(bloom.may_contain(key) for key in keys)


def test_false_positive_rate_near_design_point():
    rng = random.Random(1)
    keys = rng.sample(range(1 << 40), 20_000)
    bloom = BloomFilter.build(keys, bits_per_key=10)
    member = set(keys)
    probes = [key for key in rng.sample(range(1 << 40), 30_000)
              if key not in member][:20_000]
    fp = sum(1 for key in probes if bloom.may_contain(key))
    rate = fp / len(probes)
    # 10 bits/key gives ~1% theoretical FPR; allow generous slack.
    assert rate < 0.05


def test_more_bits_fewer_false_positives():
    rng = random.Random(2)
    keys = rng.sample(range(1 << 40), 5_000)
    member = set(keys)
    probes = [key for key in rng.sample(range(1 << 40), 10_000)
              if key not in member][:5_000]

    def rate(bits):
        bloom = BloomFilter.build(keys, bits_per_key=bits)
        return sum(1 for key in probes if bloom.may_contain(key)) / len(probes)

    assert rate(16) <= rate(4)


def test_zero_bits_means_always_maybe():
    bloom = BloomFilter.build([1, 2, 3], bits_per_key=0)
    assert bloom.may_contain(1)
    assert bloom.may_contain(999)
    assert bloom.size_bytes() == 1


def test_empty_key_set():
    bloom = BloomFilter.build([], bits_per_key=10)
    assert bloom.size_bytes() >= 8
    # No keys inserted: arbitrary probes should mostly miss.
    assert not bloom.may_contain(12345)


def test_serialize_roundtrip():
    keys = list(range(500))
    bloom = BloomFilter.build(keys, bits_per_key=10)
    clone = BloomFilter.deserialize(bloom.serialize())
    assert clone.nbits == bloom.nbits
    assert clone.nprobes == bloom.nprobes
    for key in keys:
        assert clone.may_contain(key)


def test_deserialize_rejects_garbage():
    with pytest.raises(CorruptionError):
        BloomFilter.deserialize(b"xx")
    keys = list(range(100))
    data = BloomFilter.build(keys, 10).serialize()
    with pytest.raises(CorruptionError):
        BloomFilter.deserialize(data[:-3])
    # Headers ``__init__`` would silently clamp were never written by
    # ``serialize``; loading them as a different filter risks a false
    # negative (or an untyped IndexError from an empty bit array).
    for header, body in (((0, 7), b""),        # nbits < 8, empty body
                         ((3, 7), b"\xff"),    # nbits < 8, 1-byte body
                         ((64, 0), bytes(8)),  # nprobes below 1
                         ((64, 31), bytes(8))):  # nprobes above 30
        with pytest.raises(CorruptionError):
            BloomFilter.deserialize(struct.pack("<IB", *header) + body)
    with pytest.raises(CorruptionError):  # body longer than nbits says
        BloomFilter.deserialize(struct.pack("<IB", 64, 7) + bytes(9))


def test_always_maybe_filter_roundtrips():
    disabled = BloomFilter.build([1, 2, 3], bits_per_key=0)
    assert disabled.serialize() == struct.pack("<IB", 8, 1) + b"\xff"
    clone = BloomFilter.deserialize(disabled.serialize())
    assert (clone.nbits, clone.nprobes) == (8, 1)
    assert clone.may_contain(1) and clone.may_contain(1 << 63)


def test_size_matches_bits_per_key():
    keys = list(range(10_000))
    bloom = BloomFilter.build(keys, bits_per_key=10)
    assert bloom.size_bytes() == pytest.approx(10 * len(keys) / 8, rel=0.05)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=500),
       st.sampled_from([2, 6, 10, 14]))
def test_property_no_false_negatives(keys, bits):
    bloom = BloomFilter.build(keys, bits_per_key=bits)
    assert all(bloom.may_contain(key) for key in keys)
    clone = BloomFilter.deserialize(bloom.serialize())
    assert all(clone.may_contain(key) for key in keys)


def _filled_by_add(keys, bits_per_key):
    """The loop ``build`` replaced: size as ``build`` does, ``add`` each."""
    bloom = BloomFilter(max(64, bits_per_key * len(keys)),
                        max(1, int(round(bits_per_key * math.log(2)))))
    for key in keys:
        bloom.add(key)
    return bloom


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 1, (1 << 32) - 1, 1 << 32,
                                           (1 << 63) - 1, 1 << 63,
                                           (1 << 64) - 1]),
                          st.integers(min_value=0,
                                      max_value=(1 << 64) - 1)),
                min_size=1, max_size=300),
       st.sampled_from([1, 2, 6, 10, 14, 64]))
def test_property_build_kernel_matches_add_loop(keys, bits):
    """Byte-for-byte, duplicates and both ends of the key range included;
    bits 1 on short lists clamps ``nbits`` to 64, bits 64 clamps
    ``nprobes`` to 30."""
    expected = _filled_by_add(keys, bits).serialize()
    assert BloomFilter.build(keys, bits).serialize() == expected
    # Not a sequence: built from a one-shot iterable.
    assert BloomFilter.build(iter(keys), bits).serialize() == expected


@pytest.mark.parametrize("keys", [[0], [(1 << 64) - 1], [0, (1 << 64) - 1],
                                  [5, 5, 5], []])
@pytest.mark.parametrize("bits", [1, 10, 64])
def test_build_kernel_edge_inputs(keys, bits):
    built = BloomFilter.build(keys, bits)
    assert built.serialize() == _filled_by_add(keys, bits).serialize()
    assert built.nbits >= 64 and 1 <= built.nprobes <= 30
