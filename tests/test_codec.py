"""Unit + property tests for the binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.indexes import codec


def test_scalar_roundtrip():
    writer = codec.Writer()
    writer.put_u8(7)
    writer.put_u32(123456)
    writer.put_u64((1 << 60) + 5)
    writer.put_f64(3.25)
    reader = codec.Reader(writer.getvalue())
    assert reader.get_u8() == 7
    assert reader.get_u32() == 123456
    assert reader.get_u64() == (1 << 60) + 5
    assert reader.get_f64() == 3.25
    assert reader.exhausted()


def test_array_roundtrip():
    writer = codec.Writer()
    writer.put_u64_array([1, 2, 1 << 63])
    writer.put_u32_array([])
    writer.put_f64_array([0.5, -1.5])
    writer.put_bytes(b"payload")
    reader = codec.Reader(writer.getvalue())
    assert reader.get_u64_array() == [1, 2, 1 << 63]
    assert reader.get_u32_array() == []
    assert reader.get_f64_array() == [0.5, -1.5]
    assert reader.get_bytes() == b"payload"


def test_truncated_payload_raises():
    writer = codec.Writer()
    writer.put_u64(1)
    data = writer.getvalue()[:-2]
    reader = codec.Reader(data)
    with pytest.raises(CorruptionError):
        reader.get_u64()


def test_remaining_tracks_position():
    writer = codec.Writer()
    writer.put_u32(1)
    writer.put_u32(2)
    reader = codec.Reader(writer.getvalue())
    assert reader.get_u32() == 1
    assert not reader.exhausted()
    assert reader.get_u32() == 2
    assert reader.exhausted()


def test_writer_len_matches_payload():
    writer = codec.Writer()
    writer.put_u8(1)
    writer.put_u64_array([1, 2, 3])
    assert len(writer) == len(writer.getvalue()) == 1 + 4 + 24


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                max_size=64))
def test_u64_array_property_roundtrip(values):
    writer = codec.Writer()
    writer.put_u64_array(values)
    assert codec.Reader(writer.getvalue()).get_u64_array() == values


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=64))
def test_f64_array_property_roundtrip(values):
    writer = codec.Writer()
    writer.put_f64_array(values)
    assert codec.Reader(writer.getvalue()).get_f64_array() == values


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=256))
def test_bytes_property_roundtrip(payload):
    writer = codec.Writer()
    writer.put_bytes(payload)
    assert codec.Reader(writer.getvalue()).get_bytes() == payload
