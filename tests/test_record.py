"""Unit + property tests for the fixed-size record codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, InvalidOptionError
from repro.lsm.record import (
    KIND_TOMBSTONE,
    KIND_VALUE,
    MAX_KEY,
    MAX_SEQ,
    Record,
    decode_entry,
    decode_key,
    encode_entries,
    encode_entry,
    encode_records,
    entry_size,
    make_tombstone,
    make_value,
)


def test_entry_size():
    assert entry_size(0) == 20
    assert entry_size(1004) == 1024


def test_roundtrip_value_record():
    record = make_value(42, 7, b"hello")
    blob = encode_entry(record, 16)
    assert len(blob) == entry_size(16)
    out = decode_entry(blob, 0, 16)
    assert out == record
    assert decode_key(blob, 0) == 42


def test_roundtrip_tombstone():
    record = make_tombstone(99, 3)
    blob = encode_entry(record, 8)
    out = decode_entry(blob, 0, 8)
    assert out.is_tombstone
    assert out.key == 99
    assert out.seq == 3
    assert out.value == b""


def test_offset_decoding():
    blob = (encode_entry(make_value(1, 1, b"a"), 4)
            + encode_entry(make_value(2, 2, b"bb"), 4))
    assert decode_entry(blob, entry_size(4), 4).key == 2
    assert decode_key(blob, entry_size(4)) == 2


def test_oversized_value_rejected():
    with pytest.raises(InvalidOptionError):
        encode_entry(make_value(1, 1, b"too long"), 4)
    with pytest.raises(InvalidOptionError):
        encode_entries([1, 2], [1, 2], KIND_VALUE, [b"ok", b"too long"], 4)


def test_bad_key_rejected():
    with pytest.raises(InvalidOptionError):
        encode_entry(Record(-1, 1, KIND_VALUE, b""), 4)
    with pytest.raises(InvalidOptionError):
        encode_entry(Record(1 << 65, 1, KIND_VALUE, b""), 4)
    for key in (-1, 1 << 64, 1 << 65):
        with pytest.raises(InvalidOptionError):
            encode_entries([0, key], [1, 2], KIND_VALUE, [b"", b""], 4)


def test_bad_seq_rejected():
    for seq in (-1, MAX_SEQ + 1, 1 << 64):
        with pytest.raises(InvalidOptionError):
            encode_entry(Record(1, seq, KIND_VALUE, b""), 4)
        with pytest.raises(InvalidOptionError):
            encode_entries([1, 2], [1, seq], KIND_VALUE, [b"", b""], 4)


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(min_value=0, max_value=24), data=st.data())
def test_column_encoding_is_the_per_record_encoding(capacity, data):
    """One numpy pass writes the bytes ``encode_entry`` writes, values
    ending in NUL bytes included."""
    keys = sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=MAX_KEY), min_size=1,
        max_size=20)))
    value = st.tuples(st.binary(max_size=capacity),
                      st.integers(0, 3)).map(
        lambda pair: (pair[0] + b"\x00" * pair[1])[:capacity])
    records = [Record(key, data.draw(st.integers(0, MAX_SEQ)),
                      data.draw(st.sampled_from([KIND_VALUE,
                                                 KIND_TOMBSTONE])),
                      data.draw(value))
               for key in keys]
    assert encode_records(records, capacity) == (
        tuple(keys),
        b"".join(encode_entry(record, capacity) for record in records),
        max(record.seq for record in records))


def test_truncated_buffer_raises():
    blob = encode_entry(make_value(1, 1, b"abc"), 8)
    with pytest.raises(CorruptionError):
        decode_entry(blob[:-10], 0, 8)
    with pytest.raises(CorruptionError):
        decode_key(b"short", 0)


@settings(max_examples=60, deadline=None)
@given(key=st.integers(min_value=0, max_value=(1 << 64) - 1),
       seq=st.integers(min_value=0, max_value=(1 << 56) - 1),
       kind=st.sampled_from([KIND_VALUE, KIND_TOMBSTONE]),
       value=st.binary(max_size=32))
def test_property_roundtrip(key, seq, kind, value):
    record = Record(key, seq, kind, value if kind == KIND_VALUE else b"")
    blob = encode_entry(record, 32)
    assert len(blob) == entry_size(32)
    assert decode_entry(blob, 0, 32) == record
