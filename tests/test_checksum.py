"""Tests for the table checksum (CRC-32 via zlib) and block codecs."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError
from repro.storage import checksum
from repro.storage.checksum import crc32c
from repro.storage.compression import (
    by_id,
    by_name,
    codec_names,
    decode_block,
    encode_block,
)


# -- CRC-32 --------------------------------------------------------------


def test_known_check_value():
    # The CRC-32 (IEEE 802.3) check value.
    assert crc32c(b"123456789") == 0xCBF43926


def test_empty_and_trivial_inputs():
    assert crc32c(b"") == 0
    assert crc32c(b"\x00") != 0
    assert crc32c(b"a") != crc32c(b"b")


def test_chaining_equals_whole():
    data = bytes(range(256)) * 7
    split = 311
    assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=2048), st.integers(0, 2047))
def test_single_bit_flip_always_detected(data, position):
    if not data:
        return
    position %= len(data)
    flipped = bytearray(data)
    flipped[position] ^= 0x01
    assert crc32c(bytes(flipped)) != crc32c(data)


def test_backend_reported():
    assert checksum.backend() == "zlib"


# -- block codecs --------------------------------------------------------


def test_codec_registry():
    names = codec_names()
    assert "none" in names and "zlib-1" in names
    assert by_name("none").codec_id == 0
    with pytest.raises(ChecksumError):
        by_id(250, file="f", block=3)


def test_encode_round_trips_through_decode():
    raw = (b"entry" * 100).ljust(1024, b"\x00")
    for name in codec_names():
        codec = by_name(name)
        codec_id, payload = encode_block(codec, raw)
        assert decode_block(codec_id, payload, len(raw),
                            file="f", block=0) == raw


def test_incompressible_blocks_stored_raw():
    import random
    rng = random.Random(7)
    raw = bytes(rng.getrandbits(8) for _ in range(512))
    codec_id, payload = encode_block(by_name("zlib-9"), raw)
    # Random bytes do not shrink: stored uncompressed under id 0.
    assert codec_id == 0
    assert payload == raw


def test_compressible_blocks_shrink():
    raw = b"\x00" * 4096
    codec_id, payload = encode_block(by_name("zlib-1"), raw)
    assert codec_id == by_name("zlib-1").codec_id
    assert len(payload) < len(raw)


def test_decode_failure_is_typed():
    with pytest.raises(ChecksumError) as excinfo:
        decode_block(by_name("zlib-1").codec_id, b"not deflate data", 100,
                     file="sst-000009", block=4)
    assert excinfo.value.file == "sst-000009"
    assert excinfo.value.block == 4


def test_decode_length_mismatch_is_typed():
    payload = zlib.compress(b"\x00" * 64)
    with pytest.raises(ChecksumError):
        decode_block(by_name("zlib-6").codec_id, payload, 65,
                     file="f", block=1)
