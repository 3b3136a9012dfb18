"""Unit tests for the block device, including I/O accounting."""

import pytest

from repro.errors import FileNotFoundInDeviceError, StorageError
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import BLOCKS_READ, BLOCKS_WRITTEN, BYTES_READ


@pytest.fixture(params=["memory"])
def device():
    return MemoryBlockDevice(block_size=256)


def test_create_append_read_roundtrip(device):
    device.create("f")
    device.append("f", b"hello ")
    device.append("f", b"world")
    assert device.pread("f", 0, 11) == b"hello world"
    assert device.pread("f", 6, 5) == b"world"
    assert device.size("f") == 11


def test_short_read_past_eof(device):
    device.create("f")
    device.append("f", b"abc")
    assert device.pread("f", 1, 100) == b"bc"
    assert device.pread("f", 50, 10) == b""


def test_read_spanning_eof_records_its_real_length(device):
    device.create("f")
    device.append("f", b"x" * 300)
    bytes_before = device.stats.get(BYTES_READ)
    blocks_before = device.stats.get(BLOCKS_READ)
    assert device.pread("f", 250, 100) == b"x" * 50
    # The counters describe the 50 bytes returned (blocks 0 and 1), not
    # the 100 requested.
    assert device.stats.get(BYTES_READ) - bytes_before == 50
    assert device.stats.get(BLOCKS_READ) - blocks_before == 2
    assert isinstance(device.pread("f", 0, 10), bytes)


def test_missing_file_raises(device):
    with pytest.raises(FileNotFoundInDeviceError):
        device.pread("nope", 0, 1)
    with pytest.raises(FileNotFoundInDeviceError):
        device.size("nope")
    with pytest.raises(FileNotFoundInDeviceError):
        device.delete("nope")
    with pytest.raises(FileNotFoundInDeviceError):
        device.append("nope", b"x")


def test_negative_range_rejected(device):
    device.create("f")
    device.append("f", b"abc")
    with pytest.raises(StorageError):
        device.pread("f", -1, 2)
    with pytest.raises(StorageError):
        device.pread("f", 0, -2)


def test_delete_and_exists(device):
    device.create("f")
    assert device.exists("f")
    device.delete("f")
    assert not device.exists("f")


def test_list_files_sorted(device):
    for name in ("c", "a", "b"):
        device.create(name)
    assert device.list_files() == ["a", "b", "c"]


def test_total_bytes(device):
    device.create("a")
    device.append("a", b"x" * 100)
    device.create("b")
    device.append("b", b"y" * 50)
    assert device.total_bytes() == 150


def test_block_accounting_on_reads(device):
    device.create("f")
    device.append("f", b"z" * 1024)
    before = device.stats.get(BLOCKS_READ)
    device.pread("f", 0, 256)       # exactly one block
    device.pread("f", 255, 2)       # straddles two blocks
    assert device.stats.get(BLOCKS_READ) - before == 3
    assert device.stats.get(BYTES_READ) >= 258


def test_block_accounting_on_writes(device):
    device.create("f")
    before = device.stats.get(BLOCKS_WRITTEN)
    device.append("f", b"q" * 300)  # two 256-byte blocks
    assert device.stats.get(BLOCKS_WRITTEN) - before == 2


def test_create_truncates(device):
    device.create("f")
    device.append("f", b"old data")
    device.create("f")
    assert device.size("f") == 0


def test_invalid_block_size():
    with pytest.raises(StorageError):
        MemoryBlockDevice(block_size=0)
