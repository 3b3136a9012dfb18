"""Tests for the write-ahead log: framing, replay, corruption handling."""

from repro.lsm.record import make_tombstone, make_value
from repro.lsm.wal import WriteAheadLog
from repro.storage.block_device import MemoryBlockDevice


def _wal():
    return WriteAheadLog(MemoryBlockDevice())


def test_append_replay_roundtrip():
    wal = _wal()
    records = [make_value(1, 1, b"a"), make_tombstone(2, 2),
               make_value(3, 3, b"ccc")]
    for record in records:
        wal.append(record)
    assert list(wal.replay()) == records


def test_replay_empty_log():
    wal = _wal()
    assert list(wal.replay()) == []


def test_reset_truncates():
    wal = _wal()
    wal.append(make_value(1, 1, b"x"))
    assert wal.size_bytes() > 0
    wal.reset()
    assert wal.size_bytes() == 0
    assert list(wal.replay()) == []


def test_torn_tail_is_dropped():
    device = MemoryBlockDevice()
    wal = WriteAheadLog(device)
    wal.append(make_value(1, 1, b"keep"))
    wal.append(make_value(2, 2, b"torn"))
    # Chop bytes off the final frame.
    data = device.pread("wal", 0, device.size("wal"))
    device.create("wal")
    device.append("wal", data[:-3])
    survivors = list(WriteAheadLog(device).replay())
    assert [record.key for record in survivors] == [1]


def test_corrupt_crc_stops_replay():
    device = MemoryBlockDevice()
    wal = WriteAheadLog(device)
    wal.append(make_value(1, 1, b"keep"))
    wal.append(make_value(2, 2, b"flip"))
    data = bytearray(device.pread("wal", 0, device.size("wal")))
    data[-1] ^= 0xFF  # flip a bit in the last payload byte
    device.create("wal")
    device.append("wal", bytes(data))
    survivors = list(WriteAheadLog(device).replay())
    assert [record.key for record in survivors] == [1]


def test_reopen_preserves_contents():
    device = MemoryBlockDevice()
    WriteAheadLog(device).append(make_value(9, 1, b"p"))
    reopened = WriteAheadLog(device)
    assert [record.key for record in reopened.replay()] == [9]


def test_large_values_roundtrip():
    wal = _wal()
    big = bytes(range(256)) * 64
    wal.append(make_value(7, 1, big))
    assert list(wal.replay())[0].value == big
