"""Tests for WriteBatch: atomicity, group commit, WAL recovery."""

import pytest

from repro.errors import InvalidOptionError
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.wal import WriteAheadLog
from repro.lsm.write_batch import WriteBatch
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import (
    BATCH_WRITES,
    UPDATES,
    WAL_GROUP_COMMITS,
    WAL_RECORDS_APPENDED,
    WRITE_CALLS,
)


def _filled(n=10, start=1):
    batch = WriteBatch()
    for i in range(start, start + n):
        batch.put(i, b"v%d" % i)
    return batch


# -- the batch object ---------------------------------------------------

def test_batch_staging_and_introspection():
    batch = WriteBatch()
    assert not batch and len(batch) == 0
    batch.put(1, b"a").put(2, b"b").delete(1)
    assert len(batch) == 3
    assert batch.keys() == [1, 2, 1]
    batch.clear()
    assert not batch


def test_batch_iteration_preserves_order():
    batch = WriteBatch().put(5, b"x").delete(5).put(5, b"y")
    kinds = [kind for kind, _, _ in batch]
    assert kinds[0] == kinds[2] != kinds[1]


# -- applying batches ---------------------------------------------------

def test_write_applies_every_record():
    db = LSMTree(small_test_options())
    applied = db.write(_filled(10))
    assert applied == 10
    for i in range(1, 11):
        assert db.get(i) == b"v%d" % i


def test_write_empty_batch_is_noop():
    db = LSMTree(small_test_options())
    seq_before = db._seq
    assert db.write(WriteBatch()) == 0
    assert db._seq == seq_before
    assert db.stats.get(BATCH_WRITES) == 0


def test_last_operation_wins_within_a_batch():
    db = LSMTree(small_test_options())
    db.write(WriteBatch().put(1, b"old").delete(1).put(1, b"new")
             .put(2, b"x").delete(2))
    assert db.get(1) == b"new"
    assert db.get(2) is None


def test_oversized_value_rejects_whole_batch():
    db = LSMTree(small_test_options())  # value_capacity 44
    batch = WriteBatch().put(1, b"fine").put(2, b"z" * 100)
    with pytest.raises(InvalidOptionError):
        db.write(batch)
    assert db.get(1) is None  # nothing was applied
    assert db.stats.get(UPDATES) == 0


def test_batch_counts_updates_and_batches():
    db = LSMTree(small_test_options())
    db.write(_filled(7))
    db.write(_filled(3, start=100))
    assert db.stats.get(UPDATES) == 10
    assert db.stats.get(BATCH_WRITES) == 2


def test_overflowing_batch_triggers_flush():
    options = small_test_options()  # 64-entry buffer
    db = LSMTree(options)
    db.write(_filled(100))
    assert db.stats.get("op.flushes") >= 1
    for i in (1, 50, 100):
        assert db.get(i) == b"v%d" % i


# -- group commit -------------------------------------------------------

def test_batch_issues_exactly_one_group_commit():
    db = LSMTree(small_test_options(enable_wal=True))
    before = db.stats.snapshot()
    db.write(_filled(25))
    delta = before.delta(db.stats)
    assert delta.counter(WAL_GROUP_COMMITS) == 1
    assert delta.counter(WAL_RECORDS_APPENDED) == 25
    assert delta.counter(WRITE_CALLS) == 1


def test_individual_puts_commit_one_frame_each():
    db = LSMTree(small_test_options(enable_wal=True))
    before = db.stats.snapshot()
    for i in range(5):
        db.put(i + 1, b"x")
    delta = before.delta(db.stats)
    assert delta.counter(WAL_GROUP_COMMITS) == 5


def test_group_commit_amortizes_write_path_time():
    def write_us(batch_size):
        db = LSMTree(small_test_options(enable_wal=True,
                                        write_buffer_bytes=1 << 20))
        before = db.stats.snapshot()
        batch = WriteBatch()
        for i in range(64):
            batch.put(i + 1, b"v")
            if len(batch) >= batch_size:
                db.write(batch)
                batch.clear()
        if batch:
            db.write(batch)
        from repro.storage.stats import Stage
        return before.delta(db.stats).stage_time(Stage.WRITE_PATH)

    assert write_us(16) < write_us(1)


# -- WAL framing and recovery -------------------------------------------

def test_wal_append_batch_roundtrip():
    wal = WriteAheadLog(MemoryBlockDevice())
    records = [make_value(i, i, b"r%d" % i) for i in range(1, 6)]
    wal.append_batch(records)
    assert list(wal.replay()) == records


def test_wal_mixed_single_and_batch_frames_replay_in_order():
    wal = WriteAheadLog(MemoryBlockDevice())
    wal.append(make_value(1, 1, b"a"))
    wal.append_batch([make_value(2, 2, b"b"), make_value(3, 3, b"c")])
    wal.append(make_value(4, 4, b"d"))
    assert [record.key for record in wal.replay()] == [1, 2, 3, 4]


def test_crash_recovery_replays_batch():
    options = small_test_options(enable_wal=True)
    db = LSMTree(options)
    db.write(_filled(12))
    # Simulate a crash: reopen from the same device without flushing.
    recovered = LSMTree.reopen(options, db.device)
    for i in range(1, 13):
        assert recovered.get(i) == b"v%d" % i


def test_torn_batch_frame_drops_whole_batch():
    device = MemoryBlockDevice()
    wal = WriteAheadLog(device)
    wal.append_batch([make_value(1, 1, b"keep"), make_value(2, 2, b"keep")])
    wal.append_batch([make_value(3, 3, b"torn"), make_value(4, 4, b"torn")])
    data = device.pread("wal", 0, device.size("wal"))
    device.create("wal")
    device.append("wal", data[:-3])  # chop the final frame
    survivors = list(WriteAheadLog(device).replay())
    # All-or-nothing: the second batch vanishes entirely.
    assert [record.key for record in survivors] == [1, 2]
