"""WAL crash consistency: every truncation point yields a batch prefix.

The group-commit guarantee is all-or-nothing per frame: a crash that
tears the log mid-frame must recover exactly the acknowledged batches
before it — never a partial batch, never a reordering.  These tests
prove it exhaustively by truncating a multi-batch log at *every* byte
offset.
"""

import pytest

from repro.errors import PowerCutError
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.wal import WriteAheadLog
from repro.lsm.write_batch import WriteBatch
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice


def _batches(count=5, width=4):
    """`count` batches of `width` records with distinct keys/values."""
    out = []
    seq = 1
    for b in range(count):
        batch = []
        for i in range(width):
            key = b * width + i
            batch.append(make_value(key, seq, b"b%d-r%d" % (b, i)))
            seq += 1
        out.append(batch)
    return out


def _replay_truncated(raw, cut):
    device = MemoryBlockDevice(block_size=256)
    device.create("wal")
    device.append("wal", bytes(raw[:cut]))
    return list(WriteAheadLog(device).replay())


def test_every_truncation_offset_recovers_a_batch_prefix():
    device = MemoryBlockDevice(block_size=256)
    wal = WriteAheadLog(device)
    batches = _batches()
    for batch in batches:
        wal.append_batch(batch)
    raw = device.pread("wal", 0, device.size("wal"))

    # Frame boundaries: recovery at exactly a boundary keeps all prior
    # batches; anywhere inside a frame drops it entirely.
    prefixes = [[]]
    for batch in batches:
        prefixes.append(prefixes[-1] + batch)

    seen_lengths = set()
    for cut in range(len(raw) + 1):
        recovered = _replay_truncated(raw, cut)
        assert recovered in prefixes, (
            f"truncation at byte {cut} recovered a non-prefix: "
            f"{len(recovered)} records")
        seen_lengths.add(len(recovered))
    # Every prefix (including empty and complete) is reachable.
    assert seen_lengths == {len(p) for p in prefixes}


def test_truncated_wal_reopens_with_acknowledged_prefix():
    options = small_test_options(index_kind=IndexKind.PGM,
                                 enable_wal=True)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    batches = _batches(count=4, width=3)
    for batch in batches:
        wb = WriteBatch()
        for record in batch:
            wb.put(record.key, record.value)
        db.write(wb)
    raw = device.pread("wal", 0, device.size("wal"))

    # Cut mid-way through the third frame: reopen must surface batches
    # one and two completely and nothing of batch three.
    frame_len = len(raw) // len(batches)
    cut = 2 * frame_len + frame_len // 2
    fresh = MemoryBlockDevice(block_size=options.block_size)
    fresh.create("wal")
    fresh.append("wal", raw[:cut])
    reopened = LSMTree.reopen(options, fresh)
    for record in batches[0] + batches[1]:
        assert reopened.get(record.key) == record.value
    for record in batches[2] + batches[3]:
        assert reopened.get(record.key) is None


def test_write_after_a_torn_tail_survives_the_next_crash():
    """A reopen cuts the torn tail off before it appends: a write
    acknowledged after it must survive a second crash, at every cut."""
    options = small_test_options(index_kind=IndexKind.PGM,
                                 enable_wal=True)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    batches = _batches(count=3, width=2)
    for batch in batches:
        wb = WriteBatch()
        for record in batch:
            wb.put(record.key, record.value)
        db.write(wb)
    raw = device.pread("wal", 0, device.size("wal"))
    records = [record for batch in batches for record in batch]
    prefixes = [records[:2 * count] for count in range(len(batches) + 1)]

    for cut in range(len(raw) + 1):
        crashed = MemoryBlockDevice(block_size=options.block_size)
        crashed.create("wal")
        crashed.append("wal", raw[:cut])
        LSMTree.reopen(options, crashed).put(1000, b"after")
        # Crash again (no close) and reopen.
        again = LSMTree.reopen(options, crashed)
        assert again.get(1000) == b"after", f"write after cut {cut} lost"
        recovered = [record for record in records
                     if again.get(record.key) == record.value]
        assert recovered in prefixes, f"cut {cut} recovered a non-prefix"


@pytest.mark.faults
@pytest.mark.parametrize("budget", [64, 257, 800, 1501, 3000])
def test_power_cut_fuzz_never_loses_acknowledged_batches(budget):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 enable_wal=True)
    inner = MemoryBlockDevice(block_size=options.block_size)
    faulty = FaultyBlockDevice(
        inner, FaultPlan(seed=budget, power_cut_after_bytes=budget))
    db = LSMTree(options, device=faulty)
    acked, torn = [], None
    batch_no = 0
    while torn is None and batch_no < 400:
        keys = [batch_no * 7 + i for i in range(7)]
        wb = WriteBatch()
        for key in keys:
            wb.put(key, b"p%d" % key)
        try:
            db.write(wb)
            acked.append(keys)
        except Exception:
            torn = keys
        batch_no += 1
    assert torn is not None, "budget never tripped the cut"

    faulty.revive()
    reopened = LSMTree.reopen(options, db.device)
    for keys in acked:
        for key in keys:
            assert reopened.get(key) == b"p%d" % key, (
                f"acknowledged key {key} lost after power cut")
    # The torn batch is all-or-nothing.
    present = sum(1 for key in torn
                  if reopened.get(key) == b"p%d" % key)
    assert present in (0, len(torn))
