"""Write-ahead log: CRC-framed record groups on the block device.

Disabled by default (the paper's benchmarks measure the read path and
compaction, not fsync behaviour) but fully functional: every put or
delete appends one frame, and a :class:`~repro.lsm.write_batch.WriteBatch`
appends one frame holding *all* of its records — the group commit the
serving layer relies on to amortize logging.  On reopen,
:meth:`WriteAheadLog.replay` yields the surviving records so the
memtable can be reconstructed.  Torn or corrupt tails are detected via
CRC32 and truncated, mirroring LevelDB's recovery semantics;
because the CRC covers the whole frame, a torn group commit drops the
entire batch, never a prefix of it.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Sequence

from repro.errors import CorruptionError
from repro.lsm.record import Record
from repro.storage.framing import frame, parse_frames
from repro.storage.stats import WAL_GROUP_COMMITS, WAL_RECORDS_APPENDED
from repro.storage.block_device import BlockDevice

_PAYLOAD_HEADER = struct.Struct("<QQI")  # key, seq<<8|kind, value length

#: Device file the log lives in.
WAL_NAME = "wal"
#: Scratch file a torn log's intact frames are rewritten through.
WAL_TMP_NAME = "wal.tmp"


def _encode_record(record: Record) -> bytes:
    meta = (record.seq << 8) | record.kind
    return _PAYLOAD_HEADER.pack(record.key, meta, len(record.value)) + record.value


def _decode_records(payload: bytes) -> List[Record]:
    """Decode the record sequence of one frame (1 for puts, K for batches)."""
    records: List[Record] = []
    offset = 0
    while offset < len(payload):
        if offset + _PAYLOAD_HEADER.size > len(payload):
            raise CorruptionError("WAL payload shorter than its header")
        key, meta, value_len = _PAYLOAD_HEADER.unpack_from(payload, offset)
        offset += _PAYLOAD_HEADER.size
        value = payload[offset:offset + value_len]
        if len(value) != value_len:
            raise CorruptionError("WAL payload value truncated")
        offset += value_len
        records.append(Record(key=key, seq=meta >> 8, kind=meta & 0xFF,
                              value=bytes(value)))
    return records


class WriteAheadLog:
    """An append-only log of record groups with per-frame CRCs."""

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        if not device.exists(WAL_NAME):
            device.create(WAL_NAME)

    def append(self, record: Record) -> None:
        """Durably append one record (a group commit of one)."""
        self.append_batch((record,))

    def append_batch(self, records: Sequence[Record]) -> None:
        """Durably append ``records`` as one group commit.

        All records share a single CRC-framed device append, so a batch
        of K costs one write call instead of K and is recovered
        all-or-nothing.  Empty batches are a no-op.
        """
        if not records:
            return
        payload = b"".join(_encode_record(record) for record in records)
        self.device.append(WAL_NAME, frame(payload))
        self.device.stats.add(WAL_GROUP_COMMITS)
        self.device.stats.add(WAL_RECORDS_APPENDED, len(records))

    def replay(self) -> Iterator[Record]:
        """Yield every intact record, cutting off a torn or corrupt tail.

        Before the first record is yielded, and so before any append, a
        torn log is rewritten to its intact frames via a renamed scratch
        file: a frame appended behind torn bytes would be lost to every
        later replay.  An intact log is left as it is.

        Reads bypass any block-cache tier: log blocks are replayed
        once and never read again, so admitting them would only evict
        hot table blocks during recovery.
        """
        data = self.device.pread_uncached(WAL_NAME, 0,
                                          self.device.size(WAL_NAME))
        payloads, torn = parse_frames(data)
        if torn:
            self.device.create(WAL_TMP_NAME)
            self.device.append(WAL_TMP_NAME, b"".join(map(frame, payloads)))
            self.device.rename(WAL_TMP_NAME, WAL_NAME)
        for payload in payloads:
            yield from _decode_records(payload)

    def reset(self) -> None:
        """Truncate the log (called after a successful flush)."""
        self.device.delete(WAL_NAME)
        self.device.create(WAL_NAME)

    def size_bytes(self) -> int:
        """Current log length."""
        return self.device.size(WAL_NAME)
