"""Internal record encoding for the LSM-tree.

Every entry in the system is a :class:`Record`: a 64-bit user key, a
monotonically increasing sequence number (newer wins), a kind (value or
tombstone) and a byte-string value.

On disk, entries are *fixed size*: ``8 (key) + 8 (seq<<8 | kind) +
4 (value length) + value_capacity`` bytes.  Fixed-size entries are what
make learned indexes directly usable as file indexes — a predicted
position converts to an exact byte offset with one multiplication,
exactly like the paper's 24-byte-key / 1000-byte-value workloads.  The
codec zero-pads short values and rejects oversized ones.

:func:`encode_entry` encodes one record; :func:`encode_entries` encodes
a table's worth of entries given as columns in one numpy pass, to the
same bytes.  The table builders (flush, bulk ingest, scrub) use the
column form; compaction copies stored entries and encodes nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.errors import CorruptionError, InvalidOptionError

#: Record kinds.
KIND_VALUE = 0
KIND_TOMBSTONE = 1

#: Fixed per-entry overhead: key (8) + packed seq/kind (8) + value len (4).
ENTRY_HEADER_BYTES = 20

_HEADER = struct.Struct("<QQI")

#: Maximum encodable user key (64-bit unsigned).
MAX_KEY = (1 << 64) - 1

#: Maximum sequence number (56 bits — the top byte packs the kind).
MAX_SEQ = (1 << 56) - 1


@dataclass(frozen=True)
class Record:
    """One versioned key-value entry."""

    key: int
    seq: int
    kind: int
    value: bytes

    @property
    def is_tombstone(self) -> bool:
        """True when this record deletes its key."""
        return self.kind == KIND_TOMBSTONE


def make_value(key: int, seq: int, value: bytes) -> Record:
    """A put record."""
    return Record(key, seq, KIND_VALUE, value)


def make_tombstone(key: int, seq: int) -> Record:
    """A delete record."""
    return Record(key, seq, KIND_TOMBSTONE, b"")


def entry_size(value_capacity: int) -> int:
    """On-disk bytes per entry for a given value capacity."""
    return ENTRY_HEADER_BYTES + value_capacity


def encode_entry(record: Record, value_capacity: int) -> bytes:
    """Fixed-size encoding of ``record``; zero-pads the value slot."""
    if not 0 <= record.key <= MAX_KEY:
        raise InvalidOptionError(f"key out of range: {record.key}")
    if not 0 <= record.seq <= MAX_SEQ:
        raise InvalidOptionError(f"sequence out of range: {record.seq}")
    if len(record.value) > value_capacity:
        raise InvalidOptionError(
            f"value of {len(record.value)} bytes exceeds capacity "
            f"{value_capacity}")
    meta = (record.seq << 8) | record.kind
    header = _HEADER.pack(record.key, meta, len(record.value))
    padding = b"\x00" * (value_capacity - len(record.value))
    return header + record.value + padding


def encode_entries(keys: Sequence[int],
                   seqs: Union[Sequence[int], np.ndarray],
                   kinds: Union[Sequence[int], int],
                   values: Sequence[bytes], value_capacity: int) -> bytes:
    """:func:`encode_entry` of n entries given as columns, back to back.

    ``kinds`` is a column or one kind for every entry.  One packed
    structured array holds the headers and the zero-padded value slots,
    so its ``tobytes()`` is the concatenated per-record encodings byte
    for byte — a value ending in NUL bytes included, since its length
    field says where it ends.  Like :func:`encode_entry`, raises
    :class:`~repro.errors.InvalidOptionError` for an oversized value or
    a key or seq out of range, before encoding anything.
    """
    lengths = np.fromiter(map(len, values), dtype=np.int64,
                          count=len(values))
    if lengths.size and lengths.max() > value_capacity:
        raise InvalidOptionError(
            f"value of {lengths.max()} bytes exceeds capacity "
            f"{value_capacity}")
    rows = np.empty(len(keys), dtype=[
        ("key", "<u8"), ("meta", "<u8"), ("len", "<u4"),
        ("value", f"S{value_capacity}")])
    try:
        rows["key"] = keys
        seqs = np.asarray(seqs, dtype=np.uint64)
    except OverflowError:
        raise InvalidOptionError(
            "a key or sequence is outside [0, 2**64)") from None
    if seqs.size and seqs.max() > MAX_SEQ:
        raise InvalidOptionError(f"sequence out of range: {seqs.max()}")
    rows["meta"] = seqs << 8 | np.asarray(kinds, dtype=np.uint64)
    rows["len"] = lengths
    rows["value"] = values
    return rows.tobytes()


_FIELDS = attrgetter("key", "seq", "kind", "value")


def encode_records(records: Iterable[Record], value_capacity: int,
                   ) -> Tuple[Sequence[int], bytes, int]:
    """``(keys, entries, max_seq)`` of non-empty, key-sorted ``records``:
    what :meth:`~repro.lsm.sstable.TableBuilder.append` takes."""
    keys, seqs, kinds, values = zip(*map(_FIELDS, records))
    return (keys, encode_entries(keys, seqs, kinds, values, value_capacity),
            max(seqs))


def decode_entry(buf: bytes, offset: int, value_capacity: int) -> Record:
    """Decode the fixed-size entry starting at ``offset`` in ``buf``."""
    end = offset + ENTRY_HEADER_BYTES
    if end > len(buf):
        raise CorruptionError(
            f"truncated entry header at offset {offset} (buffer "
            f"{len(buf)} bytes)")
    key, meta, value_len = _HEADER.unpack_from(buf, offset)
    if value_len > value_capacity:
        raise CorruptionError(
            f"entry at offset {offset} claims value of {value_len} bytes, "
            f"capacity is {value_capacity}")
    value_end = end + value_len
    if value_end > len(buf):
        raise CorruptionError(f"truncated entry value at offset {offset}")
    return Record(key=key, seq=meta >> 8, kind=meta & 0xFF,
                  value=bytes(buf[end:value_end]))


def decode_key(buf: bytes, offset: int) -> int:
    """Decode only the user key of the entry at ``offset`` (cheap probe)."""
    if offset + 8 > len(buf):
        raise CorruptionError(f"truncated entry key at offset {offset}")
    return struct.unpack_from("<Q", buf, offset)[0]
