"""Scrub and repair: verify every table region, rewrite what survives.

A scrub is the operator's answer to media damage.  It walks every live
table, re-reads every byte region straight from the device (bypassing
both cache tiers — rot lives on the medium, not in memory), verifies
every checksum, and then repairs:

* a fully clean table is left alone;
* a damaged table with surviving data blocks is **rewritten**: the good
  blocks are decoded and rebuilt into a fresh table that takes the
  original's slot in the version, through the tree's own
  ``new_table``/``seal``/``commit`` (retraining level models where
  configured), and the damaged original is deleted;
* a table with nothing salvageable is **quarantined**: dropped from the
  version by a committed edit, then renamed to a ``quar-`` prefix
  (outside the manifest GC's ``sst-``/``mdl-`` namespaces, so it
  survives reopens for offline forensics) by the tree's
  ``_quarantine``, the same step a reopen takes for a table that
  cannot open.

Entries stored in damaged blocks are gone — scrub makes the loss
explicit (``entries_lost``) instead of leaving it to surface as
checksum errors at read time.  Scrub never clears read-only degraded
mode: that is an operator decision made after the device itself is
trusted again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Set

from repro.errors import StorageError, TransientIOError
from repro.lsm.record import Record, decode_entry, encode_records
from repro.lsm.sstable import (
    BLOCK_TRAILER_BYTES,
    FOOTER_BYTES,
    HEADER_BYTES,
    Table,
)
from repro.lsm.version import FileMetaData
from repro.storage.checksum import crc32c
from repro.storage.compression import decode_block
from repro.storage.stats import (
    SCRUB_BLOCKS_BAD,
    SCRUB_BLOCKS_CHECKED,
    SCRUB_ENTRIES_LOST,
    SCRUB_TABLES_CHECKED,
    SCRUB_TABLES_QUARANTINED,
    SCRUB_TABLES_REWRITTEN,
    Stage,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import LSMTree

@dataclass
class TableScrubResult:
    """What scrub found (and did) for one table."""

    name: str
    level: int
    blocks_checked: int = 0
    blocks_bad: int = 0
    entries_recovered: int = 0
    entries_lost: int = 0
    #: ``clean`` | ``rewritten`` | ``quarantined``
    action: str = "clean"
    #: Regions (``header``, ``block_index``, ...) that failed their CRC.
    bad_regions: List[str] = field(default_factory=list)
    #: Replacement file name when the table was rewritten.
    rewritten_as: Optional[str] = None

    @property
    def damaged(self) -> bool:
        """True when verification failed or a repair action was taken."""
        return bool(self.blocks_bad or self.bad_regions
                    or self.action != "clean")


@dataclass
class ScrubReport:
    """Aggregate outcome of one :meth:`LSMTree.scrub` pass."""

    tables: List[TableScrubResult] = field(default_factory=list)

    @property
    def tables_checked(self) -> int:
        return len(self.tables)

    @property
    def tables_rewritten(self) -> int:
        return sum(1 for t in self.tables if t.action == "rewritten")

    @property
    def tables_quarantined(self) -> int:
        return sum(1 for t in self.tables if t.action == "quarantined")

    @property
    def blocks_checked(self) -> int:
        return sum(t.blocks_checked for t in self.tables)

    @property
    def blocks_bad(self) -> int:
        return sum(t.blocks_bad for t in self.tables)

    @property
    def entries_recovered(self) -> int:
        return sum(t.entries_recovered for t in self.tables)

    @property
    def entries_lost(self) -> int:
        return sum(t.entries_lost for t in self.tables)

    @property
    def clean(self) -> bool:
        """True when every table verified clean (nothing to repair)."""
        return all(not t.damaged for t in self.tables)

    def merge(self, other: "ScrubReport") -> None:
        """Fold another report's tables into this one (sharded scrub)."""
        self.tables.extend(other.tables)


def _scrub_read(db: "LSMTree", name: str, offset: int,
                length: int) -> bytes:
    """An uncached, retried, cost-charged read of one file region."""
    data = db.options.retry.call(
        lambda: db.device.pread_uncached(name, offset, length),
        db.stats, Stage.RECOVERY)
    db.stats.charge(Stage.RECOVERY, db.cost.read_us(
        db.cost.blocks_spanned(offset, length)))
    return data


def _verify_regions(db: "LSMTree", table: Table,
                    result: TableScrubResult) -> None:
    """CRC-check every non-data region against the in-memory footer.

    The footer held in memory was verified at open time; what scrub
    checks is whether the *on-device* copies still match it.
    """
    name = table.name
    footer = table.footer
    header = _scrub_read(db, name, 0, HEADER_BYTES)
    if (len(header) != HEADER_BYTES
            or crc32c(header[:-4]) != struct.unpack("<I", header[-4:])[0]):
        result.bad_regions.append("header")
    payload = _scrub_read(db, name, footer.block_index_offset,
                          footer.block_index_len)
    if crc32c(payload) != footer.block_index_crc:
        result.bad_regions.append("block_index")
    if footer.index_len:
        payload = _scrub_read(db, name, footer.index_offset,
                              footer.index_len)
        if crc32c(payload) != footer.index_crc:
            result.bad_regions.append("index")
    payload = _scrub_read(db, name, footer.bloom_offset, footer.bloom_len)
    if crc32c(payload) != footer.bloom_crc:
        result.bad_regions.append("bloom")
    size = db.device.size(name)
    tail = _scrub_read(db, name, size - FOOTER_BYTES, FOOTER_BYTES)
    if crc32c(tail[:-4]) != struct.unpack("<I", tail[-4:])[0]:
        result.bad_regions.append("footer")


def _verify_blocks(db: "LSMTree", table: Table,
                   result: TableScrubResult) -> Set[int]:
    """CRC-check every data block; returns the bad block numbers."""
    bad: Set[int] = set()
    for block_no, (_first_key, offset, stored_len, _raw) in \
            enumerate(table.handles):
        db.stats.add(SCRUB_BLOCKS_CHECKED)
        result.blocks_checked += 1
        try:
            stored = _scrub_read(db, table.name, offset, stored_len)
        except (TransientIOError, StorageError):
            bad.add(block_no)
            continue
        if (len(stored) != stored_len
                or stored_len <= BLOCK_TRAILER_BYTES
                or crc32c(stored[:-4])
                != struct.unpack("<I", stored[-4:])[0]):
            bad.add(block_no)
    return bad


def _salvage_records(db: "LSMTree", table: Table,
                     bad: Set[int]) -> List[Record]:
    """Decode every entry stored in the table's *good* data blocks."""
    footer = table.footer
    records: List[Record] = []
    for block_no, (_first_key, offset, stored_len, raw_len) in \
            enumerate(table.handles):
        if block_no in bad:
            continue
        stored = _scrub_read(db, table.name, offset, stored_len)
        payload = stored[:-BLOCK_TRAILER_BYTES]
        codec_id = stored[-BLOCK_TRAILER_BYTES]
        raw = (payload if codec_id == 0
               else decode_block(codec_id, payload, raw_len,
                                 file=table.name, block=block_no))
        for entry_offset in range(0, len(raw), footer.entry_bytes):
            records.append(decode_entry(raw, entry_offset,
                                        footer.value_capacity))
    return records


def _replace(db: "LSMTree", level: int, meta: FileMetaData,
             replacement: Optional[FileMetaData]) -> None:
    """Swap ``meta`` for ``replacement`` in its slot, durably; the commit
    deletes ``meta``'s file once the edit is appended.  With no
    replacement the table is dropped and its file quarantined."""
    db.version.replace_file(level, meta, replacement)
    db.commit("scrub", Stage.COMPACT_WRITE,
              added=[] if replacement is None else [(level, replacement)],
              retired=[(level, meta)], retrain=[level] if level >= 1 else [],
              quarantine="" if replacement else SCRUB_TABLES_QUARANTINED)


def _scrub_table(db: "LSMTree", level: int,
                 meta: FileMetaData) -> TableScrubResult:
    table = meta.table
    result = TableScrubResult(name=table.name, level=level)
    db.stats.add(SCRUB_TABLES_CHECKED)
    _verify_regions(db, table, result)
    bad = _verify_blocks(db, table, result)
    result.blocks_bad = len(bad)
    if bad:
        db.stats.add(SCRUB_BLOCKS_BAD, len(bad))
    # Quarantined blocks that now verify clean (the medium was
    # replaced, or the damage was in a cache tier) are *salvageable* —
    # but the table is still rewritten, because the quarantine on the
    # old file is sticky by design.
    stale_quarantine = {b for b in table.quarantined_blocks
                        if b < len(table.handles)} - bad
    if not bad and not result.bad_regions and not stale_quarantine:
        return result
    records = _salvage_records(db, table, bad)
    result.entries_recovered = len(records)
    result.entries_lost = table.entry_count - len(records)
    if result.entries_lost > 0:
        db.stats.add(SCRUB_ENTRIES_LOST, result.entries_lost)
    if records:
        builder = db.new_table(level)
        builder.append(*encode_records(records, db.options.value_capacity))
        replacement = db.seal(builder)
        _replace(db, level, meta, replacement)
        db.stats.add(SCRUB_TABLES_REWRITTEN)
        result.action = "rewritten"
        result.rewritten_as = replacement.name
    else:
        _replace(db, level, meta, None)
        result.action = "quarantined"
    return result


def scrub_tree(db: "LSMTree") -> ScrubReport:
    """Verify and repair every live table of ``db``; see module docs."""
    report = ScrubReport()
    # ``all_files`` is a snapshot: repairs edit the version as they go.
    for level, meta in db.version.all_files():
        report.tables.append(_scrub_table(db, level, meta))
    return report
