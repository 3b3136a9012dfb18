"""SSTables: the one on-disk table format (v3, ``LIT_LSM3``).

The paper's ``LearnedIndexTable`` (Section 4.2) keeps a sorted entry
array, a learned-index payload and a bloom filter in one file.  This is
that table in the block-structured shape LevelDB and RocksDB ship —
per-block compression and checksums — with the paper's read algorithm
intact:

::

    [ header: magic, format version, entry size, CRC-32 ]
    [ data block 0: codec(entries) + (codec id, CRC-32) trailer ]
    [ ... data block k ...                                      ]
    [ sparse block index: (first_key, offset, stored, raw) rows ]
    [ learned index payload (absent under level granularity)    ]
    [ bloom filter payload                                      ]
    [ footer: counts, region offsets + CRC-32s, key range,      ]
    [         compression totals, self-CRC-32                   ]

Entries are grouped into fixed-target-size blocks of
``entries_per_block = max(1, data_block_bytes // entry_bytes)``
entries; each block is independently compressed (see
:mod:`repro.storage.compression`) and protected by a CRC-32
(:mod:`repro.storage.checksum`) over its stored payload and codec
byte.  Point lookups still follow the paper's
``InternalGet`` — predict a position bound, fetch, binary-search — but
the bound is first widened to whole blocks (the I/O unit), and fetched
blocks are verified, decoded, and optionally admitted to a
decompressed-block cache keyed by ``(file, block_no)``.

Checksums are verified on a block's *first* fetch by each open table
(memoised in one state byte per block), so hot blocks do not pay the
verification cost per read — the same trade RocksDB's
``verify_checksums`` block cache makes.  The memo covers the whole
authenticated trailer: a point lookup whose blocks were all verified as
stored raw binary-searches them in place in the one read buffer.  Any mismatch raises a typed
:class:`~repro.errors.ChecksumError` naming the file, region and block.
A file in any other format version is refused at open with a
:class:`~repro.errors.CorruptionError`, never reinterpreted.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, groupby, islice
from operator import itemgetter, lt
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import (
    ChecksumError,
    CorruptionError,
    QuarantinedBlockError,
)
from repro.indexes.base import ClusteredIndex, SearchBound
from repro.indexes.registry import IndexFactory, deserialize_index
from repro.lsm.bloom import BloomFilter
from repro.lsm.iterators import KVIterator
from repro.lsm.options import Options
from repro.lsm.record import (
    ENTRY_HEADER_BYTES,
    MAX_SEQ,
    Record,
    decode_entry,
    encode_entry,
)
from repro.persist.manifest import TABLE_FORMAT
from repro.storage.block_cache import DataBlockCache
from repro.storage.block_device import BlockDevice
from repro.storage.checksum import crc32c
from repro.storage.compression import by_name as codec_by_name
from repro.storage.compression import decode_block, encode_block
from repro.storage.cost_model import CostModel
from repro.storage.stats import (
    BLOCKS_VERIFIED,
    CHECKSUM_FAILURES,
    COMPRESS_BYTES_RAW,
    COMPRESS_BYTES_STORED,
    DATA_CACHE_EVICTIONS,
    DATA_CACHE_HITS,
    DATA_CACHE_MISSES,
    DECOMPRESS_BYTES,
    MODEL_BYTES_WRITTEN,
    MULTIGET_COALESCED,
    MULTIGET_SEEKS_SAVED,
    QUARANTINED_BLOCKS,
    SEEKS,
    SEGMENTS_FETCHED,
    TRAIN_KEY_VISITS,
    Stage,
    Stats,
)

_MAGIC = 0x4C49545F4C534D33  # "LIT_LSM3"

#: Point-read stages as globals: a global read, not an enum lookup.
_PREDICTION, _IO, _SEARCH = Stage.PREDICTION, Stage.IO, Stage.SEARCH
_SCAN, _DECOMPRESS = Stage.SCAN, Stage.DECOMPRESS

#: File header: magic, format_version, entry_bytes, CRC-32 of the rest.
_HEADER = struct.Struct("<QIII")
HEADER_BYTES = _HEADER.size

#: Per data block trailer: codec id, CRC-32 over payload + codec byte.
_BLOCK_TRAILER = struct.Struct("<BI")
BLOCK_TRAILER_BYTES = _BLOCK_TRAILER.size

#: Per-block read state of an open table (one byte each).  Both
#: verified states mean "CRC matched on first fetch"; ``_VERIFIED_RAW``
#: also records what the CRC-covered trailer and index row said — codec
#: 0, stored payload length == raw length — so the payload *is* the slice.
_UNVERIFIED, _VERIFIED_RAW, _VERIFIED_CODED, _QUARANTINED = range(4)

#: One sparse-index row: first_key, file offset, stored len, raw len.
_BLOCK_INDEX_ENTRY = struct.Struct("<QQII")

#: The user key leading every entry: what a point search probes.
_KEY = struct.Struct("<Q")

#: A sparse-index row's first key: what a point search bisects blocks by.
_FIRST_KEY = itemgetter(0)

#: A batched lookup's ``(key, lo, hi)``: what its bounds are sorted by.
_BOUNDS = itemgetter(1, 2)

# magic, format_version, entry_count, entry_bytes, value_capacity,
# entries_per_block, block_count, block_index (offset, len, crc),
# learned index (offset, len, crc), bloom (offset, len, crc),
# data_raw_bytes, data_stored_bytes, min_key, max_key, level, max_seq,
# footer self-crc.
_FOOTER = struct.Struct("<QIQIIIIQQIQQIQQIQQQQIQI")
FOOTER_BYTES = _FOOTER.size


@dataclass(frozen=True)
class TableFooter:
    """Decoded footer of one table file.

    ``level`` and ``max_seq`` make files self-describing, so a database
    can be reopened from the device alone (see ``LSMTree.reopen``).
    """

    entry_count: int
    entry_bytes: int
    value_capacity: int
    index_offset: int
    index_len: int
    bloom_offset: int
    bloom_len: int
    min_key: int
    max_key: int
    level: int = 0
    max_seq: int = 0
    entries_per_block: int = 0
    block_count: int = 0
    block_index_offset: int = 0
    block_index_len: int = 0
    block_index_crc: int = 0
    index_crc: int = 0
    bloom_crc: int = 0
    data_raw_bytes: int = 0
    data_stored_bytes: int = 0

    def pack(self) -> bytes:
        """Serialise (self-checksummed)."""
        head = _FOOTER.pack(
            _MAGIC, TABLE_FORMAT, self.entry_count,
            self.entry_bytes, self.value_capacity, self.entries_per_block,
            self.block_count, self.block_index_offset, self.block_index_len,
            self.block_index_crc, self.index_offset, self.index_len,
            self.index_crc, self.bloom_offset, self.bloom_len,
            self.bloom_crc, self.data_raw_bytes, self.data_stored_bytes,
            self.min_key, self.max_key, self.level, self.max_seq, 0)[:-4]
        return head + struct.pack("<I", crc32c(head))

    @classmethod
    def unpack(cls, data: bytes, name: str = "?") -> "TableFooter":
        """Decode a footer: self-CRC first, then magic and version."""
        if len(data) != FOOTER_BYTES:
            raise CorruptionError(
                f"table {name}: footer must be {FOOTER_BYTES} bytes, "
                f"got {len(data)}")
        (magic, format_version, entry_count, entry_bytes, value_capacity,
         entries_per_block, block_count, block_index_offset,
         block_index_len, block_index_crc, index_offset, index_len,
         index_crc, bloom_offset, bloom_len, bloom_crc, data_raw_bytes,
         data_stored_bytes, min_key, max_key, level, max_seq,
         footer_crc) = _FOOTER.unpack(data)
        if crc32c(data[:-4]) != footer_crc:
            raise ChecksumError(name, "footer")
        if magic != _MAGIC or format_version != TABLE_FORMAT:
            raise CorruptionError(
                f"table {name}: unsupported format version "
                f"{format_version} (magic {magic:#x}); only version "
                f"{TABLE_FORMAT} is readable")
        return cls(entry_count=entry_count, entry_bytes=entry_bytes,
                   value_capacity=value_capacity, index_offset=index_offset,
                   index_len=index_len, bloom_offset=bloom_offset,
                   bloom_len=bloom_len, min_key=min_key, max_key=max_key,
                   level=level, max_seq=max_seq,
                   entries_per_block=entries_per_block,
                   block_count=block_count,
                   block_index_offset=block_index_offset,
                   block_index_len=block_index_len,
                   block_index_crc=block_index_crc, index_crc=index_crc,
                   bloom_crc=bloom_crc, data_raw_bytes=data_raw_bytes,
                   data_stored_bytes=data_stored_bytes)


def entries_per_block_for(options: Options) -> int:
    """How many entries one data block of a new table holds."""
    return max(1, options.data_block_bytes // options.entry_bytes)


class TableBuilder:
    """Builds one table file from sorted entries (the paper's BuildTable).

    Entries arrive through :meth:`append`, the one way in: runs of
    already-encoded entries with their keys, in strictly increasing key
    order (compaction outputs, flushed memtables and bulk-ingest key
    sets satisfy this by construction).  :meth:`finish` cuts the
    appended bytes into data blocks, so a table costs a handful of
    calls, not one per entry.  Training cost, data-write cost,
    compression cost and model-write cost are charged to the compaction
    stages so Figure 9's breakdown can be read straight from the stats
    registry.
    """

    def __init__(self, device: BlockDevice, name: str, options: Options,
                 index_factory: Optional[IndexFactory], stats: Stats,
                 cost: CostModel, level: int = 0,
                 data_cache: Optional[DataBlockCache] = None) -> None:
        self.device = device
        self.name = name
        self.options = options
        self.index_factory = index_factory
        self.stats = stats
        self.cost = cost
        self.level = level
        self.data_cache = data_cache
        self._entry_bytes = options.entry_bytes
        self._keys: List[int] = []
        self._chunks: List[bytes] = []
        self._max_seq = 0
        self._finished = False

    def append(self, keys: Sequence[int], entries: bytes,
               max_seq: int) -> None:
        """Append a run of encoded entries.

        ``entries`` holds one ``entry_bytes`` encoding per key of
        ``keys``, back to back (see
        :func:`~repro.lsm.record.encode_entries`); ``max_seq`` is the
        largest seq among them.  Checked once per call, and a refused
        call appends nothing — each raises
        :class:`~repro.errors.CorruptionError`:

        * keys strictly increase, within the run and after the keys
          already appended;
        * ``entries`` is exactly ``len(keys)`` whole entries;
        * ``max_seq`` is at most :data:`~repro.lsm.record.MAX_SEQ`.
        """
        if len(entries) != len(keys) * self._entry_bytes:
            raise CorruptionError(
                f"table builder got {len(entries)} bytes for {len(keys)} "
                f"entries of {self._entry_bytes} bytes")
        if not keys:
            return
        previous = self._keys[-1] if self._keys else -1
        if keys[0] <= previous or not all(map(lt, keys,
                                               islice(keys, 1, None))):
            previous, key = next(
                (a, b) for a, b in zip(chain((previous,), keys), keys)
                if b <= a)
            raise CorruptionError(
                f"table builder keys must strictly increase: "
                f"{previous} then {key}")
        if max_seq > MAX_SEQ:
            raise CorruptionError(
                f"table builder seq {max_seq} exceeds {MAX_SEQ}")
        self._keys.extend(keys)
        self._chunks.append(entries)
        if max_seq > self._max_seq:
            self._max_seq = max_seq

    def add(self, record: Record) -> None:
        """Append one record: :meth:`append` of its encoding."""
        self.append((record.key,),
                    encode_entry(record, self.options.value_capacity),
                    record.seq)

    @property
    def entry_count(self) -> int:
        """Records added so far."""
        return len(self._keys)

    def _encode_data_blocks(self, data: bytes) -> Tuple[
            List[bytes], List[Tuple[int, int, int, int]], int]:
        """Cut the appended entries into data blocks.

        Returns ``(pieces, handles, stored)``: every block's stored
        payload and trailer in file order, the sparse-index rows, and
        the codec output bytes.  Blocks are zero-copy views of ``data``
        until the codec or the file write copies them.
        """
        cost = self.cost
        stats = self.stats
        codec = codec_by_name(self.options.block_codec)
        entry_bytes = self._entry_bytes
        block_bytes = entries_per_block_for(self.options) * entry_bytes
        keys = self._keys
        view = memoryview(data)
        pieces: List[bytes] = []
        handles: List[Tuple[int, int, int, int]] = []
        offset = HEADER_BYTES
        stored_total = 0
        for start in range(0, len(data), block_bytes):
            raw = view[start:start + block_bytes]
            codec_id, payload = encode_block(codec, raw)
            if codec.codec_id != 0:
                stats.charge(Stage.COMPACT_COMPRESS, cost.compress_us(len(raw)))
            # CRC-32 over payload + codec byte, chained: no joined copy.
            pieces.append(payload)
            pieces.append(_BLOCK_TRAILER.pack(
                codec_id, crc32c(bytes((codec_id,)), crc32c(payload))))
            stored = len(payload) + BLOCK_TRAILER_BYTES
            handles.append((keys[start // entry_bytes], offset, stored,
                            len(raw)))
            offset += stored
            # Codec output only: the per-block trailer is framing, so
            # an uncompressed table reports a ratio of exactly 1.0.
            stored_total += len(payload)
        stats.add(COMPRESS_BYTES_RAW, len(data))
        stats.add(COMPRESS_BYTES_STORED, stored_total)
        stats.charge(Stage.COMPACT_WRITE, cost.checksum_us(stored_total))
        return pieces, handles, stored_total

    def finish(self) -> "Table":
        """Write data blocks, train + serialise the index, bloom, footer."""
        if self._finished:
            raise CorruptionError("TableBuilder.finish called twice")
        if not self._keys:
            raise CorruptionError("cannot finish an empty table")
        self._finished = True
        device = self.device
        cost = self.cost
        stats = self.stats

        entries = b"".join(self._chunks)
        raw_total = len(entries)
        pieces, handles, stored_total = self._encode_data_blocks(entries)
        header_head = _HEADER.pack(_MAGIC, TABLE_FORMAT,
                                   self._entry_bytes, 0)[:-4]
        header = header_head + struct.pack("<I", crc32c(header_head))

        device.create(self.name)
        data = b"".join([header, *pieces])
        device.append(self.name, data)
        nblocks = (len(data) + device.block_size - 1) // device.block_size
        stats.charge(Stage.COMPACT_WRITE, cost.write_us(nblocks))

        # Train the per-table index (skipped under level granularity,
        # where the level model is built by the caller).
        index: Optional[ClusteredIndex] = None
        index_payload = b""
        if self.index_factory is not None:
            index = self.index_factory.create()
            index.build(self._keys)
            stats.add(TRAIN_KEY_VISITS, index.train_key_visits)
            stats.charge(Stage.COMPACT_TRAIN,
                         cost.train_us(index.train_key_visits))
            index_payload = index.serialize()
            stats.add(MODEL_BYTES_WRITTEN, len(index_payload))
            stats.charge(Stage.COMPACT_WRITE_MODEL,
                         cost.model_write_us(len(index_payload)))

        bloom = BloomFilter.build(self._keys, self.options.bloom_bits_per_key)
        # Bloom construction costs one cheap hash-insert per key and is
        # identical across index types; charge it with the data write.
        stats.charge(Stage.COMPACT_WRITE,
                     cost.index_compare_us * len(self._keys))
        bloom_payload = bloom.serialize()

        block_index_payload = b"".join(
            _BLOCK_INDEX_ENTRY.pack(*handle) for handle in handles)
        block_index_offset = len(data)
        index_offset = block_index_offset + len(block_index_payload)
        bloom_offset = index_offset + len(index_payload)
        footer = TableFooter(
            entry_count=len(self._keys),
            entry_bytes=self._entry_bytes,
            value_capacity=self.options.value_capacity,
            index_offset=index_offset,
            index_len=len(index_payload),
            bloom_offset=bloom_offset,
            bloom_len=len(bloom_payload),
            min_key=self._keys[0],
            max_key=self._keys[-1],
            level=self.level,
            max_seq=self._max_seq,
            entries_per_block=entries_per_block_for(self.options),
            block_count=len(handles),
            block_index_offset=block_index_offset,
            block_index_len=len(block_index_payload),
            block_index_crc=crc32c(block_index_payload),
            index_crc=crc32c(index_payload),
            bloom_crc=crc32c(bloom_payload),
            data_raw_bytes=raw_total,
            data_stored_bytes=stored_total,
        )
        tail = (block_index_payload + index_payload + bloom_payload
                + footer.pack())
        device.append(self.name, tail)
        tail_blocks = (len(tail) + device.block_size - 1) // device.block_size
        stats.charge(Stage.COMPACT_WRITE, cost.write_us(tail_blocks))

        return Table(device=device, name=self.name, options=self.options,
                     stats=stats, cost=cost, footer=footer, index=index,
                     bloom=bloom, keys=self._keys, handles=handles,
                     data_cache=self.data_cache)


class Table:
    """An open, immutable table: the paper's ``LearnedIndexTable``.

    The sparse block index, learned index and bloom filter live in
    memory (as LevelDB caches them); data blocks are fetched from the
    device on demand, verified on first touch, decoded, and served —
    optionally through the decompressed-block cache.
    """

    def __init__(self, device: BlockDevice, name: str, options: Options,
                 stats: Stats, cost: CostModel, footer: TableFooter,
                 index: Optional[ClusteredIndex], bloom: BloomFilter,
                 handles: List[Tuple[int, int, int, int]],
                 keys: Optional[List[int]] = None,
                 data_cache: Optional[DataBlockCache] = None) -> None:
        self.device = device
        self.name = name
        self.options = options
        self.stats = stats
        self.cost = cost
        self.footer = footer
        self.index = index
        self.bloom = bloom
        self.data_cache = data_cache
        #: Sparse block index rows: one
        #: ``(first_key, offset, stored_len, raw_len)`` per data block.
        self.handles = handles
        #: One state byte per data block.  Verification is memoised per
        #: open table, so a hot block pays CRC work once; a block that
        #: failed it is quarantined — evicted from every cache tier and
        #: never read again: lookups touching one fail fast with
        #: :class:`~repro.errors.QuarantinedBlockError` while the rest
        #: of the table keeps serving.
        self._block_state = bytearray(len(handles))
        #: PREDICTION charge of one lookup: a pure function of the built
        #: index and the cost model, both fixed for this object's life.
        self._prediction_us = (index.expected_lookup_cost_us(cost)
                               if index is not None else 0.0)
        #: Data-cache hit charge of a block, fixed by its raw length:
        #: every block but the last holds ``entries_per_block`` entries.
        self._hit_us = cost.cache_block_us * max(1, cost.blocks_spanned(
            0, footer.entries_per_block * footer.entry_bytes))
        self._tail_hit_us = cost.cache_block_us * max(1, cost.blocks_spanned(
            0, handles[-1][3] if handles else 0))
        #: Largest entry gap a batched read reads through instead of
        #: re-seeking: two predicted segments closer than this are
        #: cheaper as one sequential pread (paying the extra transfer
        #: blocks) than as two (paying a second seek),
        #: ``gap_blocks * block_read_us < seek_us``.
        self._coalesce_gap = int(
            cost.seek_us // max(cost.block_read_us, 1e-9)) * (
                device.block_size // footer.entry_bytes)
        #: Kept only while needed by level-model rebuilds; dropped via
        #: :meth:`release_keys` otherwise.
        self.cached_keys = keys

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, device: BlockDevice, name: str, options: Options,
             stats: Stats, cost: CostModel,
             data_cache: Optional[DataBlockCache] = None) -> "Table":
        """Open a table from the device (recovery path).

        The self-checksummed footer is verified first, then its magic
        and format version, then header, block index, learned index and
        bloom against the CRCs the footer records.  The embedded index
        payload is *deserialized*, never retrained — per-table models
        pay their training cost exactly once, at build time.  All open
        reads are charged to the RECOVERY stage so cold-open
        experiments can report them.
        """
        size = device.size(name)
        if size < HEADER_BYTES + FOOTER_BYTES:
            raise CorruptionError(
                f"table {name}: {size} bytes is too small for a header "
                f"and a footer ({HEADER_BYTES + FOOTER_BYTES})")
        retry = options.retry

        def pread(offset: int, length: int) -> bytes:
            # Transient device errors during open are retried like any
            # other read; rot is not transient and surfaces below as a
            # region ChecksumError.
            return retry.call(lambda: device.pread(name, offset, length),
                              stats, Stage.RECOVERY)

        def charge(offset: int, length: int) -> None:
            stats.charge(Stage.RECOVERY, cost.read_us(
                cost.blocks_spanned(offset, length)))

        footer = TableFooter.unpack(
            pread(size - FOOTER_BYTES, FOOTER_BYTES), name)
        charge(size - FOOTER_BYTES, FOOTER_BYTES)

        header = pread(0, HEADER_BYTES)
        if (len(header) != HEADER_BYTES
                or crc32c(header[:-4])
                != struct.unpack("<I", header[-4:])[0]):
            raise ChecksumError(name, "header")
        magic, format_version, entry_bytes, _ = _HEADER.unpack(header)
        if (magic != _MAGIC or format_version != TABLE_FORMAT
                or entry_bytes != footer.entry_bytes):
            raise ChecksumError(name, "header",
                                detail="header disagrees with footer")
        payload = pread(footer.block_index_offset, footer.block_index_len)
        if crc32c(payload) != footer.block_index_crc:
            raise ChecksumError(name, "block_index")
        handles = list(_BLOCK_INDEX_ENTRY.iter_unpack(payload))
        if len(handles) != footer.block_count:
            raise ChecksumError(
                name, "block_index",
                detail=f"{len(handles)} rows, footer says "
                       f"{footer.block_count}")
        charge(0, HEADER_BYTES)
        charge(footer.block_index_offset, footer.block_index_len)

        index = None
        if footer.index_len:
            payload = pread(footer.index_offset, footer.index_len)
            if crc32c(payload) != footer.index_crc:
                raise ChecksumError(name, "index")
            index = deserialize_index(payload)
            charge(footer.index_offset, footer.index_len)
        bloom_payload = pread(footer.bloom_offset, footer.bloom_len)
        if crc32c(bloom_payload) != footer.bloom_crc:
            raise ChecksumError(name, "bloom")
        bloom = BloomFilter.deserialize(bloom_payload)
        charge(footer.bloom_offset, footer.bloom_len)
        return cls(device=device, name=name, options=options, stats=stats,
                   cost=cost, footer=footer, index=index, bloom=bloom,
                   handles=handles, data_cache=data_cache)

    def release_keys(self) -> None:
        """Drop the cached build-time key array."""
        self.cached_keys = None

    def load_keys(self) -> List[int]:
        """The sorted key array, read from the device at most once.

        The first call pays one sequential read of the data blocks
        (charged as compaction input, since key reloads only happen on
        behalf of level-model rebuilds); the result is cached and every
        later call — the level-model manager, a second rebuild of an
        adjacent level touching the same file — returns the same list
        without touching the device again.  Callers must treat the
        returned list as read-only.
        """
        if self.cached_keys is None:
            data = self.read_entries(0, self.footer.entry_count,
                                     Stage.COMPACT_READ)
            # One strided pass: each entry contributes its leading 8-byte
            # key, the rest of the fixed-size slot is skipped as padding.
            strided = struct.Struct(f"<Q{self.footer.entry_bytes - 8}x")
            self.cached_keys = [key for (key,) in strided.iter_unpack(data)]
        return self.cached_keys

    def delete(self) -> None:
        """Delete the backing file (called when the table is obsolete)."""
        if self.data_cache is not None:
            self.data_cache.invalidate_file(self.name)
        if self.device.exists(self.name):
            self.device.delete(self.name)

    # -- metadata ------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Entries stored in the table."""
        return self.footer.entry_count

    @property
    def min_key(self) -> int:
        """Smallest user key."""
        return self.footer.min_key

    @property
    def max_key(self) -> int:
        """Largest user key."""
        return self.footer.max_key

    def index_bytes(self) -> int:
        """Serialized size of the per-table index (0 under level model)."""
        return self.footer.index_len

    def bloom_bytes(self) -> int:
        """Serialized size of the bloom filter."""
        return self.footer.bloom_len

    def compression_ratio(self) -> float:
        """Raw-over-stored size of this table's data blocks."""
        if not self.footer.data_stored_bytes:
            return 1.0
        return self.footer.data_raw_bytes / self.footer.data_stored_bytes

    def key_range_contains(self, key: int) -> bool:
        """True when ``key`` falls inside [min_key, max_key]."""
        return self.footer.min_key <= key <= self.footer.max_key

    # -- reads -----------------------------------------------------------

    def block_bound(self, bound: SearchBound) -> SearchBound:
        """Widen an entry bound to whole data blocks (the I/O unit).

        Learned-index predictions are entry-granular; fetches are
        block-granular, so the effective bound is the predicted one
        rounded out to block boundaries.
        """
        return bound.block_aligned(self.footer.entries_per_block,
                                   self.footer.entry_count)

    @property
    def quarantined_blocks(self) -> Set[int]:
        """Data-block numbers currently quarantined (read-only view)."""
        if _QUARANTINED not in self._block_state:  # the common case, C speed
            return set()
        return {block_no for block_no, state in enumerate(self._block_state)
                if state == _QUARANTINED}

    def _quarantine_block(self, exc: ChecksumError) -> QuarantinedBlockError:
        """Quarantine the block a :class:`ChecksumError` names.

        Evicts (and permanently bars) the poisoned block from the
        decompressed-block cache and — when the device has a raw cache
        tier — the device blocks its stored bytes span, then returns the
        typed per-key error the caller raises.  Re-reading cannot help:
        the corruption lives on the medium, so the block stays
        quarantined until :meth:`~repro.lsm.db.LSMTree.scrub` rewrites
        or retires the table.
        """
        block_no = max(exc.block, 0)
        if self._block_state[block_no] != _QUARANTINED:
            self._block_state[block_no] = _QUARANTINED
            self.stats.add(QUARANTINED_BLOCKS)
            if self.data_cache is not None:
                self.data_cache.quarantine(self.name, block_no)
            device_quarantine = getattr(self.device, "quarantine", None)
            if device_quarantine is not None:
                _, offset, stored_len, _ = self.handles[block_no]
                block_size = self.device.block_size
                for index in range(offset // block_size,
                                   (offset + stored_len - 1)
                                   // block_size + 1):
                    device_quarantine(self.name, index)
        return QuarantinedBlockError(self.name, block_no)

    def _pread_run(self, first_no: int, last_no: int, stage: Stage,
                   *, seeks: int) -> bytes:
        """The stored bytes of data blocks [first_no, last_no], read with
        ONE pread.

        Data blocks are usually smaller than the device block, so a
        per-data-block pread would charge a device transfer several
        times for the same device block.  Reading the covering byte
        span in one call charges exactly the device blocks the run
        spans.
        """
        offset = self.handles[first_no][1]
        _, last_off, last_len, _ = self.handles[last_no]
        length = last_off + last_len - offset
        data, hit_frac = self.options.retry.call(
            partial(self.device.pread_cached, self.name, offset, length),
            self.stats, stage)
        if len(data) != length:
            raise ChecksumError(
                self.name, "data", block=first_no,
                detail=f"short read: {len(data)} of {length} bytes")
        nblocks = self.cost.blocks_spanned(offset, length)
        if hit_frac > 0.0:
            hit_blocks = nblocks * hit_frac
            miss_blocks = nblocks - hit_blocks
            charged_seeks = seeks if miss_blocks else 0
            us = self.cost.read_us(miss_blocks, seeks=charged_seeks)
            us += hit_blocks * self.cost.cache_block_us
        else:
            charged_seeks = seeks
            us = self.cost.read_us(nblocks, seeks=seeks)
        if charged_seeks:
            self.stats.add(SEEKS, charged_seeks)
        self.stats.charge(stage, us)
        return data

    def _fill_run(self, data: bytes, first: int, last: int,
                  stage: Stage) -> List[bytes]:
        """Verify, decode and admit data blocks [first, last] of one
        :meth:`_pread_run` buffer; returns their raw payloads.

        Block by block, in order: the CRC on the block's first fetch by
        this table (memoised per block, successes only), then the codec.
        Consecutive equal ``(stage, µs)`` charges are made by one
        :meth:`~repro.storage.stats.Stats.charge_each`, counters by one
        ``add`` each, and the decoded blocks are admitted to the data
        cache (when one is attached) by one ``put_run`` — the same
        totals, in the same order, as one block at a time.  A block that
        fails raises :class:`~repro.errors.ChecksumError` with the
        blocks before it charged, counted and admitted.
        """
        state = self._block_state
        handles = self.handles
        stats = self.stats
        cost = self.cost
        name = self.name
        decompress_stage = _DECOMPRESS if stage in (_IO, _SCAN) else stage
        base = handles[first][1]
        raws: List[bytes] = []
        charges: List[Tuple[Stage, float]] = []
        verified = decoded = 0
        try:
            for block_no, (_, offset, stored_len, raw_len) in enumerate(
                    handles[first:last + 1], first):
                start = offset - base
                end = start + stored_len - BLOCK_TRAILER_BYTES
                codec_id, stored_crc = _BLOCK_TRAILER.unpack_from(data, end)
                if state[block_no] == _UNVERIFIED:
                    # The CRC covers the payload and the codec byte.
                    if crc32c(data[start:end + 1]) != stored_crc:
                        stats.add(CHECKSUM_FAILURES)
                        raise ChecksumError(name, "data", block=block_no)
                    state[block_no] = (
                        _VERIFIED_RAW if codec_id == 0 and end - start == raw_len
                        else _VERIFIED_CODED)
                    verified += 1
                    charges.append((stage, cost.checksum_us(stored_len)))
                if codec_id == 0:
                    if end - start != raw_len:
                        raise ChecksumError(
                            name, "data", block=block_no,
                            detail=f"{end - start} stored bytes, expected "
                                   f"{raw_len} raw")
                    raws.append(data[start:end])
                else:
                    raws.append(decode_block(codec_id, data[start:end],
                                             raw_len, file=name,
                                             block=block_no))
                    charges.append((decompress_stage,
                                    cost.decompress_us(raw_len)))
                    decoded += raw_len
        finally:
            for (charge_stage, us), group in groupby(charges):
                stats.charge_each(charge_stage, us, len(list(group)))
            if verified:
                stats.add(BLOCKS_VERIFIED, verified)
            if decoded:
                stats.add(DECOMPRESS_BYTES, decoded)
            cache = self.data_cache
            if cache is not None and raws:
                evicted = cache.put_run(name, first, raws)
                if evicted:
                    stats.add(DATA_CACHE_EVICTIONS, evicted)
        return raws

    def _read_blocks(self, first: int, last: int, stage: Stage,
                     *, seeks: int = 1,
                     ) -> Tuple[Union[bytes, List[bytes]], Optional[int]]:
        """Data blocks [first, last]: ``(buf, base)`` or ``(blocks, None)``.

        A run that is all verified-raw, read with no data cache, is the
        pread buffer itself, trailers and all: ``base`` is its file
        offset and block ``b`` starts at byte ``handles[b][1] - base``.
        Any other run comes back as the list of its raw blocks: the data
        cache looks the whole run up in one call, hits are counted and
        charged once per run, and each contiguous run of misses is read
        with one pread and verified, decoded and admitted by
        :meth:`_fill_run`.  At most ``seeks`` seeks are charged.  Blocks
        served by a cache tier are charged at memory-copy cost instead
        of seek + transfer.
        """
        if _QUARANTINED in self._block_state:
            # Fail fast before touching the device: a quarantined block
            # is known-poisoned and must never be re-read or re-served.
            poisoned = self._block_state.find(_QUARANTINED, first, last + 1)
            if poisoned >= 0:
                raise QuarantinedBlockError(self.name, poisoned)
        cache = self.data_cache
        try:
            if cache is None:
                data = self._pread_run(first, last, stage, seeks=seeks)
                if last - first + 1 == self._block_state.count(
                        _VERIFIED_RAW, first, last + 1):
                    return data, self.handles[first][1]
                return self._fill_run(data, first, last, stage), None
            stats = self.stats
            blocks = cache.get_run(self.name, first, last)
            misses = blocks.count(None)
            hits = len(blocks) - misses
            if hits:
                stats.add(DATA_CACHE_HITS, hits)
                tail = last == len(self.handles) - 1 and blocks[-1] is not None
                stats.charge_each(stage, self._hit_us, hits - tail)
                if tail:
                    stats.charge(stage, self._tail_hit_us)
            if misses:
                stats.add(DATA_CACHE_MISSES, misses)
                seek_budget = seeks
                at = 0
                while misses:
                    at = blocks.index(None, at)
                    end = at + 1
                    while end < len(blocks) and blocks[end] is None:
                        end += 1
                    blocks[at:end] = self._fill_run(
                        self._pread_run(first + at, first + end - 1, stage,
                                        seeks=seek_budget),
                        first + at, first + end - 1, stage)
                    seek_budget = 0
                    misses -= end - at
            return blocks, None
        except ChecksumError as exc:
            raise self._quarantine_block(exc) from exc

    def _read_block(self, block_no: int, stage: Stage, seeks: int) -> bytes:
        """Data block ``block_no``, raw (a verified-raw block read with
        no data cache keeps its trailer): :meth:`_read_blocks` of a
        one-block run, in the same steps — quarantine fail-fast, data
        cache, one retried pread, :meth:`_fill_run` — without the run
        bookkeeping."""
        state = self._block_state[block_no]
        if state == _QUARANTINED:
            raise QuarantinedBlockError(self.name, block_no)
        cache = self.data_cache
        try:
            if cache is not None:
                payload = cache.get(self.name, block_no)
                if payload is not None:
                    self.stats.add(DATA_CACHE_HITS)
                    self.stats.charge(stage, self._tail_hit_us
                                      if block_no == len(self.handles) - 1
                                      else self._hit_us)
                    return payload
                self.stats.add(DATA_CACHE_MISSES)
            data = self._pread_run(block_no, block_no, stage, seeks=seeks)
            if state == _VERIFIED_RAW and cache is None:
                return data
            return self._fill_run(data, block_no, block_no, stage)[0]
        except ChecksumError as exc:
            raise self._quarantine_block(exc) from exc

    def read_entries(self, lo: int, hi: int, stage: Stage,
                     *, seeks: int = 1) -> bytes:
        """Entries [lo, hi) as one contiguous buffer, charging ``stage``
        (see :meth:`_read_blocks` for how blocks are fetched)."""
        if hi <= lo:
            return b""
        per = self.footer.entries_per_block
        first = lo // per
        last = (hi - 1) // per
        if first == last:  # one block, as every refill reads
            data = self._read_block(first, stage, seeks)
        else:
            blocks, base = self._read_blocks(first, last, stage, seeks=seeks)
            if base is not None:
                # Served in place: cut the trailers out from between
                # blocks.
                blocks = [blocks[blk_off - base:blk_off - base + raw_len]
                          for _, blk_off, _, raw_len
                          in self.handles[first:last + 1]]
            data = b"".join(blocks)
        entry_bytes = self.footer.entry_bytes
        start = (lo - first * per) * entry_bytes
        return data[start:start + (hi - lo) * entry_bytes]

    def _bound_for(self, key: int) -> SearchBound:
        if self.index is None:
            raise CorruptionError(
                f"table {self.name} has no per-table index; lookups must "
                "go through the level model")
        bound = self.index.lookup(key)
        self.stats.charge(_PREDICTION, self._prediction_us)
        return bound

    def get(self, key: int) -> Optional[Record]:
        """Point lookup via predict -> pread -> binary search."""
        bound = self._bound_for(key)
        return self.get_in_bound(key, bound)

    def get_in_bound(self, key: int, bound: SearchBound) -> Optional[Record]:
        """Point lookup when a bound is already known (level model path)."""
        # ``bound.clamped(n)`` then ``block_bound`` on plain integers.
        footer = self.footer
        n = footer.entry_count
        lo = max(0, min(bound.lo, n))
        hi = min(bound.hi, n)
        if hi <= lo:
            return None
        per = footer.entries_per_block
        first = lo // per
        last = (hi - 1) // per
        blocks, base = self._read_blocks(first, last, _IO)
        self.stats.add(SEGMENTS_FETCHED)
        lo = first * per
        hi = min(last * per + per, n)
        record = self._search(blocks, first, base, lo, hi, key)
        self.stats.charge(_SEARCH, self.cost.segment_search_us(hi - lo))
        return record

    def _search(self, blocks: Union[bytes, List[bytes]], first: int,
                base: Optional[int], lo: int, hi: int,
                key: int) -> Optional[Record]:
        """The entry of ``key`` among entries [lo, hi) (``lo`` block
        aligned) of the :meth:`_read_blocks` result for the run from
        block ``first``, or None: bisect the block index by first key,
        then binary-search that one block where it lies."""
        per = self.footer.entries_per_block
        block_no = bisect_right(self.handles, key, lo // per,
                                (hi - 1) // per + 1, key=_FIRST_KEY) - 1
        if block_no < lo // per:
            return None
        entry_bytes = self.footer.entry_bytes
        if base is not None:  # in place: the block lies at its file offset
            buf = blocks
            at = self.handles[block_no][1] - base
        else:  # the run's list of raw blocks
            buf = blocks[block_no - first]
            at = 0
        lo = 0
        hi = min(per, hi - block_no * per)
        unpack = _KEY.unpack_from
        try:
            while lo < hi:
                mid = (lo + hi) // 2
                probe = unpack(buf, at + mid * entry_bytes)[0]
                if probe < key:
                    lo = mid + 1
                elif probe > key:
                    hi = mid
                else:
                    return decode_entry(buf, at + mid * entry_bytes,
                                        self.footer.value_capacity)
        except struct.error as exc:
            raise CorruptionError(
                f"table {self.name}: entry {block_no * per + mid} lies "
                f"outside the {len(buf)} bytes fetched for it") from exc
        return None

    # -- batched reads ----------------------------------------------------

    def multi_get(self, keys: Sequence[int], coalesce: bool = True,
                  errors: Optional[Dict[int, QuarantinedBlockError]] = None,
                  ) -> Dict[int, Record]:
        """Batched point lookups through the per-table index.

        Predicts one bound per key (each key pays its own PREDICTION
        charge — model evaluations do not amortize), then fetches all
        bounds through :meth:`multi_get_in_bounds` so overlapping or
        adjacent segments share one pread.  Returns ``{key: record}``
        for the keys present (values *and* tombstones).
        """
        items = [(key, self._bound_for(key)) for key in keys]
        return self.multi_get_in_bounds(items, coalesce=coalesce,
                                        errors=errors)

    def multi_get_in_bounds(self, items: Sequence[Tuple[int, SearchBound]],
                            coalesce: bool = True,
                            errors: Optional[
                                Dict[int, QuarantinedBlockError]] = None,
                            ) -> Dict[int, Record]:
        """Batched lookups when bounds are already known (level-model path).

        ``items`` is a batch of ``(key, bound)`` pairs.  Bounds are
        clamped, widened to whole data blocks, sorted by position and
        coalesced into maximal runs: a bound that overlaps, adjoins, or
        sits within a cheaper-than-a-seek gap of the current run (see
        ``_coalesce_gap``) extends it instead of opening a new pread, so
        runs cover whole-block spans.  Each run costs **one seek plus
        its sequential blocks**; every key is then binary-searched
        inside its own bound within the shared run.  With
        ``coalesce=False`` every bound is its own run (the per-key cost
        shape, batched only in control flow) — the knob the
        ``multiget`` experiment sweeps.

        Failure isolation is per *key*, not per batch: when a run's
        fetch hits a quarantined block, its members are retried
        individually so only the keys whose own bound covers the poison
        fail — those land in the ``errors`` out-dict when one is given,
        and re-raise otherwise.
        """
        footer = self.footer
        n = footer.entry_count
        per = footer.entries_per_block
        # ``bound.clamped(n)`` then ``block_bound`` on plain integers:
        # one ``(key, lo, hi)`` per key whose bound is not empty.
        aligned: List[Tuple[int, int, int]] = []
        for key, bound in items:
            lo = max(0, min(bound.lo, n))
            hi = min(bound.hi, n)
            if hi > lo:
                aligned.append((key, lo - lo % per,
                                min(-(-hi // per) * per, n)))
        if not aligned:
            return {}
        aligned.sort(key=_BOUNDS)
        gap = self._coalesce_gap
        runs: List[List] = []  # [run_lo, run_hi, [(key, lo, hi), ...]]
        for item in aligned:
            if coalesce and runs and item[1] <= runs[-1][1] + gap:
                if item[2] > runs[-1][1]:
                    runs[-1][1] = item[2]
                runs[-1][2].append(item)
            else:
                runs.append([item[1], item[2], [item]])
        found: Dict[int, Record] = {}
        stats = self.stats
        segment_search_us = self.cost.segment_search_us
        # A stack, so a failed run's per-member retries go next.
        todo = [(run_lo, run_hi, members, False)
                for run_lo, run_hi, members in reversed(runs)]
        while todo:
            run_lo, run_hi, members, retried = todo.pop()
            first = run_lo // per
            seeks_before = stats.get(SEEKS)
            try:
                blocks, base = self._read_blocks(first, (run_hi - 1) // per,
                                                  _IO)
            except QuarantinedBlockError as exc:
                if not retried:
                    # Each member re-fetches only its own bound, so keys
                    # whose blocks are healthy still resolve.
                    todo.extend((lo, hi, [(key, lo, hi)], True)
                                for key, lo, hi in reversed(members))
                    continue
                if errors is None:
                    raise
                errors[members[0][0]] = exc  # a retried run is one key
                continue
            stats.add(SEGMENTS_FETCHED)
            if len(members) > 1 and stats.get(SEEKS) > seeks_before:
                # Only a run that actually paid a seek saved the others;
                # a cache-served run would have cost no seeks per key
                # either, so claiming savings there would overstate it.
                stats.add(MULTIGET_COALESCED)
                stats.add(MULTIGET_SEEKS_SAVED, len(members) - 1)
            for key, lo, hi in members:
                record = self._search(blocks, first, base, lo, hi, key)
                stats.charge(_SEARCH, segment_search_us(hi - lo))
                if record is not None:
                    found[key] = record
        return found

    def iterator(self, refill_stage: Stage = Stage.SCAN) -> "TableIterator":
        """Sequential iterator (range lookups, compaction inputs)."""
        return TableIterator(self, refill_stage)


class TableIterator(KVIterator):
    """Iterator over one table, streaming one block per refill.

    The initial positioning of :meth:`seek` uses the learned index and
    charges the point-lookup stages; moving past the end of the
    buffered block streams forward one data block at a time charging
    ``refill_stage`` (SCAN for range queries, COMPACT_READ for
    compaction inputs), mirroring the paper's range-lookup
    implementation.

    Every fetched buffer's ``<QQI`` headers are decoded in one pass into
    the ``keys`` / ``metas`` columns (one precompiled ``struct`` for a
    whole block); only :meth:`row` builds a :class:`Record` (and copies
    a value).  The checks ``decode_entry`` makes — whole entries, value
    length within capacity — are made on the whole buffer at fetch
    time, so a header or an entry handed out has always passed them.
    """

    def __init__(self, table: Table, refill_stage: Stage) -> None:
        self.table = table
        self.refill_stage = refill_stage
        footer = table.footer
        self._n = footer.entry_count
        self._per = footer.entries_per_block
        self._entry_bytes = footer.entry_bytes
        self._headers, self._block_headers = _header_structs(
            footer.entry_bytes, footer.entries_per_block)
        #: The fetched entries ``[_buf_lo, _buf_lo + len(keys))``, stored
        #: back to back.
        self.buf = b""
        self._buf_lo = 0

    # -- buffer management ----------------------------------------------

    def _fetch(self, lo: int, hi: int, stage: Stage, seeks: int) -> None:
        table = self.table
        hi = min(hi, self._n)
        buf = table.read_entries(lo, hi, stage, seeks=seeks)
        capacity = table.footer.value_capacity
        try:
            if len(buf) == self._block_headers.size:  # one whole block
                columns = self._block_headers.unpack(buf)
                keys, metas, lengths = (columns[0::3], columns[1::3],
                                        columns[2::3])
            else:
                keys, metas, lengths = zip(*self._headers.iter_unpack(buf))
        except (struct.error, ValueError):  # ragged or empty
            keys = ()
        if len(keys) != hi - lo or max(lengths) > capacity:
            raise CorruptionError(
                f"table {table.name}: {len(buf)} bytes fetched for entries "
                f"[{lo}, {hi}) are not {hi - lo} whole {self._entry_bytes}"
                f"-byte entries with values within capacity {capacity}")
        self.buf = buf
        self.keys = keys
        self.metas = metas
        self._buf_lo = lo

    def _goto(self, pos: int) -> None:
        """Stand on entry ``pos``, fetching its block (at the refill
        stage) unless the buffer holds it."""
        if pos >= self._n:
            self.head = len(self.keys)  # exhausted
            return
        if not self._buf_lo <= pos < self._buf_lo + len(self.keys):
            # Refills are block-aligned, so sequential scans read each
            # block exactly once regardless of where the seek landed.
            lo = pos - pos % self._per
            self._fetch(lo, lo + self._per, self.refill_stage, seeks=0)
        self.head = pos - self._buf_lo

    # -- KVIterator ---------------------------------------------------------

    def advance_to(self, index: int) -> None:
        self.head = index
        if index == len(self.keys):
            # Buffers end on a block boundary (or the table's end).
            lo = self._buf_lo + index
            if lo < self._n:
                self._fetch(lo, lo + self._per, self.refill_stage, seeks=0)
                self.head = 0

    def row(self, index: int) -> Record:
        return decode_entry(self.buf, index * self._entry_bytes,
                            self.table.footer.value_capacity)

    def entry(self) -> bytes:
        """The stored ``entry_bytes`` encoding of the current entry."""
        offset = self.head * self._entry_bytes
        return self.buf[offset:offset + self._entry_bytes]

    def seek_to_first(self) -> None:
        if self._n:
            self._fetch(0, self._per, self.refill_stage, seeks=1)
        self.head = 0

    def seek(self, key: int) -> None:
        if self.table.index is None:
            # Level-model tables: the caller narrows with seek_to_bound.
            self.seek_to_first()
            self.skip_until(key)
            return
        self.seek_to_bound(key, self.table._bound_for(key),
                           self.table.index.places_absent_keys)

    def seek_to_bound(self, key: int, bound: SearchBound,
                      exact: bool = True) -> None:
        """Seek using an externally supplied position bound; ``exact``
        says its index places absent keys (see
        :attr:`~repro.indexes.base.ClusteredIndex.places_absent_keys`)."""
        table = self.table
        bound = bound.clamped(self._n)
        if not exact:
            # Start no later than the block holding the insertion point:
            # the last block whose first key is <= ``key``.
            floor = max(0, bisect_right(table.handles, key,
                                        key=_FIRST_KEY) - 1) * self._per
            if bound.lo > floor:
                bound = SearchBound(floor, bound.hi)
        if bound.width <= 0:
            self._goto(bound.lo)
            self.skip_until(key)
            return
        bound = table.block_bound(bound)
        self._fetch(bound.lo, bound.hi, Stage.IO, seeks=1)
        table.stats.add(SEGMENTS_FETCHED)
        table.stats.charge(Stage.SEARCH,
                           table.cost.segment_search_us(bound.width))
        self.head = bisect_left(self.keys, key)
        if self.head == len(self.keys):
            self.advance_to(self.head)
        self.skip_until(key)

    def skip_until(self, key: int) -> None:
        """Safety net: step forward, a block at a time, while positioned
        before ``key``."""
        while self.head < len(self.keys) and self.keys[self.head] < key:
            self.advance_to(bisect_left(self.keys, key, self.head))


@lru_cache(maxsize=None)
def _header_structs(entry_bytes: int,
                    per: int) -> Tuple[struct.Struct, struct.Struct]:
    """The ``<QQI`` header of one entry, and of a whole block of ``per``
    entries, skipping the value bytes."""
    entry = f"QQI{entry_bytes - ENTRY_HEADER_BYTES}x"
    return struct.Struct("<" + entry), struct.Struct("<" + entry * per)
