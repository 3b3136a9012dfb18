"""Corruption-injection suite for the block SSTable format.

Every byte region of a table file — header, each data block, sparse
block index, learned index, bloom filter, footer — is flipped and the
reader must fail with a *typed* error naming the file (and, for data
blocks, the block number).  The invariant under test: a corrupted table
never returns silently wrong results, and a corrupt data block poisons
only itself — every other block keeps serving reads.
"""

import struct
import zlib

import pytest

from repro.errors import ChecksumError, CorruptionError
from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.sstable import (
    FOOTER_BYTES,
    HEADER_BYTES,
    Table,
    TableBuilder,
)
from repro.storage.block_cache import CachedBlockDevice, DataBlockCache
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.stats import (BYTES_READ, CHECKSUM_FAILURES,
                                 QUARANTINED_BLOCKS, Stats)

NAME = "sst-000001"


def _build(n=200, data_cache=None, cache_bytes=0):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 position_boundary=8)
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    if cache_bytes:
        device = CachedBlockDevice(device, cache_bytes, stats=stats)
    cost = CostModel(block_size=options.block_size)
    builder = TableBuilder(device, NAME, options,
                           IndexFactory(IndexKind.PGM, 8), stats, cost,
                           data_cache=data_cache)
    keys = list(range(1000, 1000 + 7 * n, 7))
    for i, key in enumerate(keys):
        builder.add(make_value(key, i + 1, b"v%d" % key))
    table = builder.finish()
    return table, device, stats, options, cost, keys


def _flip(device, offset):
    raw = bytearray(device.pread(NAME, 0, device.size(NAME)))
    raw[offset] ^= 0xFF
    device.create(NAME)
    device.append(NAME, bytes(raw))


def _reopen(device, options, cost, data_cache=None):
    return Table.open(device, NAME, options, Stats(), cost,
                      data_cache=data_cache)


def _regions(table):
    """(region name, start, length) for every non-data byte region."""
    footer = table.footer
    size = table.device.size(NAME)
    return [
        ("header", 0, HEADER_BYTES),
        ("block_index", footer.block_index_offset, footer.block_index_len),
        ("index", footer.index_offset, footer.index_len),
        ("bloom", footer.bloom_offset, footer.bloom_len),
        ("footer", size - FOOTER_BYTES, FOOTER_BYTES),
    ]


# -- metadata regions: detected at open --------------------------------


@pytest.mark.parametrize("region", ["header", "block_index", "index",
                                    "bloom", "footer"])
def test_metadata_corruption_detected_at_open(region):
    table, device, _, options, cost, _ = _build()
    start, length = next((s, n) for r, s, n in _regions(table)
                         if r == region)
    assert length > 0
    # One flip near each edge and one in the middle of the region.
    for offset in (start, start + length // 2, start + length - 1):
        fresh_table, fresh_device, _, _, _, _ = _build()
        _flip(fresh_device, offset)
        with pytest.raises(ChecksumError) as excinfo:
            _reopen(fresh_device, options, cost)
        assert excinfo.value.file == NAME
        assert excinfo.value.region == region


def test_footer_crc_flip_names_the_footer():
    table, device, _, options, cost, _ = _build()
    size = device.size(NAME)
    # Flip inside the footer body: the footer's own CRC must catch it.
    _flip(device, size - FOOTER_BYTES + 16)
    with pytest.raises(ChecksumError) as excinfo:
        _reopen(device, options, cost)
    assert excinfo.value.file == NAME
    assert excinfo.value.region == "footer"


def test_sealed_footer_of_another_version_is_refused_by_name():
    table, device, _, options, cost, _ = _build()
    size = device.size(NAME)
    raw = bytearray(device.pread(NAME, 0, size))
    # Footer: magic u64, then the format version u32; reseal it so only
    # the version check can object.
    struct.pack_into("<I", raw, size - FOOTER_BYTES + 8, 2)
    struct.pack_into("<I", raw, size - 4,
                     zlib.crc32(bytes(raw[size - FOOTER_BYTES:size - 4])))
    device.create(NAME)
    device.append(NAME, bytes(raw))
    with pytest.raises(CorruptionError) as excinfo:
        _reopen(device, options, cost)
    assert not isinstance(excinfo.value, ChecksumError)
    assert NAME in str(excinfo.value)
    assert "version 2" in str(excinfo.value)


def test_file_too_short_for_header_and_footer_is_refused_unread():
    _, device, stats, options, cost, _ = _build()
    raw = device.pread(NAME, 0, device.size(NAME))
    device.create(NAME)
    device.append(NAME, raw[-(HEADER_BYTES + FOOTER_BYTES - 1):])
    read_before = stats.get(BYTES_READ)
    with pytest.raises(CorruptionError) as excinfo:
        _reopen(device, options, cost)
    assert NAME in str(excinfo.value)
    assert stats.get(BYTES_READ) == read_before


# -- data blocks: detected at first read, named by number --------------


def test_every_data_block_flip_raises_typed_error():
    table, device, _, options, cost, keys = _build()
    per = table.footer.entries_per_block
    for block_no, (first_key, offset, stored_len, _raw) in \
            enumerate(table.handles):
        fresh_table, fresh_device, _, _, _, _ = _build()
        _flip(fresh_device, offset + stored_len // 2)
        reopened = _reopen(fresh_device, options, cost)
        victim = keys[min(block_no * per + per // 2, len(keys) - 1)]
        with pytest.raises(ChecksumError) as excinfo:
            reopened.get(victim)
        assert excinfo.value.file == NAME
        assert excinfo.value.region == "data"
        assert excinfo.value.block == block_no
        assert str(block_no) in str(excinfo.value)


def test_corrupt_block_poisons_only_itself():
    table, device, stats, options, cost, keys = _build()
    per = table.footer.entries_per_block
    victim_block = table.footer.block_count // 2
    _, offset, stored_len, _ = table.handles[victim_block]
    _flip(device, offset + stored_len - 1)
    reopened = _reopen(device, options, cost)
    hits = errors = 0
    for i, key in enumerate(keys):
        # A lookup fails iff its block-aligned search bound touches the
        # corrupt block — a neighbouring key whose prediction spills
        # into it fails too (better loud than silently narrowed).
        bound = reopened.block_bound(
            reopened.index.lookup(key).clamped(reopened.entry_count))
        touches = (bound.lo < (victim_block + 1) * per
                   and bound.hi > victim_block * per)
        if touches:
            with pytest.raises(ChecksumError):
                reopened.get(key)
            errors += 1
        else:
            record = reopened.get(key)
            assert record is not None and record.value == b"v%d" % key
            hits += 1
    # Every key stored in the victim block fails; most of the table
    # stays readable.
    assert errors >= per
    assert hits > len(keys) // 2
    assert hits + errors == len(keys)
    # The first failing fetch verifies (and fails) the CRC once; every
    # later lookup fails fast on the quarantine without re-reading.
    assert reopened.stats.get(CHECKSUM_FAILURES) == 1
    assert reopened.stats.get(QUARANTINED_BLOCKS) == 1
    assert reopened.quarantined_blocks == {victim_block}


def test_corrupt_block_fails_again_after_reopen():
    table, device, _, options, cost, keys = _build()
    _, offset, stored_len, _ = table.handles[0]
    _flip(device, offset)
    for _ in range(2):  # open -> fail -> open again -> fail again
        reopened = _reopen(device, options, cost)
        with pytest.raises(ChecksumError):
            reopened.get(keys[0])
        # Failed verification is never memoised: retrying the same
        # block through the same table object fails the same way.
        with pytest.raises(ChecksumError):
            reopened.get(keys[0])


def test_iterator_and_multiget_refuse_corrupt_blocks():
    table, device, _, options, cost, keys = _build()
    _, offset, stored_len, _ = table.handles[1]
    _flip(device, offset + 1)
    reopened = _reopen(device, options, cost)
    with pytest.raises(ChecksumError):
        iterator = reopened.iterator()
        iterator.seek_to_first()
        while iterator.valid():
            iterator.record()
            iterator.advance()
    with pytest.raises(ChecksumError):
        reopened.multi_get(keys)


def test_corruption_detected_through_block_cache():
    # A device-level LRU cache must not mask corruption: the flip
    # lands before any read, so the cache holds the corrupt bytes and
    # verification still catches them.
    table, device, _, options, cost, keys = _build(cache_bytes=1 << 20)
    _, offset, stored_len, _ = table.handles[0]
    _flip(device, offset)
    reopened = _reopen(device, options, cost)
    with pytest.raises(ChecksumError):
        reopened.get(keys[0])


def test_data_cache_hit_skips_reverification_but_not_detection():
    from repro.storage.stats import Stage

    data_cache = DataBlockCache(1 << 20)
    table, device, _, options, cost, keys = _build(data_cache=data_cache)
    reopened = _reopen(device, options, cost, data_cache=data_cache)
    per = table.footer.entries_per_block
    reopened.read_entries(0, per, Stage.IO)  # warms exactly block 0
    victim = table.footer.block_count - 1
    _, offset, stored_len, _ = table.handles[victim]
    _flip(device, offset)
    # Block 0 serves from the decompressed cache (verified pre-flip);
    # the victim block misses, hits the device, and fails verification.
    assert reopened.read_entries(0, per, Stage.IO)
    with pytest.raises(ChecksumError):
        reopened.read_entries(victim * per, victim * per + 1, Stage.IO)


def test_truncated_data_block_is_a_typed_error():
    table, device, _, options, cost, keys = _build()
    size = device.size(NAME)
    last_no = table.footer.block_count - 1
    _, offset, stored_len, _ = table.handles[last_no]
    raw = device.pread(NAME, 0, size)
    device.create(NAME)
    # Drop one byte out of the last data block, shifting everything
    # after it: the block's stored range now reads short or misframed.
    device.append(NAME, raw[:offset + stored_len - 1] + raw[offset + stored_len:])
    with pytest.raises(CorruptionError):
        reopened = _reopen(device, options, cost)
        reopened.get(keys[-1])


def test_header_magic_flip_is_detected():
    table, device, _, options, cost, _ = _build()
    _flip(device, 0)  # first magic byte
    with pytest.raises(ChecksumError) as excinfo:
        _reopen(device, options, cost)
    assert excinfo.value.file == NAME
    assert excinfo.value.region == "header"
