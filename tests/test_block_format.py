"""Property tests for the block SSTable format.

Hypothesis drives random entry sets through random block sizes
(including one-entry blocks and blocks larger than the whole table) and
every registered codec, asserting:

* **round-trip fidelity** — every entry read back byte-identical
  through get, multi_get, read_entries and the iterator;
* **sparse-index invariants** — block first-keys and offsets strictly
  increase, raw lengths tile the entry array exactly;
* **oracle equality** — every probe (hits, misses, scans) answers
  exactly what the generated records say, with and without the cache
  tiers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.options import small_test_options
from repro.lsm.record import encode_entry, make_value
from repro.lsm.sstable import (
    HEADER_BYTES,
    Table,
    TableBuilder,
    entries_per_block_for,
)
from repro.storage.block_cache import CachedBlockDevice, DataBlockCache
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.compression import codec_names
from repro.storage.cost_model import CostModel
from repro.storage.stats import (
    BLOCKS_VERIFIED,
    CHECKSUM_FAILURES,
    Stage,
    Stats,
)

# Entry size is 64 B under small_test_options, so 64 gives one-entry
# blocks, 150 a ragged 2-entry block, and 1 << 20 one block spanning
# any table this suite builds.
BLOCK_BYTES = st.sampled_from([64, 150, 256, 1024, 1 << 20])
KEY_SETS = st.sets(st.integers(min_value=0, max_value=2**40),
                   min_size=1, max_size=120)


def _records(keys):
    return [make_value(key, i + 1, b"val-%x" % key)
            for i, key in enumerate(sorted(keys))]


def _build_blocked(records, data_block_bytes, codec, data_cache=None,
                   cache_bytes=0):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 position_boundary=8,
                                 data_block_bytes=data_block_bytes,
                                 block_codec=codec)
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    if cache_bytes:
        device = CachedBlockDevice(device, cache_bytes, stats=stats)
    cost = CostModel(block_size=options.block_size)
    builder = TableBuilder(device, "sst-000001", options,
                           IndexFactory(IndexKind.PGM, 8), stats, cost,
                           data_cache=data_cache)
    for record in records:
        builder.add(record)
    return builder.finish(), device, options, cost, stats


def _probe_keys(keys):
    """Present keys plus misses between, below and above them."""
    probes = list(keys)
    probes += [key + 1 for key in keys[:20]]
    probes += [keys[0] - 1, keys[-1] + 1]
    return probes


@settings(max_examples=30, deadline=None)
@given(keys=KEY_SETS, block_bytes=BLOCK_BYTES,
       codec=st.sampled_from(codec_names()))
def test_roundtrip_and_oracle_equality(keys, block_bytes, codec):
    records = _records(keys)
    sorted_keys = [record.key for record in records]
    table, device, options, cost, stats = _build_blocked(
        records, block_bytes, codec)
    oracle = {record.key: record for record in records}
    assert table.entry_count == len(records)

    # Full-array read-back is byte-identical to the encoded entries.
    assert (table.read_entries(0, len(records), Stage.IO)
            == b"".join(encode_entry(record, options.value_capacity)
                        for record in records))

    probes = _probe_keys(sorted_keys)
    for key in probes:
        assert table.get(key) == oracle.get(key)

    present = {key: oracle[key] for key in probes if key in oracle}
    for coalesce in (True, False):
        assert table.multi_get(probes, coalesce=coalesce) == present

    # Iterator equality: full scan and a mid-table seek.
    middle = len(records) // 2
    for seek_key, expected in ((None, records),
                               (sorted_keys[middle], records[middle:])):
        cursor = table.iterator()
        if seek_key is None:
            cursor.seek_to_first()
        else:
            cursor.seek(seek_key)
        for want in expected:
            assert cursor.valid()
            assert cursor.record() == want
            cursor.advance()
        assert not cursor.valid()

    # Clean runs verify blocks and never count a failure.
    assert stats.get(CHECKSUM_FAILURES) == 0
    assert stats.get(BLOCKS_VERIFIED) == table.footer.block_count


@settings(max_examples=30, deadline=None)
@given(keys=KEY_SETS, block_bytes=BLOCK_BYTES,
       codec=st.sampled_from(codec_names()))
def test_sparse_index_invariants(keys, block_bytes, codec):
    records = _records(keys)
    table, device, options, cost, stats = _build_blocked(
        records, block_bytes, codec)
    per = entries_per_block_for(options)
    footer = table.footer
    handles = table.handles
    assert footer.entries_per_block == per
    assert footer.block_count == len(handles)
    assert footer.block_count == -(-len(records) // per)

    first_keys = [h[0] for h in handles]
    offsets = [h[1] for h in handles]
    assert first_keys == sorted(set(first_keys))  # strictly increasing
    assert offsets == sorted(set(offsets))
    assert offsets[0] == HEADER_BYTES
    # Stored blocks tile the data region exactly.
    for (_, offset, stored_len, _), nxt in zip(handles, handles[1:]):
        assert offset + stored_len == nxt[1]
    last = handles[-1]
    assert last[1] + last[2] == footer.block_index_offset
    # Raw lengths tile the entry array exactly.
    raw_lens = [h[3] for h in handles]
    assert sum(raw_lens) == len(records) * footer.entry_bytes
    assert all(length == per * footer.entry_bytes for length in raw_lens[:-1])
    assert footer.data_raw_bytes == sum(raw_lens)
    # Each handle's first key is the key stored first in that block.
    sorted_keys = [record.key for record in records]
    assert first_keys == sorted_keys[::per]

    # Reopening from the device reproduces the same sparse index.
    reopened = Table.open(device, "sst-000001", options, Stats(), cost)
    assert reopened.handles == handles
    assert reopened.footer == footer


@settings(max_examples=15, deadline=None)
@given(keys=KEY_SETS, block_bytes=BLOCK_BYTES,
       codec=st.sampled_from(codec_names()),
       raw_cache=st.booleans(), data_cache_on=st.booleans())
def test_cache_tiers_never_change_results(keys, block_bytes, codec,
                                          raw_cache, data_cache_on):
    records = _records(keys)
    sorted_keys = [record.key for record in records]
    data_cache = DataBlockCache(1 << 20) if data_cache_on else None
    table, device, options, cost, stats = _build_blocked(
        records, block_bytes, codec, data_cache=data_cache,
        cache_bytes=(1 << 20) if raw_cache else 0)
    oracle = {record.key: record for record in records}
    probes = _probe_keys(sorted_keys)
    for repeat in range(2):  # second pass runs hot through the caches
        for key in probes:
            assert table.get(key) == oracle.get(key)
    assert stats.get(CHECKSUM_FAILURES) == 0


def test_single_entry_table_single_block():
    records = _records({7})
    table, device, options, cost, stats = _build_blocked(records, 1 << 20,
                                                         "zlib-6")
    assert table.footer.block_count == 1
    assert table.get(7).value == b"val-7"
    assert table.get(8) is None
    reopened = Table.open(device, "sst-000001", options, Stats(), cost)
    assert reopened.get(7).value == b"val-7"


def test_stored_widths_match_the_previous_format():
    # v3 changed the checksum function and nothing else: same header,
    # trailer and footer widths.  The lengths are those of the same
    # tables written as format v2 at commit ea17965.
    records = _records(set(range(100, 200)))
    for codec, file_bytes in (("none", 7481), ("zlib-1", 2604)):
        _, device, _, _, _ = _build_blocked(records, 256, codec)
        assert device.size("sst-000001") == file_bytes


def test_compression_ratio_reported_per_table():
    # Zero-padded fixed slots compress; the footer carries the totals.
    records = _records(set(range(100, 400)))
    table, _, _, _, _ = _build_blocked(records, 1024, "zlib-1")
    assert table.compression_ratio() > 1.0
    flat_equivalent, _, _, _, _ = _build_blocked(records, 1024, "none")
    assert flat_equivalent.compression_ratio() == 1.0
