"""Tests for the LearnedIndexTable format: builder, reader, iterator."""

import pytest

from repro.errors import CorruptionError
from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.sstable import FOOTER_BYTES, Table, TableBuilder, TableFooter
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.stats import SEGMENTS_FETCHED, Stage, Stats


def _build(keys, kind=IndexKind.PGM, boundary=8, options=None):
    options = options or small_test_options(index_kind=kind,
                                            position_boundary=boundary)
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    cost = CostModel(block_size=options.block_size)
    builder = TableBuilder(device, "t1", options,
                           IndexFactory(kind, boundary), stats, cost)
    for i, key in enumerate(keys):
        builder.add(make_value(key, i + 1, b"v%d" % key))
    return builder.finish(), device, stats, options, cost


@pytest.fixture()
def sample_keys():
    return list(range(1000, 9000, 13))


def test_build_and_get(sample_keys):
    table, _, _, _, _ = _build(sample_keys)
    for key in sample_keys[::37]:
        record = table.get(key)
        assert record is not None
        assert record.value == b"v%d" % key
    assert table.get(sample_keys[0] + 1) is None
    assert table.entry_count == len(sample_keys)
    assert table.min_key == sample_keys[0]
    assert table.max_key == sample_keys[-1]


def test_builder_rejects_out_of_order(sample_keys):
    options = small_test_options()
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    builder = TableBuilder(device, "t", options, None, stats,
                           CostModel(block_size=options.block_size))
    builder.add(make_value(10, 1, b"a"))
    with pytest.raises(CorruptionError):
        builder.add(make_value(10, 2, b"b"))
    with pytest.raises(CorruptionError):
        builder.add(make_value(5, 3, b"c"))


def test_builder_rejects_empty_finish():
    options = small_test_options()
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    builder = TableBuilder(device, "t", options, None, stats,
                           CostModel(block_size=options.block_size))
    with pytest.raises(CorruptionError):
        builder.finish()


def test_reopen_from_device(sample_keys):
    table, device, stats, options, cost = _build(sample_keys)
    reopened = Table.open(device, "t1", options, stats, cost)
    assert reopened.entry_count == table.entry_count
    for key in sample_keys[::53]:
        assert reopened.get(key).value == b"v%d" % key
    assert reopened.index_bytes() == table.index_bytes()


def test_footer_roundtrip():
    footer = TableFooter(entry_count=10, entry_bytes=64, value_capacity=44,
                         index_offset=640, index_len=100, bloom_offset=740,
                         bloom_len=20, min_key=1, max_key=99)
    assert TableFooter.unpack(footer.pack()) == footer
    assert len(footer.pack()) == FOOTER_BYTES


def test_footer_rejects_bad_magic():
    footer = TableFooter(1, 64, 44, 0, 0, 0, 0, 0, 0)
    data = bytearray(footer.pack())
    data[0] ^= 0xFF
    with pytest.raises(CorruptionError):
        TableFooter.unpack(bytes(data))


def test_get_charges_stages(sample_keys):
    table, _, stats, _, _ = _build(sample_keys)
    before = stats.snapshot()
    table.get(sample_keys[5])
    delta = before.delta(stats)
    assert delta.stage_time(Stage.PREDICTION) > 0
    assert delta.stage_time(Stage.IO) > 0
    assert delta.stage_time(Stage.SEARCH) > 0
    assert delta.counter(SEGMENTS_FETCHED) == 1


def test_smaller_boundary_fetches_fewer_blocks(sample_keys):
    from repro.storage.stats import BLOCKS_READ
    results = {}
    for boundary in (64, 8):
        table, _, stats, _, _ = _build(sample_keys, boundary=boundary)
        before = stats.get(BLOCKS_READ)
        for key in sample_keys[::17]:
            table.get(key)
        results[boundary] = stats.get(BLOCKS_READ) - before
    assert results[8] < results[64]


def test_iterator_full_scan(sample_keys):
    table, _, _, _, _ = _build(sample_keys)
    it = table.iterator()
    it.seek_to_first()
    out = []
    while it.valid():
        out.append(it.key())
        it.advance()
    assert out == sample_keys


def test_iterator_seek_exact_and_between(sample_keys):
    table, _, _, _, _ = _build(sample_keys)
    it = table.iterator()
    it.seek(sample_keys[100])
    assert it.key() == sample_keys[100]
    it = table.iterator()
    it.seek(sample_keys[100] + 1)  # between two keys
    assert it.key() == sample_keys[101]
    it = table.iterator()
    it.seek(sample_keys[-1] + 10)
    assert not it.valid()


def test_iterator_seek_before_first(sample_keys):
    table, _, _, _, _ = _build(sample_keys)
    it = table.iterator()
    it.seek(0)
    assert it.key() == sample_keys[0]


def test_iterator_across_all_kinds(sample_keys):
    for kind in (IndexKind.FP, IndexKind.PLR, IndexKind.RMI, IndexKind.PLEX):
        table, _, _, _, _ = _build(sample_keys, kind=kind)
        it = table.iterator()
        it.seek(sample_keys[200])
        got = []
        while it.valid() and len(got) < 20:
            got.append(it.key())
            it.advance()
        assert got == sample_keys[200:220]


def test_level_granularity_table_has_no_index(sample_keys):
    options = small_test_options()
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    cost = CostModel(block_size=options.block_size)
    builder = TableBuilder(device, "t", options, None, stats, cost)
    for i, key in enumerate(sample_keys):
        builder.add(make_value(key, i + 1, b"x"))
    table = builder.finish()
    assert table.index is None
    assert table.index_bytes() == 0
    with pytest.raises(CorruptionError):
        table.get(sample_keys[0])
    # get_in_bound still works when the bound comes from a level model.
    from repro.indexes.base import SearchBound
    record = table.get_in_bound(sample_keys[3], SearchBound(0, 10))
    assert record.key == sample_keys[3]


def test_training_stats_recorded(sample_keys):
    table, _, stats, _, _ = _build(sample_keys, kind=IndexKind.PLEX)
    from repro.storage.stats import TRAIN_KEY_VISITS
    assert stats.get(TRAIN_KEY_VISITS) >= len(sample_keys)
    assert stats.stage_time(Stage.COMPACT_TRAIN) > 0
    assert stats.stage_time(Stage.COMPACT_WRITE_MODEL) > 0


# -- the per-block state map (verify-once memo + quarantine) --------------

_CODECS = ["none", "zlib-1"]
_CACHED = [False, True]


def _small_table(codec, cached, faulty=False):
    """A 40-entry, 10-block table reopened cold (nothing verified yet).

    Returns it with its device, stats, records and their encoded entries.
    """
    from repro.lsm.record import encode_entry
    from repro.storage.block_cache import DataBlockCache
    from repro.storage.faults import FaultPlan, FaultyBlockDevice

    options = small_test_options(block_codec=codec)
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    if faulty:
        device = FaultyBlockDevice(device, FaultPlan(seed=9))
    cost = CostModel(block_size=options.block_size)
    records = [make_value(1000 + 7 * i, i + 1, b"v%d" % i) for i in range(40)]
    builder = TableBuilder(device, "t1", options,
                           IndexFactory(IndexKind.FP, 8), stats, cost)
    for record in records:
        builder.add(record)
    built = builder.finish()
    coded = [stored - 5 != raw for _, _, stored, raw in built.handles]
    assert all(coded) if codec != "none" else not any(coded)
    table = Table.open(device, "t1", options, stats, cost,
                       data_cache=DataBlockCache(1 << 12) if cached else None)
    assert table.footer.block_count == 10
    entries = [encode_entry(record, options.value_capacity)
               for record in records]
    return table, device, stats, records, entries


@pytest.mark.parametrize("cached", _CACHED)
@pytest.mark.parametrize("codec", _CODECS)
def test_read_entries_every_range_in_random_order(codec, cached):
    import random

    from repro.storage.stats import BLOCKS_VERIFIED

    table, _, stats, _, entries = _small_table(codec, cached)
    per = table.footer.entries_per_block
    ranges = [(lo, hi) for lo in range(40) for hi in range(lo + 1, 41)]
    random.Random(22).shuffle(ranges)
    touched = set()
    for lo, hi in ranges:
        assert table.read_entries(lo, hi, Stage.IO) == b"".join(
            entries[lo:hi])
        touched.update(range(lo // per, (hi - 1) // per + 1))
        # Verified exactly once each, however often it is re-read,
        # evicted from the data cache or re-fetched inside a longer run.
        assert stats.get(BLOCKS_VERIFIED) == len(touched)
    assert len(touched) == 10


@pytest.mark.parametrize("cached", _CACHED)
@pytest.mark.parametrize("codec", _CODECS)
def test_rot_before_first_touch_quarantines_inside_a_verified_run(codec,
                                                                  cached):
    from repro.errors import QuarantinedBlockError
    from repro.storage.stats import CHECKSUM_FAILURES, QUARANTINED_BLOCKS

    table, faulty, stats, _, entries = _small_table(codec, cached,
                                                    faulty=True)
    per = table.footer.entries_per_block
    # Rot one device block, then find the data block the flipped bit hit.
    faulty.inject_rot("t1", table.handles[5][1] // faulty.block_size)
    size = faulty.size("t1")
    clean, rotten = faulty.inner.pread("t1", 0, size), faulty.pread("t1", 0,
                                                                   size)
    (flipped,) = [i for i in range(size) if clean[i] != rotten[i]]
    (victim,) = [no for no, (_, offset, stored, _) in enumerate(table.handles)
                 if offset <= flipped < offset + stored]
    assert 0 < victim < 9
    # Both neighbours are read (and verified) first ...
    for block_no in (victim - 1, victim + 1):
        assert table.read_entries(block_no * per, (block_no + 1) * per,
                                  Stage.IO) == b"".join(
            entries[block_no * per:(block_no + 1) * per])
    # ... so the run below is verified at both ends and rotten in the
    # middle: it must be checked block by block, never sliced through.
    with pytest.raises(QuarantinedBlockError) as excinfo:
        table.read_entries((victim - 1) * per, (victim + 2) * per, Stage.IO)
    assert excinfo.value.block == victim
    assert table.quarantined_blocks == {victim}
    assert stats.get(CHECKSUM_FAILURES) == 1
    assert stats.get(QUARANTINED_BLOCKS) == 1
    # Fail-fast replays name the same block and re-verify nothing; the
    # neighbours keep serving.
    with pytest.raises(QuarantinedBlockError):
        table.read_entries(0, 40, Stage.IO)
    assert stats.get(CHECKSUM_FAILURES) == 1
    assert table.read_entries((victim + 1) * per, 40, Stage.IO) == b"".join(
        entries[(victim + 1) * per:])


@pytest.mark.parametrize("codec", _CODECS)
def test_get_in_bound_clamps_and_aligns_like_search_bound(codec):
    from repro.indexes.base import SearchBound
    from repro.storage.stats import BYTES_READ

    table, _, stats, records, _ = _small_table(codec, cached=False)
    n = table.entry_count
    per = table.footer.entries_per_block
    position = 17
    key = records[position].key
    for lo in range(-6, n + 7):  # starts below 0 ... ends past the table
        for hi in range(-6, n + 7):
            before = stats.snapshot()
            got = table.get_in_bound(key, SearchBound(lo, hi))
            delta = before.delta(stats)
            want = SearchBound(lo, hi).clamped(n)
            if want.width <= 0:  # empty after clamping: nothing fetched
                assert got is None
                assert delta.counters == {} and delta.stage_us == {}
                continue
            want = table.block_bound(want)
            assert got == (records[position] if want.contains(position)
                           else None)
            # Exactly the blocks of the aligned bound were fetched and
            # exactly its width was charged for the search.
            _, first_off, _, _ = table.handles[want.lo // per]
            _, last_off, last_len, _ = table.handles[(want.hi - 1) // per]
            assert delta.counter(BYTES_READ) == last_off + last_len - first_off
            assert delta.counter(SEGMENTS_FETCHED) == 1
            assert delta.stage_time(Stage.SEARCH) == pytest.approx(
                table.cost.segment_search_us(want.width), rel=1e-9)


# -- header columns: key()/seq()/kind()/entry() against record() -----------


def _mixed_table(codec):
    """Values, tombstones and a short tail block (42 entries, 4 a block)."""
    from repro.lsm.record import make_tombstone

    options = small_test_options(block_codec=codec)
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    cost = CostModel(block_size=options.block_size)
    records = [make_tombstone(1000 + 7 * i, 900 - i) if i % 5 == 3
               else make_value(1000 + 7 * i, 900 - i, b"v%d" % i * (i % 4))
               for i in range(42)]
    builder = TableBuilder(device, "t1", options,
                           IndexFactory(IndexKind.PGM, 8), stats, cost)
    for record in records:
        builder.add(record)
    builder.finish()
    table = Table.open(device, "t1", options, stats, cost)
    assert table.entry_count % table.footer.entries_per_block
    return table, records


def _walk(it, records, start):
    """From ``start`` to the end, every header read agrees with record()."""
    from repro.lsm.record import encode_entry

    capacity = it.table.footer.value_capacity
    for want in records[start:]:
        assert it.valid()
        record = it.record()
        assert record == want
        assert (it.key(), it.seq(), it.kind(), it.entry()) == (
            record.key, record.seq, record.kind,
            encode_entry(record, capacity))
        it.advance()
    assert not it.valid()


@pytest.mark.parametrize("codec", _CODECS)
def test_iterator_header_reads_equal_the_decoded_record(codec):
    from repro.indexes.base import SearchBound

    table, records = _mixed_table(codec)
    it = table.iterator()
    it.seek_to_first()
    _walk(it, records, 0)
    keys = [record.key for record in records]
    for probe in range(keys[0] - 2, keys[-1] + 3):
        start = sum(1 for key in keys if key < probe)
        it = table.iterator(refill_stage=Stage.COMPACT_READ)
        it.seek(probe)
        _walk(it, records, start)
    n = len(records)
    for position, key in enumerate(keys):
        for bound in (SearchBound(position, position + 1),
                      SearchBound(max(0, position - 9), position + 9),
                      SearchBound(0, n), SearchBound(position, position),
                      SearchBound(-5, n + 5)):
            it = table.iterator()
            it.seek_to_bound(key, bound)
            _walk(it, records, position)


def _patched_reads(table, patch):
    """Make ``table.read_entries`` return ``patch(buffer)``: damage that
    appears after the block CRC was checked."""
    real = table.read_entries
    table.read_entries = (
        lambda lo, hi, stage, *, seeks=1: patch(real(lo, hi, stage,
                                                     seeks=seeks)))


@pytest.mark.parametrize("codec", _CODECS)
def test_iterator_refuses_a_length_field_beyond_capacity(codec):
    import struct

    table, _ = _mixed_table(codec)
    capacity = table.footer.value_capacity

    def oversize_second_entry(buf):
        damaged = bytearray(buf)
        struct.pack_into("<I", damaged, table.footer.entry_bytes + 16,
                         capacity + 1)
        return bytes(damaged)

    _patched_reads(table, oversize_second_entry)
    it = table.iterator()
    with pytest.raises(CorruptionError, match="t1"):
        it.seek_to_first()
        it.advance()
        it.record()
    it = table.iterator()
    with pytest.raises(CorruptionError, match="t1"):
        it.seek_to_first()
        it.advance()
        it.entry()


def test_iterator_turns_a_ragged_buffer_into_a_typed_error():
    table, _ = _mixed_table("none")
    _patched_reads(table, lambda buf: buf[:-3])
    with pytest.raises(CorruptionError, match="t1"):
        table.iterator().seek_to_first()
    table, _ = _mixed_table("none")
    _patched_reads(table, lambda buf: buf[:-table.footer.entry_bytes])
    with pytest.raises(CorruptionError, match="t1"):
        table.iterator().seek_to_first()


def test_builder_add_is_append_of_the_encoding(sample_keys):
    from repro.lsm.record import KIND_VALUE, encode_entries

    options = small_test_options()
    seqs = range(1, len(sample_keys) + 1)
    values = [b"v%d" % key for key in sample_keys]
    tables = []
    for one_call in (False, True):
        stats = Stats()
        device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
        builder = TableBuilder(device, "t", options,
                               IndexFactory(IndexKind.PGM, 8), stats,
                               CostModel(block_size=options.block_size))
        if one_call:
            builder.append(sample_keys, encode_entries(
                sample_keys, seqs, KIND_VALUE, values,
                options.value_capacity), seqs[-1])
        else:
            for key, seq, value in zip(sample_keys, seqs, values):
                builder.add(make_value(key, seq, value))
        table = builder.finish()
        tables.append((device.pread("t", 0, device.size("t")), stats,
                       table.footer))
    assert tables[0] == tables[1]


def _refusal(builder, options, case):
    """Drive ``builder`` into the refusal ``case`` names."""
    from repro.lsm.record import MAX_SEQ, encode_entries

    def entries(keys, seq=1):
        return encode_entries(keys, [seq] * len(keys), 0,
                              [b"x"] * len(keys), options.value_capacity)

    if case == "empty-finish":
        builder.finish()
    elif case == "repeat-within":
        builder.append([5, 7, 7], entries([5, 7, 7]), 1)
    elif case == "descend-within":
        builder.append([5, 9, 8], entries([5, 9, 8]), 1)
    elif case == "repeat-across":
        builder.append([5, 7], entries([5, 7]), 1)
        builder.append([7, 9], entries([7, 9]), 1)
    elif case == "descend-across":
        builder.append([5, 7], entries([5, 7]), 1)
        builder.append([6], entries([6]), 1)
    elif case == "ragged":
        builder.append([5, 7], entries([5, 7])[:-1], 1)
    elif case == "short":
        builder.append([5, 7, 9], entries([5, 7]), 1)
    elif case == "seq":
        builder.append([5], entries([5]), MAX_SEQ + 1)


@pytest.mark.parametrize("case", [
    "empty-finish", "repeat-within", "descend-within", "repeat-across",
    "descend-across", "ragged", "short", "seq"])
def test_append_refuses_with_a_typed_error_and_writes_nothing(case):
    options = small_test_options()
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    builder = TableBuilder(device, "t", options, None, stats,
                           CostModel(block_size=options.block_size))
    with pytest.raises(CorruptionError):
        _refusal(builder, options, case)
    assert device.list_files() == []
    # A refused call appended nothing: only what was accepted before it
    # is in the table the builder goes on to write.
    accepted = builder.entry_count
    assert accepted == (2 if case.endswith("-across") else 0)
    if accepted:
        table = builder.finish()
        assert [record.key for record in _records(table)] == [5, 7]


def _records(table):
    it = table.iterator()
    it.seek_to_first()
    out = []
    while it.valid():
        out.append(it.record())
        it.advance()
    return out
