"""Tests for the unified testbed (load, measured phases, memory)."""

import pytest

from repro.core.testbed import Testbed
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity, Options
from repro.storage.stats import Stage
from repro.workloads.datasets import generate
from repro.workloads.ycsb import workload


def _testbed(**overrides):
    defaults = dict(index_kind=IndexKind.PGM, position_boundary=16,
                    value_capacity=44, write_buffer_bytes=64 * 64,
                    sstable_bytes=128 * 64, size_ratio=4,
                    data_block_bytes=4 * 64)
    defaults.update(overrides)
    return Testbed(options=Options(**defaults))


def _bulk(bed, n):
    keys = generate("random", n, seed=bed.seed)
    bed.bulk_load(keys)
    return keys


@pytest.fixture()
def bed():
    bed = _testbed()
    yield bed
    bed.close()


def test_load_and_point_lookups(bed):
    keys = generate("random", 3000, seed=bed.seed)
    for key in keys:
        bed.db.put(key, bed.value_for(key))
    bed.settle()
    metrics = bed.run_point_lookups(keys[::10])
    assert metrics.ops == 300
    assert metrics.avg_us > 0
    assert metrics.stage_avg_us(Stage.IO) > 0
    assert metrics.blocks_read_per_op() > 0
    assert metrics.total_us == pytest.approx(
        sum(metrics.stage_avg_us(s) * metrics.ops
            for s in (Stage.TABLE_LOOKUP, Stage.PREDICTION, Stage.IO,
                      Stage.SEARCH, Stage.SCAN)), rel=1e-6)


def test_bulk_load_equivalent_reads(bed):
    keys = _bulk(bed, 3000)
    for key in keys[::97]:
        assert bed.db.get(key) == bed.value_for(key)
    assert bed.level_keys()  # level assignment recorded
    assert sum(len(v) for v in bed.level_keys().values()) == 3000


def test_bulk_load_spans_levels(bed):
    _bulk(bed, 3000)
    levels = sorted(bed.level_keys())
    assert len(levels) >= 2
    sizes = [len(bed.level_keys()[level]) for level in levels]
    # Deeper levels hold geometrically more data.
    assert sizes[-1] > sizes[0]


def test_range_lookup_metrics(bed):
    keys = _bulk(bed, 3000)
    metrics = bed.run_range_lookups(keys[::100], length=20)
    assert metrics.ops == 30
    assert metrics.stage_avg_us(Stage.SCAN) >= 0
    assert metrics.total_us > 0


def test_write_phase_reports_compaction(bed):
    keys = _bulk(bed, 2000)
    fresh = [key + 1 for key in keys[:1500]]
    metrics = bed.run_writes(fresh)
    assert metrics.ops == 1500
    assert metrics.stage_us.get(Stage.WRITE_PATH.value, 0) > 0
    assert metrics.total_us > 0


def test_ycsb_phase(bed):
    keys = _bulk(bed, 2000)
    mix = workload("A", keys, seed=5)
    metrics = bed.run_ycsb(mix, 500)
    assert metrics.ops == 500
    assert metrics.avg_us > 0


def test_memory_metrics(bed):
    _bulk(bed, 3000)
    assert bed.db.index_memory_bytes() > 0
    assert bed.db.bloom_memory_bytes() > 0


def test_level_granularity_testbed():
    bed = _testbed(granularity=Granularity.LEVEL)
    keys = _bulk(bed, 3000)
    metrics = bed.run_point_lookups(keys[::20])
    assert metrics.avg_us > 0
    assert bed.db.index_memory_bytes() > 0
    bed.close()


def test_value_for_fits_capacity(bed):
    value = bed.value_for((1 << 63) - 1)
    assert len(value) <= bed.options.value_capacity
