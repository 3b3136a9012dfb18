"""Tests for the analytic cost model, validated against measurements."""

import pytest

from repro.core.cost_analysis import (
    expected_io_blocks,
    expected_io_us,
    expected_point_lookup_us,
    inner_index_cost_us,
    plateau_boundary,
)
from repro.core.testbed import Testbed
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.lsm.options import Options
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.storage.stats import Stage
from repro.workloads.datasets import generate


def test_io_blocks_formula():
    # 32 entries x 128 B = 4096 B = one block + expected straddle.
    blocks = expected_io_blocks(32, 128, 4096)
    assert 1.0 <= blocks <= 2.0
    assert expected_io_blocks(256, 1024, 4096) > 60


def test_io_us_monotone_in_boundary():
    cm = DEFAULT_COST_MODEL
    previous = 0.0
    for boundary in (8, 32, 128, 512):
        cost = expected_io_us(cm, boundary, 1024)
        assert cost >= previous
        previous = cost


def test_plateau_boundary():
    assert plateau_boundary(1024, 4096) == 4
    assert plateau_boundary(128, 4096) == 32
    assert plateau_boundary(8192, 4096) == 2


def test_inner_index_costs_ranked_sensibly():
    cm = DEFAULT_COST_MODEL
    costs = {kind: inner_index_cost_us(kind, cm, segments_hint=4096)
             for kind in ALL_KINDS}
    # RMI's two model evals are the cheapest structure access.
    assert costs[IndexKind.RMI] == min(costs.values())
    assert all(cost > 0 for cost in costs.values())


def test_analytic_latency_matches_measurement():
    """The Section 4 model should predict the testbed within ~2x."""
    options = Options(index_kind=IndexKind.PLR, position_boundary=32,
                      value_capacity=108, write_buffer_bytes=64 * 128,
                      sstable_bytes=512 * 128, size_ratio=4,
                      data_block_bytes=4 * 128)
    bed = Testbed(options=options)
    keys = generate("random", 4000, seed=0)
    bed.bulk_load(keys)
    metrics = bed.run_point_lookups(keys[::5])
    measured = metrics.avg_us
    inner = inner_index_cost_us(IndexKind.PLR, DEFAULT_COST_MODEL,
                                segments_hint=64)
    predicted = expected_point_lookup_us(
        DEFAULT_COST_MODEL, 32, options.entry_bytes, inner,
        levels_probed=1.2, bloom_probes=2.0)
    bed.close()
    assert predicted == pytest.approx(measured, rel=1.0)
    # And the per-stage I/O estimate tracks the measured I/O stage.
    assert expected_io_us(DEFAULT_COST_MODEL, 32, 128) == pytest.approx(
        metrics.stage_avg_us(Stage.IO), rel=1.0)
