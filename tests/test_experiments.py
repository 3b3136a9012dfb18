"""Integration tests: every experiment runs and satisfies its checks.

These run the real experiment code on trimmed axes (tiny subsets of
kinds/boundaries) so the whole harness is exercised in seconds; the
full sweeps, pinned to the committed reports, run in ``benchmarks/``.
"""

import pytest

from repro.bench.experiments import (
    ablations,
    fig5_dataset_cdfs,
    fig6_boundary_sweep,
    fig7_breakdown,
    fig8_granularity,
    fig9_compaction,
    fig10_level_overhead,
    fig11_range_lookup,
    fig12_ycsb,
    service_study,
    table1_stage_times,
    unclustered_study,
)
from repro.bench.runner import Scale
from repro.indexes.registry import IndexKind

#: A micro scale for harness integration tests.
MICRO = Scale(name="micro", n_keys=4_000, n_ops=400, value_capacity=108,
              write_buffer_bytes=16 * 1024, sstable_unit_bytes=512,
              default_sstable_bytes=32 * 1024, size_ratio=5, seed=7)

TRIMMED_KINDS = (IndexKind.FP, IndexKind.PLR, IndexKind.PGM)


def test_fig5_runs():
    result = fig5_dataset_cdfs.run(scale=MICRO,
                                   datasets=("random", "fb", "books"))
    assert result.tables
    assert result.all_checks_passed, result.render()


def test_fig6_runs_trimmed():
    result = fig6_boundary_sweep.run(scale=MICRO, kinds=TRIMMED_KINDS,
                                     boundaries=(128, 32, 8))
    # The PGM-vs-PLR memory edge needs realistically sized tables (the
    # benchmarks assert it at smoke scale+); every other Figure 6 shape
    # must hold even at micro scale.
    scale_robust = [check for check in result.failed_checks()
                    if "PGM memory" not in check.name]
    assert not scale_robust, result.render()
    table = result.tables[0][1]
    assert len(table.rows) == len(TRIMMED_KINDS) * 3


def test_fig7_runs_trimmed():
    result = fig7_breakdown.run(scale=MICRO, kinds=TRIMMED_KINDS,
                                boundaries=(64, 16))
    assert result.all_checks_passed, result.render()


def test_fig8_runs_trimmed():
    result = fig8_granularity.run(scale=MICRO,
                                  kinds=(IndexKind.PLR, IndexKind.RMI,
                                         IndexKind.PGM),
                                  boundaries=(64,),
                                  paper_mib_sizes=(8, 64))
    assert result.tables
    # Memory shrink check must hold even at micro scale.
    failed = [c for c in result.failed_checks()
              if "coarser granularity" in c.name]
    assert not failed, result.render()


def test_fig9_runs_trimmed():
    result = fig9_compaction.run(scale=MICRO,
                                 kinds=(IndexKind.FP, IndexKind.PLR,
                                        IndexKind.PLEX),
                                 boundaries=(64, 32))
    assert result.all_checks_passed, result.render()


def test_fig10_runs():
    result = fig10_level_overhead.run(scale=MICRO)
    assert result.all_checks_passed, result.render()


def test_table1_runs():
    result = table1_stage_times.run(scale=MICRO, paper_mib_sizes=(4, 32))
    assert result.all_checks_passed, result.render()


def test_fig11_runs_trimmed():
    result = fig11_range_lookup.run(scale=MICRO,
                                    kinds=(IndexKind.FP, IndexKind.PGM),
                                    boundaries=(128, 8),
                                    range_lengths=(2, 256))
    assert result.tables


def test_fig12_runs_trimmed():
    result = fig12_ycsb.run(scale=MICRO,
                            kinds=(IndexKind.FP, IndexKind.FT,
                                   IndexKind.PGM),
                            boundaries=(32,), workloads=("B", "C"))
    assert result.tables
    rows = result.tables[0][1].rows
    assert len(rows) == 3


def test_unclustered_runs():
    result = unclustered_study.run(scale=MICRO, n_scans=8, scan_length=64)
    assert result.all_checks_passed, result.render()


def test_ablations_runs():
    result = ablations.run(scale=MICRO,
                           epsilon_recursive_values=(4, 16),
                           radix_bits_values=(1, 8))
    assert result.all_checks_passed, result.render()


@pytest.mark.parametrize("module", [
    ablations, fig5_dataset_cdfs, fig6_boundary_sweep, fig7_breakdown,
    fig8_granularity, fig9_compaction, fig10_level_overhead,
    table1_stage_times, fig11_range_lookup, fig12_ycsb, unclustered_study,
    service_study])
def test_experiment_metadata(module):
    assert isinstance(module.EXPERIMENT_ID, str)
    assert isinstance(module.TITLE, str)
    assert callable(module.run)


def test_hardware_runs():
    from repro.bench.experiments import hardware_study
    result = hardware_study.run(scale=MICRO,
                                profiles=("paper-nvme", "cloud-object"))
    assert result.tables
    # The request-bound claim must hold even at micro scale.
    failed = [c for c in result.failed_checks()
              if "request" in c.name or "interchangeable" in c.name]
    assert not failed, result.render()


def test_tiering_study_runs():
    from repro.bench.experiments import tiering_study
    result = tiering_study.run(scale=MICRO)
    assert result.all_checks_passed, result.render()


def test_service_study_runs():
    result = service_study.run(scale=MICRO, shard_counts=(1, 4),
                               batch_sizes=(1, 16))
    assert result.tables
    # Scale-robust claims: routing, scans, group-commit arithmetic and
    # the cache showing hits must hold even at micro scale.
    robust = [check for check in result.failed_checks()
              if "latency" not in check.name and "read time" not in check.name]
    assert not robust, result.render()
