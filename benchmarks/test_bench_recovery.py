"""Benchmark: recovery study (manifest + persisted models vs retrain)."""

from conftest import assert_checks, run_once

from repro.bench.experiments import recovery_study


def test_recovery_study(benchmark, bench_scale):
    result = run_once(benchmark, recovery_study.run, scale=bench_scale)
    assert_checks(result)
