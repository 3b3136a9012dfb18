"""Shared configuration for the paper-reproduction benchmark suite.

Every ``test_bench_*`` file regenerates one table or figure from the
paper at ``smoke`` scale (seconds each; pass ``--bench-scale small`` for
the fuller sweep), asserts the paper's qualitative shape checks, and
reports wall time through pytest-benchmark.  Experiments are expensive,
so each benchmark runs exactly one round.

A smoke-scale result is also held against the committed
``results/BENCH_<id>.json`` of its experiment, when there is one: the
simulation is deterministic, so a refactor that moves a report number
fails here instead of drifting silently.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.cli import attach_observability
from repro.bench.report import ExperimentResult
from repro.bench.runner import get_scale
from repro.obs.registry import global_registry

#: Where ``python -m repro.bench <id> --scale smoke --json-out results``
#: writes the committed reports.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The parts of a report that are a function of the code alone
#: (``metrics`` holds the whole registry dump and is not compared).
PINNED_PARTS = ("tables", "sections", "checks")


def pytest_addoption(parser):
    parser.addoption("--bench-scale", action="store", default="smoke",
                     help="experiment scale preset (smoke/small/medium)")


@pytest.fixture(scope="session")
def bench_scale(request):
    """The Scale preset benchmarks run at."""
    return get_scale(request.config.getoption("--bench-scale"))


def run_once(benchmark, fn, *args, **kwargs) -> ExperimentResult:
    """Execute an experiment exactly once under pytest-benchmark.

    The global metrics registry is reset first, as the CLI does, so the
    percentile sections of the report describe this experiment alone.
    """
    global_registry().reset()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                iterations=1)
    result.extras["scale"] = kwargs["scale"].name
    return result


def assert_checks(result: ExperimentResult, ignore=()):
    """Fail the benchmark when paper shape checks did not hold, or when
    a smoke-scale report differs from its committed copy."""
    failures = [check for check in result.failed_checks()
                if not any(token in check.name for token in ignore)]
    assert not failures, "\n" + result.render()
    pinned = RESULTS_DIR / f"BENCH_{result.experiment_id}.json"
    if result.extras.get("scale") != "smoke" or not pinned.exists():
        return
    attach_observability(result, global_registry())
    fresh = result.to_json_dict()
    committed = json.loads(pinned.read_text())
    for part in PINNED_PARTS:
        assert json.dumps(fresh[part]) == json.dumps(committed[part]), (
            f"{part} of {pinned.name} differ from this run; if the change "
            f"is intended, regenerate with: python -m repro.bench "
            f"{result.experiment_id} --scale smoke --json-out results")
