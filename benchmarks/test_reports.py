"""Every registered experiment regenerates its committed report.

Each test runs one experiment through the benchmark CLI exactly as
``python -m repro.bench <id> --scale smoke --json-out results`` does.
Exit 0 means every paper shape check held.  At ``smoke`` scale (the
default; ``--bench-scale small`` runs the fuller sweep) the written
``BENCH_<id>.json`` must also equal the committed
``results/BENCH_<id>.json`` byte for byte, ``metrics`` block included:
the simulation is deterministic, so a change that moves any report
number fails here instead of drifting silently.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.experiments import EXPERIMENTS

#: Where ``python -m repro.bench <id> --scale smoke --json-out results``
#: writes the committed reports.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_report(experiment_id, request, tmp_path):
    scale = request.config.getoption("--bench-scale")
    assert main([experiment_id, "--scale", scale,
                 "--json-out", str(tmp_path)]) == 0, "a shape check failed"
    if scale != "smoke":
        return
    name = f"BENCH_{experiment_id}.json"
    pinned = RESULTS_DIR / name
    assert pinned.is_file(), f"no committed results/{name}"
    assert (tmp_path / name).read_bytes() == pinned.read_bytes(), (
        f"this run differs from results/{name}; if the change is "
        f"intended, regenerate with: python -m repro.bench "
        f"{experiment_id} --scale smoke --json-out results")
