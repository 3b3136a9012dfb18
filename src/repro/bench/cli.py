"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Usage::

    repro-bench list                     # available experiments
    repro-bench fig6 --scale small       # one experiment
    repro-bench all --scale smoke        # the full figure set
    repro-bench fig6 --dataset wiki      # different dataset
    repro-bench obs --json-out results/  # machine-readable BENCH_obs.json
    repro-bench ycsb --metrics-out m.prom --trace-out traces.json

Each experiment prints the same rows/series the paper's figure plots,
followed by latency percentiles per op type (from the process-wide
metrics registry, reset around every experiment), the slowest traced
operation's stage waterfall, and the qualitative shape checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, TITLES
from repro.bench.report import percentile_table, render_waterfall
from repro.bench.runner import SCALES
from repro.obs.registry import global_registry


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment id ('list' to enumerate, 'all' "
                             "to run everything)")
    parser.add_argument("--list", action="store_true",
                        dest="list_experiments",
                        help="enumerate experiment ids and exit "
                             "(same as the 'list' positional)")
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES),
                        help="workload scale preset (default: smoke)")
    parser.add_argument("--dataset", default=None,
                        help="dataset name for single-dataset experiments")
    parser.add_argument("--csv", action="store_true",
                        help="emit tables as CSV instead of aligned text")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write each table as a CSV file under DIR")
    parser.add_argument("--json-out", default=None, metavar="DIR",
                        help="write a machine-readable BENCH_<id>.json "
                             "(tables, checks, histograms) under DIR")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the run's metrics in Prometheus text "
                             "format to FILE ('-' for stdout)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write kept trace spans (slowest exemplars + "
                             "sampled) as JSON to FILE ('-' for stdout)")
    return parser


def _export_csv(result, out_dir: str) -> None:
    import re

    os.makedirs(out_dir, exist_ok=True)
    for caption, table in result.tables:
        slug = re.sub(r"[^a-z0-9]+", "-", caption.lower()).strip("-")[:60]
        path = os.path.join(out_dir, f"{result.experiment_id}__{slug}.csv")
        with open(path, "w") as sink:
            sink.write(table.to_csv())
    checks_path = os.path.join(out_dir, f"{result.experiment_id}__checks.txt")
    with open(checks_path, "w") as sink:
        for check in result.checks:
            sink.write(check.render() + "\n")


def _export_json(result, registry, out_dir: str) -> str:
    """Write ``BENCH_<id>.json``: the result plus the metrics dump."""
    os.makedirs(out_dir, exist_ok=True)
    doc = result.to_json_dict()
    doc["metrics"] = registry.to_json_dict()
    path = os.path.join(out_dir, f"BENCH_{result.experiment_id}.json")
    with open(path, "w") as sink:
        json.dump(doc, sink, indent=2)
        sink.write("\n")
    return path


def _write_text(path: str, text: str) -> None:
    if path == "-":
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w") as sink:
            sink.write(text)


def attach_observability(result, registry) -> None:
    """Append the registry's percentiles and waterfall to a report."""
    if registry.ops():
        result.add_section("Latency percentiles (simulated us, per op)",
                           percentile_table(registry).to_text())
    exemplars = registry.exemplars()
    if exemplars:
        result.add_section("Slowest traced operation (stage waterfall)",
                           render_waterfall(exemplars[0]))


def _run_one(experiment_id: str, scale: str, dataset: Optional[str],
             csv: bool, out_dir: Optional[str] = None,
             json_out: Optional[str] = None,
             metrics_out: Optional[str] = None,
             trace_out: Optional[str] = None) -> bool:
    run = EXPERIMENTS[experiment_id]
    kwargs = {}
    if dataset is not None:
        # fig5/fig6 take a datasets tuple; the rest take dataset.
        if experiment_id in ("fig5", "fig6"):
            kwargs["datasets"] = (dataset,)
        else:
            kwargs["dataset"] = dataset
    registry = global_registry()
    registry.reset()
    started = time.time()
    result = run(scale=scale, **kwargs)
    elapsed = time.time() - started
    attach_observability(result, registry)
    if csv:
        for caption, table in result.tables:
            print(f"# {result.experiment_id}: {caption}")
            print(table.to_csv())
    else:
        print(result.render())
    if out_dir is not None:
        _export_csv(result, out_dir)
    if json_out is not None:
        path = _export_json(result, registry, json_out)
        print(f"(wrote {path})")
    if metrics_out is not None:
        _write_text(metrics_out, registry.to_prometheus())
    if trace_out is not None:
        spans = {"exemplars": [span.to_dict()
                               for span in registry.exemplars()],
                 "sampled": [span.to_dict() for span in registry.sampled]}
        _write_text(trace_out, json.dumps(spans, indent=2) + "\n")
    print(f"({experiment_id} finished in {elapsed:.1f}s wall time)\n")
    return result.all_checks_passed


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_experiments or args.experiment == "list":
        for experiment_id in EXPERIMENTS:
            print(f"{experiment_id:<12s} {TITLES[experiment_id]}")
        return 0
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("error: an experiment id (or --list) is required",
              file=sys.stderr)
        return 2
    if args.experiment == "all":
        ok = True
        for experiment_id in EXPERIMENTS:
            ok = _run_one(experiment_id, args.scale, args.dataset,
                          args.csv, args.out, args.json_out,
                          args.metrics_out, args.trace_out) and ok
        return 0 if ok else 1
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    ok = _run_one(args.experiment, args.scale, args.dataset, args.csv,
                  args.out, args.json_out, args.metrics_out, args.trace_out)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
