"""The repo's benchmark: four workloads, two clocks, every layer timed.

    python3 perf/run.py                       # all four, human-readable
    python3 perf/run.py --workload W --seed S --seconds N --trace 0|1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without it each workload runs in its
own fresh child process, one at a time.  ``--check-repeat`` runs two
full sets and fails when they disagree by more than the bounds.

See ``perf/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from repro import ALL_KINDS  # noqa: E402
from repro.storage import checksum, stats as st  # noqa: E402
from workloads import (  # noqa: E402
    CHUNK_CALLS, DELETE, GET, MGET, PUT, SCAN, SCALES, SERVE_RATES,
    WORKLOADS, YCSB_MGET_KEYS, PassResult, Scale)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: End-to-end metrics on the simulated clock or made of counts: two runs
#: with one seed must agree to the last digit.
EXACT = ("sim_us_per_op", "write_amp", "space_amp")

#: A run never makes more passes than this, however fast they get.
MAX_PASSES = 9

def timer_ns() -> float:
    """Median cost of one timing pair, the floor under every latency."""
    now = time.perf_counter_ns
    gaps = []
    for _ in range(20_000):
        t0 = now()
        gaps.append(now() - t0)
    return float(statistics.median(gaps))


def prepare(w, builds: int, setups: List[float]) -> None:
    """Build the initial state ``builds`` times (timed), keep the last."""
    for _ in range(builds):
        w.close()
        t0 = time.perf_counter()
        w.build()
        setups.append(time.perf_counter() - t0)
    w.warm()


def same_simulation(a: PassResult, b: PassResult) -> bool:
    """Did two passes charge the same simulated time and counters?

    Counters must be equal.  Simulated time is a difference of running
    float totals, so on a reused state it may differ in the last digits
    (the additions associate differently), and by no more.
    """
    def close(x: Dict[str, float], y: Dict[str, float]) -> bool:
        return x.keys() == y.keys() and all(
            math.isclose(x[k], y[k], rel_tol=1e-9) for k in x)

    return (a.counters == b.counters and a.failed == b.failed
            and close(a.stage_us, b.stage_us) and close(a.exact, b.exact))


def chunk_sums(lat_ns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Wall ns per chunk of CHUNK_CALLS operations (a segment is one)."""
    first_op = np.cumsum(weights) - weights
    _, starts = np.unique(first_op // CHUNK_CALLS, return_index=True)
    return np.add.reduceat(lat_ns, starts)


def measure(name: str, seed: int, seconds: float, scale: Scale) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    w = WORKLOADS[name](seed, scale)
    setups: List[float] = []
    passes: List[PassResult] = []
    measured = 0.0
    try:
        # A workload that changes its state is rebuilt for every pass; a
        # read-only one keeps its state, and set-up is sampled up front.
        if not w.mutates:
            prepare(w, scale.min_passes, setups)
        while len(passes) < scale.min_passes or (
                len(passes) < MAX_PASSES
                and measured * (1 + 1 / len(passes)) <= seconds):
            if w.mutates:
                prepare(w, 1, setups)
            passes.append(w.run())
            measured += float(passes[-1].lat_ns.sum()) / 1e9
    finally:
        w.close()
    first = passes[0]
    deterministic = all(same_simulation(first, p) for p in passes[1:])
    if not deterministic:
        print(f"{name}: passes disagree on the simulated clock",
              file=sys.stderr)
    # An operation's latency is its fastest of the passes and a chunk's
    # time the fastest of its passes: noise on a shared box only adds.
    best = np.min([p.lat_ns for p in passes], axis=0)
    chunks = np.min([chunk_sums(p.lat_ns, p.weights) for p in passes],
                    axis=0)
    ops = int(first.weights.sum())
    per_op_us = best / first.weights / 1e3
    values = {
        "setup_s": statistics.median(setups),
        "ops_s": ops / (float(chunks.sum()) / 1e9),
        "wall_p50_us": float(np.percentile(per_op_us, 50)),
        "wall_p99_us": float(np.percentile(per_op_us, 99)),
        "sim_us_per_op": sum(first.stage_us.values()) / ops,
        "write_amp": first.exact["write_amp"],
        "space_amp": first.exact["space_amp"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": deterministic and first.failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": with_units(values, END_TO_END),
        "info": {"passes": len(passes), "timed_calls": len(best),
                 "ops_per_pass": ops, "digest": w.digest(), **w.info},
    }


def measure_traced(name: str, seed: int, scale: Scale) -> dict:
    """The traced run: one reference pass, then one pass under wrappers."""
    w = WORKLOADS[name](seed, scale)
    tracer = tracing.Tracer()
    try:
        prepare(w, 1, [])
        ref = w.run()
        if w.mutates:
            prepare(w, 1, [])
        tracer.install()
        try:
            traced = w.run(tracer)
        finally:
            tracer.remove()
    finally:
        w.close()
    ops = int(ref.weights.sum())
    traced_ns = (float(traced.lat_ns.sum())
                 + traced.wall.get("reopen_ms", 0.0) * 1e6)
    counters = traced.counters
    stage_us = traced.stage_us

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    values: Dict[str, float] = {}
    totals = traced.spans
    for span, (calls, self_ns, _, _) in totals.items():
        values[f"{span}.calls_per_op"] = calls / ops
        values[f"{span}.self_us_per_op"] = self_ns / 1e3 / ops

    # Per-call-type wall latency comes from the untraced reference pass.
    ref_us = ref.lat_ns / 1e3

    def pct(codes: Tuple[int, ...], q: float) -> float:
        chosen = ref_us[np.isin(ref.kinds, codes)]
        return float(np.percentile(chosen, q)) if len(chosen) else 0.0

    writes = ref_us[np.isin(ref.kinds, (PUT, DELETE))]
    values.update({
        "db.get.p50_us": pct((GET,), 50),
        "db.get.p99_us": pct((GET,), 99),
        "db.put.p50_us": pct((PUT, DELETE), 50),
        "db.put.p99_us": pct((PUT, DELETE), 99),
        "db.put.mean_us": float(writes.mean()) if len(writes) else 0.0,
        "db.put.max_ms": float(writes.max()) / 1e3 if len(writes) else 0.0,
        "db.scan.p50_us": pct((SCAN,), 50),
        "db.multi_get.key_p50_us": pct((MGET,), 50) / YCSB_MGET_KEYS,
        "db.reopen.ms": ref.wall.get("reopen_ms", 0.0),
        "db.flush.stall_share": ratio(totals["db.flush"][2], traced_ns),
        "compaction.stall_share": ratio(totals["compaction.run"][2],
                                        traced_ns),
        "compaction.bytes_per_user_byte": ratio(
            count(st.COMPACT_BYTES_OUT), traced.exact["acked_bytes"]),
        "bloom.false_positive_ratio": ratio(
            count(st.BLOOM_FALSE_POSITIVES),
            count(st.BLOOM_FALSE_POSITIVES) + count(st.BLOOM_NEGATIVES)),
        "bloom.mem_bytes": traced.exact["bloom_mem_bytes"],
        "indexes.mem_bytes": traced.exact["index_mem_bytes"],
        "sstable.blocks_per_get": ratio(count(st.BLOCKS_READ),
                                        count(st.POINT_LOOKUPS)),
        "sstable.segments_per_get": ratio(count(st.SEGMENTS_FETCHED),
                                          count(st.POINT_LOOKUPS)),
        "checksum.bytes_per_op": totals["checksum.crc32c"][3] / ops,
        "block_cache.hit_ratio": ratio(
            count(st.CACHE_HITS),
            count(st.CACHE_HITS) + count(st.CACHE_MISSES)),
        "data_cache.hit_ratio": ratio(
            count(st.DATA_CACHE_HITS),
            count(st.DATA_CACHE_HITS) + count(st.DATA_CACHE_MISSES)),
        "data_cache.evictions_per_op": count(st.DATA_CACHE_EVICTIONS) / ops,
        "block_device.read_bytes_per_op": count(st.BYTES_READ) / ops,
        "block_device.write_bytes_per_op": count(st.BYTES_WRITTEN) / ops,
        "replication.frames_per_put": ratio(count(st.REPL_FRAMES_SHIPPED),
                                            count(st.REPL_WRITES_ACKED)),
        "trace.overhead_ratio": float(traced.lat_ns.sum())
        / float(ref.lat_ns.sum()),
    })
    for stage in ("table_lookup", "prediction", "io", "search",
                  "write_path"):
        values[f"sim.{stage}_us"] = stage_us.get(stage, 0.0) / ops
    values["sim.compaction_us"] = sum(
        stage_us.get(stage.value, 0.0)
        for stage in st.COMPACTION_STAGES) / ops
    for kind in ALL_KINDS:
        calls, self_ns = traced.lookup_by_kind.get(kind.value, (0, 0))
        values[f"indexes.lookup_us.{kind.value}"] = ratio(self_ns / 1e3,
                                                          calls)
    for i in range(len(SERVE_RATES)):
        values[f"gateway.p99_us.r{i + 1}"] = traced.exact.get(
            f"p99_us.r{i + 1}", 0.0)
    for label in ("ok_frac.r3", "ok_frac.r4", "max_rate_ok",
                  "queue_p99_us", "service_p99_us"):
        values[f"gateway.{label}"] = traced.exact.get(label, 0.0)

    # The wrappers only watch: the traced pass must charge exactly what
    # the reference pass charged.
    pure = same_simulation(ref, traced)
    if not pure:
        print(f"{name}: the traced pass changed the simulation",
              file=sys.stderr)
    return {
        "correct": pure and ref.failed == 0,
        "attempted": ref.attempted + traced.attempted,
        "failed": ref.failed + traced.failed,
        "metrics": with_units(values, PER_LAYER),
        "info": {"timed_calls": len(ref.lat_ns), "ops_per_pass": ops,
                 "traced_wall_ns": traced_ns,
                 "span_self_ns": sum(row[1] for row in totals.values()),
                 "digest": w.digest(), **w.info},
        "samples": tracer.samples,
    }


def with_units(values: Dict[str, float], spec: Dict[str, dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``spec``."""
    if set(values) != set(spec):
        raise ValueError(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(spec))}")
    return {name: {"value": values[name], "unit": spec[name]["unit"]}
            for name in spec}


def provenance(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"seed": seed, "commit": commit,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "checksum_backend": checksum.backend(),
            "harness.timer_ns": timer_ns()}


def run_one(args, scale: Scale) -> int:
    """Driver mode: one workload in this process, JSON on the last line."""
    name = args.workload
    if args.trace:
        result = measure_traced(name, args.seed, scale)
    else:
        result = measure(name, args.seed, args.seconds, scale)
    samples = result.pop("samples", None)
    info = result.pop("info")
    info.update(provenance(args.seed))
    for metric, cell in result["metrics"].items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    for key, value in info.items():
        print(f"{name} info.{key} {value}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}.seed{args.seed}.trace{args.trace}"
        (out / f"{stem}.json").write_text(
            json.dumps({**result, "info": info}, indent=1))
        if samples is not None:
            (out / f"{stem}.trace.json").write_text(
                json.dumps({"workload": name, "samples": samples}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(name: str, args, trace: int) -> dict:
    """One workload in a fresh child process; its final JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale]
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no output (exit {done.returncode})")
    if not args.check_repeat:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, one child at a time; non-zero if any is wrong."""
    names = list(WORKLOADS)
    sets = []
    for _ in range(2 if args.check_repeat else 1):
        sets.append({name: run_child(name, args, 0) for name in names})
        if args.trace and not args.check_repeat:
            for name in names:
                run_child(name, args, 1)
    status = 0 if all(r["correct"] for s in sets for r in s.values()) else 1
    if not args.check_repeat:
        return status
    print("workload metric first second gap bound verdict")
    for name in names:
        for metric, spec in END_TO_END.items():
            a = sets[0][name]["metrics"][metric]["value"]
            b = sets[1][name]["metrics"][metric]["value"]
            gap = abs(a - b) / abs(a)
            ok = a == b if metric in EXACT else gap <= spec["bound"]
            if not ok:
                status = 1
            print(f"{name} {metric} {a:.6g} {b:.6g} {gap:.4f} "
                  f"{'exact' if metric in EXACT else spec['bound']} "
                  f"{'ok' if ok else 'FAIL'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="measuring budget: identical passes repeat "
                             "until it is used, never fewer than 3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", help="directory for result and trace JSON")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two untraced sets and compare them")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, SCALES[args.scale])
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
