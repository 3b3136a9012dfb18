"""Observability study — tracing purity, sampling, and tail shape.

Beyond the paper: it reports per-stage *means*, but learned-index
regressions live in the tail (a mispredicted segment costs extra
blocks on exactly the unlucky keys), and a serving deployment watches
p99, not averages.  This experiment sweeps trace sampling rate x index
granularity over a YCSB-A Zipfian mix and validates the observability
layer's core contracts:

* **Purity** — the tracer observes :class:`~repro.storage.stats.Stats`
  charges, never mutates them: a fully-traced run must produce exactly
  the counters and stage times of an untraced run of the same seed
  (so enabling tracing adds zero simulated time).
* **Tail shape** — p50 <= p99 <= p999 for every op type in every cell
  (histograms are monotone in rank by construction; this catches
  bucket-math regressions).
* **Coverage** — every root operation of the measured phase lands in a
  histogram: get+put sample counts equal the operation count,
  regardless of sampling (sampling affects span *retention* only).
* **Bounded retention** — slowest-span exemplars stay within capacity
  and sorted; 1-in-N sampling keeps monotonically fewer spans as N
  grows, and none when disabled.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.obs.registry import (
    DEFAULT_EXEMPLARS,
    MetricsRegistry,
    global_registry,
)
from repro.workloads import datasets as ds
from repro.workloads.ycsb import workload

EXPERIMENT_ID = "obs"
TITLE = "Observability: trace sampling x granularity, latency tails"


def run(scale="smoke", dataset: str = "random",
        kind: IndexKind = IndexKind.PGM,
        boundary: int = 32,
        sample_rates: Sequence[int] = (0, 1, 16, 256)) -> ExperimentResult:
    """Sweep sampling rate x granularity on YCSB-A Zipfian."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    n_ops = scale.n_ops
    result.note(f"scale={scale.name}: {scale.n_keys} keys, {n_ops} YCSB-A "
                f"Zipfian ops per cell, index={kind}, boundary={boundary}")

    table = ResultTable(columns=["granularity", "sample_every",
                                 "get_p50_us", "get_p99_us", "get_p999_us",
                                 "put_p99_us", "sampled", "exemplars",
                                 "windows"])
    purity_ok = True
    purity_detail = []
    tails_ok = True
    tail_detail = []
    coverage_ok = True
    coverage_detail = []
    retention_ok = True
    retention_detail = []

    for granularity in (Granularity.FILE, Granularity.LEVEL):
        options = scale.config(kind, boundary, granularity=granularity)
        # Untraced reference: what the stats registry must equal.
        ref = loaded_testbed(options, keys, scale.seed, observe=False)
        ref.run_ycsb(workload("A", keys, seed=scale.seed + 23), n_ops)
        ref_counters = dict(ref.db.stats.counters)
        ref_stages = dict(ref.db.stats.stage_us)
        ref.close()

        kept_by_rate = {}
        for sample_every in sample_rates:
            registry = MetricsRegistry()
            bed = loaded_testbed(options, keys, scale.seed, observe=True,
                                 sample_every=sample_every,
                                 registry=registry)
            phase = bed.run_ycsb(
                workload("A", keys, seed=scale.seed + 23), n_ops,
                window_ops=max(1, n_ops // 5))

            same = (dict(bed.db.stats.counters) == ref_counters
                    and dict(bed.db.stats.stage_us) == ref_stages)
            purity_ok = purity_ok and same
            if not same:
                purity_detail.append(
                    f"{granularity}/N={sample_every} diverged")

            pct = phase.percentiles or {}
            for op, row in pct.items():
                if not (row["p50"] <= row["p99"] <= row["p999"]):
                    tails_ok = False
                    tail_detail.append(
                        f"{granularity}/N={sample_every} {op}: "
                        f"p50={row['p50']:.2f} p99={row['p99']:.2f} "
                        f"p999={row['p999']:.2f}")

            recorded = sum(int(row["count"]) for op, row in pct.items()
                           if op in ("get", "put"))
            if recorded != n_ops:
                coverage_ok = False
                coverage_detail.append(
                    f"{granularity}/N={sample_every}: "
                    f"{recorded} != {n_ops}")

            exemplars = registry.exemplars()
            bounded = (len(exemplars) <= DEFAULT_EXEMPLARS
                       and all(a.total_us >= b.total_us for a, b in
                               zip(exemplars, exemplars[1:])))
            retention_ok = retention_ok and bounded
            if not bounded:
                retention_detail.append(
                    f"{granularity}/N={sample_every}: exemplars unsorted "
                    f"or over capacity ({len(exemplars)})")
            kept_by_rate[sample_every] = len(registry.sampled)

            get_row = pct.get("get", {})
            table.add_row(str(granularity), sample_every,
                          get_row.get("p50", 0.0), get_row.get("p99", 0.0),
                          get_row.get("p999", 0.0),
                          pct.get("put", {}).get("p99", 0.0),
                          len(registry.sampled), len(exemplars),
                          len(registry.windows))
            # Cells measure in private registries (so sampling counts
            # stay per-cell); fold them into the process-wide sink so
            # the CLI's percentile/waterfall sections and exports see
            # this experiment too.
            global_registry().merge(registry)
            bed.close()

        # Sampling keeps fewer spans as N grows; zero when disabled.
        enabled = sorted(rate for rate in kept_by_rate if rate > 0)
        monotone = (kept_by_rate.get(0, 0) == 0
                    and all(kept_by_rate[a] >= kept_by_rate[b] > 0
                            for a, b in zip(enabled, enabled[1:])))
        retention_ok = retention_ok and monotone
        if not monotone:
            retention_detail.append(
                f"{granularity}: kept {kept_by_rate}")

    result.add_table("Observability sweep (YCSB-A Zipfian)", table)
    result.check(
        "tracing is a pure observer: traced stats equal untraced stats",
        purity_ok, "; ".join(purity_detail))
    result.check(
        "p50 <= p99 <= p999 for every op type in every cell",
        tails_ok, "; ".join(tail_detail[:4]))
    result.check(
        "every phase operation lands in a histogram (get+put == ops)",
        coverage_ok, "; ".join(coverage_detail[:4]))
    result.check(
        "span retention is bounded: top-K exemplars, 1-in-N sampling",
        retention_ok, "; ".join(retention_detail[:4]))
    return result
