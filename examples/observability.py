"""Trace a Zipfian YCSB-C run and show the slowest-op waterfall.

The paper reports per-stage *means*; this example shows the per-op
view the observability layer adds.  A Zipfian YCSB-C read stream runs
against a loaded database with tracing on; afterwards we print:

* latency percentiles per op type (p50/p90/p99/p999 from the
  HDR-style histograms — every op is recorded, sampling or not);
* windowed throughput snapshots across the run;
* the stage waterfall of the single slowest traced operation — which
  stage the tail latency actually went to, and the counters (bloom
  probes, blocks read, cache hits) that op charged.

Run:  python examples/observability.py
"""

from repro.bench.report import percentile_table, render_waterfall
from repro.bench.runner import SCALES, loaded_testbed
from repro.indexes import IndexKind
from repro.obs.registry import MetricsRegistry
from repro.workloads import generate, workload

BOUNDARY = 32


def main() -> None:
    scale = SCALES["smoke"]
    keys = generate("random", scale.n_keys, seed=scale.seed)
    registry = MetricsRegistry()
    bed = loaded_testbed(scale.config(IndexKind.PGM, BOUNDARY), keys,
                         scale.seed, registry=registry, sample_every=64)
    mix = workload("C", keys, seed=9)  # 100% reads, Zipfian
    metrics = bed.run_ycsb(mix, scale.n_ops,
                           window_ops=max(1, scale.n_ops // 4))
    print(f"YCSB-C, {metrics.ops:,} Zipfian reads, "
          f"{metrics.avg_us:.2f} simulated us/op\n")

    print("Latency percentiles per op type:")
    print(percentile_table(registry).to_text())

    print("Windowed throughput (simulated time):")
    for row in metrics.windows or []:
        print(f"  window {int(row['window'])}: {int(row['ops'])} ops, "
              f"{row['ops_per_sim_sec']:,.0f} ops/sim-sec, "
              f"get p99 {row.get('get_p99_us', 0.0):.2f} us")
    print()

    slowest = registry.exemplars()[0]
    print("Slowest traced operation (stage waterfall):")
    print(render_waterfall(slowest, indent="  "))

    kept = len(registry.sampled)
    print(f"Kept {kept} sampled spans (1-in-64) and "
          f"{len(registry.exemplars())} slowest-op exemplars; histograms "
          f"recorded every operation regardless of sampling.")
    bed.close()


if __name__ == "__main__":
    main()
