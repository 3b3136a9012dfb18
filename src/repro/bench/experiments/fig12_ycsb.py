"""Figure 12 — YCSB mixed workloads A-F.

The paper's final experiment runs the six core YCSB mixes and plots
memory against mean operation latency per index type.  Its takeaways:
the memory-latency trade-off mirrors the read-only results (reads
dominate even in mixed workloads), PGM keeps the best frontier, and
FITing-Tree lags the other learned indexes.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.workloads import datasets as ds
from repro.workloads.ycsb import workload

EXPERIMENT_ID = "fig12"
TITLE = "YCSB workloads A-F: memory vs operation latency (Figure 12)"

_DEFAULT_WORKLOADS = ("A", "B", "C", "D", "E", "F")


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = ALL_KINDS,
        boundaries: Sequence[int] = (64, 16),
        workloads: Sequence[str] = _DEFAULT_WORKLOADS) -> ExperimentResult:
    """Run each YCSB mix against each (kind, boundary) configuration."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    n_ops = scale.n_ops
    result.note(f"scale={scale.name}: {n_ops} YCSB ops per cell; scan "
                "lengths < 100 (workload E), latest distribution "
                "(workload D)")
    all_keys = ds.generate(dataset, scale.n_keys + scale.n_keys // 10,
                           seed=scale.seed)
    loaded = all_keys[: scale.n_keys]
    reserve = all_keys[scale.n_keys:]

    latency: Dict[Tuple[str, IndexKind, int], float] = {}
    memory: Dict[Tuple[str, IndexKind, int], float] = {}
    for name in workloads:
        table = ResultTable(columns=["index", "boundary", "avg_op_us",
                                     "index_bytes"])
        for kind in kinds:
            for boundary in boundaries:
                bed = loaded_testbed(scale.config(kind, boundary), loaded,
                                     scale.seed)
                mix = workload(name, loaded, insert_reserve=reserve,
                               seed=scale.seed + 13)
                metrics = bed.run_ycsb(mix, n_ops)
                latency[(name, kind, boundary)] = metrics.avg_us
                memory[(name, kind, boundary)] = float(
                    bed.db.index_memory_bytes())
                table.add_row(kind.value, boundary, metrics.avg_us,
                              int(memory[(name, kind, boundary)]))
                bed.close()
        result.add_table(f"YCSB-{name}", table)

    _shape_checks(result, latency, memory, kinds, boundaries, workloads)
    return result


def _shape_checks(result, latency, memory, kinds, boundaries,
                  workloads) -> None:
    tight = min(boundaries)
    # Consistency with the point-lookup frontier: PGM should dominate FT
    # (paper: "PGM continues to offer the best tradeoff, while
    # FITing-tree lags behind").
    if IndexKind.PGM in kinds and IndexKind.FT in kinds:
        wins = 0
        for name in workloads:
            pgm_mem = memory[(name, IndexKind.PGM, tight)]
            ft_mem = memory[(name, IndexKind.FT, tight)]
            pgm_lat = latency[(name, IndexKind.PGM, tight)]
            ft_lat = latency[(name, IndexKind.FT, tight)]
            if pgm_mem <= ft_mem and pgm_lat <= ft_lat * 1.10:
                wins += 1
        result.check(
            "PGM dominates FITing-Tree (memory and latency) on most mixes",
            wins >= (2 * len(workloads)) // 3,
            f"PGM dominates on {wins}/{len(workloads)} workloads")
    # Learned indexes beat FP memory at equal boundary on every mix.
    if IndexKind.FP in kinds and IndexKind.PGM in kinds:
        ok = all(memory[(name, IndexKind.PGM, tight)]
                 < memory[(name, IndexKind.FP, tight)]
                 for name in workloads)
        result.check(
            "PGM uses less memory than fence pointers on every workload",
            ok)
    # Read-heavy C should be cheaper per op than scan-heavy E.
    if "C" in workloads and "E" in workloads:
        kind = IndexKind.PGM if IndexKind.PGM in kinds else kinds[0]
        result.check(
            "scan-heavy YCSB-E costs more per op than point-only YCSB-C",
            latency[("E", kind, tight)] > latency[("C", kind, tight)],
            f"E={latency[('E', kind, tight)]:.2f}us "
            f"C={latency[('C', kind, tight)]:.2f}us")
    # The boundary lever still works in mixed settings.
    if len(boundaries) >= 2 and "B" in workloads:
        loose = max(boundaries)
        kind = kinds[0]
        result.check(
            "tighter boundary lowers latency on read-heavy YCSB-B",
            latency[("B", kind, tight)] <= latency[("B", kind, loose)],
            f"b={tight}: {latency[('B', kind, tight)]:.2f}us vs "
            f"b={loose}: {latency[('B', kind, loose)]:.2f}us")
