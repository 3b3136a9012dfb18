"""Figure 6 — latency and memory versus position boundary.

The paper's headline experiment: for each index type, sweep the
position boundary from 256 down to 8, run a point-lookup-only workload
and record (a) mean lookup latency and (b) index memory.  Its
observations:

1. smaller boundaries reduce latency for *every* index, at growing
   memory cost (Observation 1);
2. at a fixed boundary all index types have near-identical latency —
   I/O dominates — while memory differs wildly: FP worst, FITing-Tree
   next (B+-tree overhead), PGM/RMI the best frontier;
3. latency gains flatten once segments approach the I/O block size
   (Observation 2, diminishing returns).

This experiment reproduces the full grid and asserts those shapes.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.core.config import PAPER_BOUNDARIES
from repro.core.cost_analysis import plateau_boundary
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig6"
TITLE = "Latency & memory vs position boundary (Figure 6)"


def run(scale="smoke", datasets: Sequence[str] = ("random",),
        kinds: Sequence[IndexKind] = ALL_KINDS,
        boundaries: Sequence[int] = PAPER_BOUNDARIES) -> ExperimentResult:
    """Sweep (dataset x kind x boundary); measure lookups and memory."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {scale.n_keys} keys, "
                f"{scale.n_ops} point lookups per cell")

    grid: Dict[Tuple[str, IndexKind, int], Dict[str, float]] = {}
    for dataset in datasets:
        keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
        queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)
        table = ResultTable(columns=[
            "index", "boundary", "latency_us", "index_bytes", "B/key",
            "blocks/op"])
        for kind in kinds:
            for boundary in boundaries:
                bed = loaded_testbed(scale.config(kind, boundary), keys,
                                     scale.seed)
                metrics = bed.run_point_lookups(queries)
                index_bytes = bed.db.index_memory_bytes()
                bed.close()
                cell = {
                    "latency": metrics.avg_us,
                    "index_bytes": float(index_bytes),
                    "blocks": metrics.blocks_read_per_op(),
                }
                grid[(dataset, kind, boundary)] = cell
                table.add_row(kind.value, boundary, cell["latency"],
                              int(cell["index_bytes"]),
                              cell["index_bytes"] / scale.n_keys,
                              cell["blocks"])
        result.add_table(f"dataset={dataset}", table)

    _shape_checks(result, grid, datasets, kinds, boundaries, scale)
    return result


def _shape_checks(result: ExperimentResult, grid, datasets, kinds,
                  boundaries, scale) -> None:
    b_max, b_min = max(boundaries), min(boundaries)
    mid = sorted(boundaries)[len(boundaries) // 2]
    plateau = plateau_boundary(scale.entry_bytes, 4096)

    for dataset in datasets:
        # Observation 1a: smaller boundary -> lower latency, every index.
        monotone = all(
            grid[(dataset, kind, b_min)]["latency"]
            < grid[(dataset, kind, b_max)]["latency"]
            for kind in kinds)
        result.check(f"{dataset}: latency falls as boundary shrinks "
                     f"({b_max} -> {b_min}) for every index", monotone)

        # Observation 1b: latency nearly identical across kinds at a
        # fixed boundary (I/O dominates).
        lat_mid = [grid[(dataset, kind, mid)]["latency"] for kind in kinds]
        spread = (max(lat_mid) - min(lat_mid)) / max(lat_mid)
        result.check(
            f"{dataset}: latency spread across index types at boundary "
            f"{mid} is small", spread < 0.35, f"spread={spread:.2%}")

        # Observation 1c: FP has the worst memory at tight boundaries.
        if IndexKind.FP in kinds:
            fp_mem = grid[(dataset, IndexKind.FP, b_min)]["index_bytes"]
            learned = [kind for kind in kinds if kind is not IndexKind.FP]
            worst_learned = max(
                grid[(dataset, kind, b_min)]["index_bytes"]
                for kind in learned) if learned else 0.0
            result.check(
                f"{dataset}: fence pointers use the most memory at "
                f"boundary {b_min}", fp_mem >= worst_learned,
                f"FP={fp_mem:.0f}B worst-learned={worst_learned:.0f}B")

        # PGM's optimal segmentation beats greedy PLR on memory where
        # segmentation is actually stressed (the tightest boundary;
        # at loose boundaries both may cover a table with one segment).
        if IndexKind.PGM in kinds and IndexKind.PLR in kinds:
            pgm = grid[(dataset, IndexKind.PGM, b_min)]["index_bytes"]
            plr = grid[(dataset, IndexKind.PLR, b_min)]["index_bytes"]
            result.check(
                f"{dataset}: PGM memory <= PLR memory at boundary {b_min}",
                pgm <= plr * 1.05, f"PGM={pgm:.0f}B PLR={plr:.0f}B")

        # FITing-Tree pays B+-tree overhead over PLR's flat array.
        if IndexKind.FT in kinds and IndexKind.PLR in kinds:
            ft = grid[(dataset, IndexKind.FT, mid)]["index_bytes"]
            plr = grid[(dataset, IndexKind.PLR, mid)]["index_bytes"]
            result.check(
                f"{dataset}: FITing-Tree memory > PLR memory at boundary "
                f"{mid}", ft > plr, f"FT={ft:.0f}B PLR={plr:.0f}B")

        # Observation 2: diminishing returns near the plateau.
        ordered = sorted(boundaries, reverse=True)
        if len(ordered) >= 3:
            kind = kinds[0]
            top_gain = (grid[(dataset, kind, ordered[0])]["latency"]
                        - grid[(dataset, kind, ordered[1])]["latency"])
            bottom_gain = (grid[(dataset, kind, ordered[-2])]["latency"]
                           - grid[(dataset, kind, ordered[-1])]["latency"])
            result.check(
                f"{dataset}: latency gains diminish toward small "
                f"boundaries (plateau ~{plateau})",
                bottom_gain < top_gain,
                f"first-halving gain={top_gain:.2f}us, "
                f"last-halving gain={bottom_gain:.2f}us")
