"""Figure 7 — query time breakdown.

Panel (A) splits a point lookup into I/O vs prediction vs binary
search per index type; panel (B) tracks prediction time as the
boundary shrinks.  The paper's findings: segment-fetch I/O is roughly
an order of magnitude larger than the combined CPU stages, and
prediction grows slightly at tighter boundaries (more segments to
search) without ever threatening the I/O dominance.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.storage.stats import Stage
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig7"
TITLE = "Query time breakdown (Figure 7)"

_BREAKDOWN_BOUNDARY = 16


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = ALL_KINDS,
        boundaries: Sequence[int] = (128, 32, 8)) -> ExperimentResult:
    """Measure per-stage lookup time per kind and per boundary."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}, dataset={dataset}; breakdown at "
                f"boundary {_BREAKDOWN_BOUNDARY}, prediction sweep over "
                f"{tuple(boundaries)}")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)

    # Panel A: stage breakdown per index type at one boundary.
    panel_a = ResultTable(columns=[
        "index", "io_us", "prediction_us", "search_us", "table_lookup_us",
        "io/cpu"])
    io_ratio: Dict[IndexKind, float] = {}
    pred_by_boundary: Dict[Tuple[IndexKind, int], float] = {}
    sweep_kinds = list(kinds)
    for kind in sweep_kinds:
        for boundary in sorted(set(list(boundaries)
                                   + [_BREAKDOWN_BOUNDARY]), reverse=True):
            bed = loaded_testbed(scale.config(kind, boundary), keys,
                                 scale.seed)
            metrics = bed.run_point_lookups(queries)
            bed.close()
            io = metrics.stage_avg_us(Stage.IO)
            pred = metrics.stage_avg_us(Stage.PREDICTION)
            search = metrics.stage_avg_us(Stage.SEARCH)
            tlk = metrics.stage_avg_us(Stage.TABLE_LOOKUP)
            pred_by_boundary[(kind, boundary)] = pred
            if boundary == _BREAKDOWN_BOUNDARY:
                cpu = max(1e-9, pred + search)
                io_ratio[kind] = io / cpu
                panel_a.add_row(kind.value, io, pred, search, tlk, io / cpu)
    result.add_table(
        f"(A) stage breakdown at boundary {_BREAKDOWN_BOUNDARY}", panel_a)

    # Panel B: prediction time vs boundary.
    panel_b = ResultTable(columns=["boundary"]
                          + [kind.value for kind in sweep_kinds])
    for boundary in sorted(set(boundaries), reverse=True):
        row = [boundary]
        for kind in sweep_kinds:
            row.append(pred_by_boundary.get((kind, boundary), 0.0))
        panel_b.add_row(*row)
    result.add_table("(B) prediction time (us) vs boundary", panel_b)

    # Checks.
    result.check(
        "I/O exceeds 3x prediction + binary search for every index "
        "(paper: ~10x)",
        all(ratio > 3.0 for ratio in io_ratio.values()),
        str({kind.value: round(ratio, 1) for kind, ratio in io_ratio.items()}))
    growers = [kind for kind in sweep_kinds
               if kind in (IndexKind.PLR, IndexKind.FT, IndexKind.RS)]
    if growers and len(boundaries) >= 2:
        b_hi, b_lo = max(boundaries), min(boundaries)
        grew = all(pred_by_boundary[(kind, b_lo)]
                   >= pred_by_boundary[(kind, b_hi)] * 0.95
                   for kind in growers)
        result.check(
            "prediction time does not shrink as boundaries tighten "
            "(segment counts grow)", grew,
            str({kind.value: (round(pred_by_boundary[(kind, b_hi)], 3),
                              round(pred_by_boundary[(kind, b_lo)], 3))
                 for kind in growers}))
    if IndexKind.RMI in io_ratio:
        result.check(
            "RMI prediction is boundary-insensitive (two model evals)",
            abs(pred_by_boundary[(IndexKind.RMI, min(boundaries))]
                - pred_by_boundary[(IndexKind.RMI, max(boundaries))]) < 0.05)
    return result
