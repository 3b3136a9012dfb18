"""Figure 9 — compaction overhead of learned indexes.

A write-only workload fills the tree from empty, so every flush and
compaction trains indexes.  The paper reports (A) total compaction
time as the index budget varies — nearly flat, because reading,
merging and writing key-value data dominates — and (B) a breakdown
showing index training ("Learn") plus model serialisation ("Write
Model") at under 5% of compaction time for every index except PLEX,
whose self-tuning costs 10-15%.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, with_paper_entries
from repro.core.testbed import Testbed
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.storage.stats import Stage
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig9"
TITLE = "Compaction time and breakdown (Figure 9)"

_BREAKDOWN_BOUNDARY = 32


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = ALL_KINDS,
        boundaries: Sequence[int] = (256, 64, 32)) -> ExperimentResult:
    """Fill an empty tree per (kind, boundary); measure compaction stages."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: write-only fill of {scale.n_keys} "
                "keys from empty (every flush/compaction trains indexes); "
                "entries fixed at the paper's ~1 KiB (training shares "
                "depend on the KV-move cost per entry)")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    rng = random.Random(scale.seed + 5)
    write_order = list(keys)
    rng.shuffle(write_order)

    totals: Dict[Tuple[IndexKind, int], float] = {}
    breakdown: Dict[IndexKind, Dict[str, float]] = {}
    table_a = ResultTable(columns=["index"] + [f"b={b}" for b in boundaries])
    for kind in kinds:
        row = [kind.value]
        for boundary in boundaries:
            bed = Testbed(
                with_paper_entries(scale, scale.config(kind, boundary)),
                seed=scale.seed)
            metrics = bed.run_writes(write_order)
            stage = metrics.stage_us
            kv_io = (stage.get(Stage.COMPACT_READ.value, 0.0)
                     + stage.get(Stage.COMPACT_MERGE.value, 0.0)
                     + stage.get(Stage.COMPACT_WRITE.value, 0.0))
            learn = stage.get(Stage.COMPACT_TRAIN.value, 0.0)
            model = stage.get(Stage.COMPACT_WRITE_MODEL.value, 0.0)
            total = kv_io + learn + model
            totals[(kind, boundary)] = total
            row.append(total / 1000.0)  # report in ms
            if boundary == _BREAKDOWN_BOUNDARY or \
                    boundary == boundaries[-1]:
                breakdown[kind] = {"kv_io": kv_io, "learn": learn,
                                   "write_model": model, "total": total}
            bed.close()
        table_a.add_row(*row)
    result.add_table("(A) total compaction time (ms) vs boundary", table_a)

    table_b = ResultTable(columns=[
        "index", "kv_io_ms", "learn_ms", "write_model_ms", "learn_pct",
        "model_pct"])
    for kind in kinds:
        b = breakdown[kind]
        table_b.add_row(kind.value, b["kv_io"] / 1000.0, b["learn"] / 1000.0,
                        b["write_model"] / 1000.0,
                        100.0 * b["learn"] / b["total"],
                        100.0 * b["write_model"] / b["total"])
    result.add_table(
        f"(B) compaction breakdown at boundary "
        f"{_BREAKDOWN_BOUNDARY if _BREAKDOWN_BOUNDARY in boundaries else boundaries[-1]}",
        table_b)

    _shape_checks(result, totals, breakdown, kinds, boundaries)
    return result


def _shape_checks(result, totals, breakdown, kinds, boundaries) -> None:
    # Flat across boundaries: compaction is data-movement bound.
    for kind in kinds:
        values = [totals[(kind, boundary)] for boundary in boundaries]
        spread = (max(values) - min(values)) / max(values)
        if spread >= 0.10:
            result.check(
                f"{kind.value}: compaction time flat across index budgets",
                False, f"spread={spread:.2%}")
            break
    else:
        result.check("compaction time flat across index budgets for every "
                     "index (paper: almost unchanged)", True)

    # Training overhead: <~5% for single-pass indexes, 10-15% for PLEX.
    modest = True
    details = {}
    for kind in kinds:
        b = breakdown[kind]
        share = (b["learn"] + b["write_model"]) / b["total"]
        details[kind.value] = round(100 * share, 1)
        if kind is IndexKind.PLEX:
            continue
        if share > 0.08:
            modest = False
    result.check(
        "learn + write-model share < ~5-8% for all non-PLEX indexes",
        modest, f"shares%={details}")
    if IndexKind.PLEX in kinds:
        plex_share = ((breakdown[IndexKind.PLEX]["learn"]
                       + breakdown[IndexKind.PLEX]["write_model"])
                      / breakdown[IndexKind.PLEX]["total"])
        result.check(
            "PLEX training share is the largest (paper: 10-15%)",
            all(plex_share >= (breakdown[kind]["learn"]
                               + breakdown[kind]["write_model"])
                / breakdown[kind]["total"]
                for kind in kinds) and 0.05 <= plex_share <= 0.30,
            f"PLEX share={plex_share:.1%}")
    if IndexKind.FP in kinds:
        fp_total = breakdown[IndexKind.FP]["total"]
        worst = max(breakdown[kind]["total"] for kind in kinds)
        result.check(
            "learned-index compaction time within ~15% of fence pointers",
            worst <= fp_total * 1.18,
            f"FP={fp_total / 1e3:.1f}ms worst={worst / 1e3:.1f}ms")
