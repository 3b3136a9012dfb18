"""Figure 10 — read overhead, index size and data share per level.

The LSM-tree's levels grow geometrically, so under *uniform* lookups
the read time spent at each level tracks the level's share of the
data — and a uniform position boundary makes index memory track it
too.  Under a *read-latest* (skewed) workload, shallow levels absorb
far more read time than their size share, revealing the memory/read
imbalance the paper turns into its per-level boundary guideline
(Section 5.4): give hot shallow levels tighter boundaries than cold
deep ones.

Our bulk loader records which level every key landed in, so the
"read-latest" equivalent samples keys with shallow-level bias —
recent writes live in shallow levels by LSM construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed
from repro.indexes.registry import IndexKind
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig10"
TITLE = "Per-level read overhead vs index/level size (Figure 10)"

#: Probability mass per level depth for the read-latest equivalent:
#: shallow levels hold the most recent writes.
_LATEST_LEVEL_BIAS = (0.55, 0.30, 0.10, 0.05)


def _level_shares(values: Dict[int, float]) -> Dict[int, float]:
    total = sum(values.values())
    if total <= 0:
        return {level: 0.0 for level in values}
    return {level: value / total for level, value in values.items()}


def run(scale="smoke", dataset: str = "random",
        kind: IndexKind = IndexKind.PGM, boundary: int = 32,
        size_ratio: int = 4) -> ExperimentResult:
    """Measure per-level read time / index size under two query mixes."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}, index={kind.value}, boundary="
                f"{boundary}, size ratio {size_ratio} (lowered so the "
                "scaled dataset spans several levels, as in the paper)")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    bed = loaded_testbed(scale.config(kind, boundary, size_ratio=size_ratio),
                         keys, scale.seed)
    level_keys = bed.level_keys()
    levels = sorted(level_keys)
    rng = random.Random(scale.seed + 9)

    entry_share = _level_shares({level: len(level_keys[level])
                                 for level in levels})
    index_share = _level_shares({
        level: float(bed.db.level_index_memory_bytes(level))
        for level in levels})

    workload_shares: Dict[str, Dict[int, float]] = {}
    for workload_name in ("uniform", "read-latest"):
        bed.db.reset_read_stats()
        queries: List[int] = []
        if workload_name == "uniform":
            flat = keys
            queries = [flat[rng.randrange(len(flat))]
                       for _ in range(scale.n_ops)]
        else:
            weights = [_LATEST_LEVEL_BIAS[min(i, len(_LATEST_LEVEL_BIAS) - 1)]
                       for i in range(len(levels))]
            for _ in range(scale.n_ops):
                level = rng.choices(levels, weights=weights)[0]
                bucket = level_keys[level]
                queries.append(bucket[rng.randrange(len(bucket))])
        bed.run_point_lookups(queries)
        read_us = {level: bed.db.level_read_stats().get(level, (0.0, 0))[0]
                   for level in levels}
        workload_shares[workload_name] = _level_shares(read_us)

        table = ResultTable(columns=[
            "level", "read_share", "index_share", "entry_share"])
        for level in levels:
            table.add_row(f"L{level}",
                          workload_shares[workload_name].get(level, 0.0),
                          index_share.get(level, 0.0),
                          entry_share.get(level, 0.0))
        result.add_table(f"({'A' if workload_name == 'uniform' else 'B'}) "
                         f"{workload_name} query distribution", table)
    bed.close()

    _shape_checks(result, levels, entry_share, index_share, workload_shares)
    return result


def _shape_checks(result, levels: Sequence[int], entry_share, index_share,
                  workload_shares) -> None:
    deepest = max(levels)
    uniform = workload_shares["uniform"]
    latest = workload_shares["read-latest"]

    result.check(
        "several levels populated (multi-level steady state)",
        len(levels) >= 3, f"levels={['L%d' % level for level in levels]}")
    result.check(
        "uniform: read share tracks level size (deepest level dominates)",
        uniform.get(deepest, 0.0) > 0.5
        and all(uniform.get(deepest, 0.0) >= uniform.get(level, 0.0)
                for level in levels),
        str({f"L{level}": round(uniform.get(level, 0.0), 2)
             for level in levels}))
    result.check(
        "index memory share tracks level size under a uniform boundary",
        abs(index_share.get(deepest, 0.0) - entry_share.get(deepest, 0.0))
        < 0.25,
        f"deepest: index={index_share.get(deepest, 0.0):.2f} "
        f"entries={entry_share.get(deepest, 0.0):.2f}")
    shallow = min(levels)
    result.check(
        "read-latest: shallow levels absorb disproportionate read time "
        "(memory/read imbalance)",
        latest.get(shallow, 0.0)
        > 2.0 * max(0.005, entry_share.get(shallow, 0.0)),
        f"L{shallow}: read={latest.get(shallow, 0.0):.2f} "
        f"entries={entry_share.get(shallow, 0.0):.2f}")
