"""Table 1 — point-lookup stage times for PLR across SSTable sizes.

The paper's Table 1 details one PLR configuration (position boundary
10) at SSTable sizes 4, 32 and 128 MiB:

* disk I/O ~2.1 us/op dominates and is independent of table size;
* prediction and in-segment binary search sit near 0.15 us each;
* table lookup (finding the SSTable, bloom probes) *shrinks* as tables
  grow — fewer files to search.

This experiment reproduces the same four rows at scaled SSTable sizes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.indexes.registry import IndexKind
from repro.storage.stats import Stage
from repro.workloads import datasets as ds

EXPERIMENT_ID = "table1"
TITLE = "Point-lookup stage times, PLR (Table 1)"

_STAGES = (
    ("Table Lookup", Stage.TABLE_LOOKUP),
    ("Prediction", Stage.PREDICTION),
    ("Disk I/O", Stage.IO),
    ("Binary Search", Stage.SEARCH),
)


def run(scale="smoke", dataset: str = "random",
        boundary: int = 10,
        paper_mib_sizes: Sequence[int] = (4, 32, 128)) -> ExperimentResult:
    """Measure the four stages at several SSTable sizes."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}, PLR at boundary {boundary}; SSTable "
                "sizes are paper-MiB equivalents")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)

    per_sst: Dict[int, Dict[Stage, float]] = {}
    for mib in paper_mib_sizes:
        bed = loaded_testbed(
            scale.config(IndexKind.PLR, boundary,
                         sstable_bytes=scale.paper_sstable_bytes(mib)),
            keys, scale.seed)
        metrics = bed.run_point_lookups(queries)
        per_sst[mib] = {stage: metrics.stage_avg_us(stage)
                        for _, stage in _STAGES}
        bed.close()

    table = ResultTable(
        columns=["process"] + [f"SST={mib}MiB" for mib in paper_mib_sizes],
        float_digits=3)
    for label, stage in _STAGES:
        table.add_row(label, *[per_sst[mib][stage]
                               for mib in paper_mib_sizes])
    result.add_table("us per op (paper Table 1 reports 2.1/0.15/0.16 us "
                     "for IO/prediction/search)", table)

    smallest, largest = paper_mib_sizes[0], paper_mib_sizes[-1]
    io_vals = [per_sst[mib][Stage.IO] for mib in paper_mib_sizes]
    result.check(
        "disk I/O flat across SSTable sizes",
        (max(io_vals) - min(io_vals)) / max(io_vals) < 0.15,
        f"io={['%.2f' % v for v in io_vals]}")
    result.check(
        "disk I/O exceeds 4x prediction at every SSTable size "
        "(paper: ~10x)",
        all(per_sst[mib][Stage.IO] > 4 * per_sst[mib][Stage.PREDICTION]
            for mib in paper_mib_sizes))
    result.check(
        "table lookup shrinks as SSTables grow (fewer files)",
        per_sst[largest][Stage.TABLE_LOOKUP]
        <= per_sst[smallest][Stage.TABLE_LOOKUP] + 1e-9,
        f"{per_sst[smallest][Stage.TABLE_LOOKUP]:.3f} -> "
        f"{per_sst[largest][Stage.TABLE_LOOKUP]:.3f} us")
    result.check(
        "binary search stable across SSTable sizes (bounded by boundary)",
        (max(per_sst[mib][Stage.SEARCH] for mib in paper_mib_sizes)
         - min(per_sst[mib][Stage.SEARCH] for mib in paper_mib_sizes)) < 0.1)
    return result
