"""Learned indexes across LSM merge policies (Section 6.2 direction).

The paper's second future direction is to carry learned indexes into
the broader LSM design space (Dostoevsky/Wacky/Moose territory), where
the leveling-vs-tiering choice is the primary knob.  This study runs
the same fill + point-lookup workload under both policies:

* tiering must show its classic trade: fewer compaction bytes (each
  entry is rewritten ~once per level instead of ~T/2 times) against
  slower reads (several overlapping runs probed per level);
* the learned-index value proposition must survive the policy change —
  PGM should keep its memory advantage over fence pointers, since
  per-run indexes work identically on tiered runs.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, sample_queries
from repro.core.testbed import Testbed
from repro.indexes.registry import IndexKind
from repro.lsm.options import CompactionPolicy
from repro.storage.stats import COMPACT_BYTES_IN
from repro.workloads import datasets as ds

EXPERIMENT_ID = "tiering"
TITLE = "Leveling vs tiering with learned indexes (Section 6.2 study)"

_BOUNDARY = 32


def run(scale="smoke", dataset: str = "random",
        kinds=(IndexKind.FP, IndexKind.PGM)) -> ExperimentResult:
    """Fill under each policy, then measure reads, writes and memory."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: fill {scale.n_keys} keys through the "
                f"write path, then {scale.n_ops} point lookups")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    write_order = list(keys)
    random.Random(scale.seed + 2).shuffle(write_order)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 3)

    table = ResultTable(columns=[
        "policy", "index", "compact_MB_in", "runs_deepest", "lookup_us",
        "index_bytes"])
    cells: Dict[Tuple[CompactionPolicy, IndexKind], Dict[str, float]] = {}
    for policy in (CompactionPolicy.LEVELING, CompactionPolicy.TIERING):
        for kind in kinds:
            options = scale.config(kind, _BOUNDARY).with_changes(
                compaction_policy=policy)
            bed = Testbed(options, seed=scale.seed)
            bed.run_writes(write_order)
            compact_in = bed.db.stats.get(COMPACT_BYTES_IN)
            deepest = bed.db.version.deepest_nonempty_level()
            runs = bed.db.version.file_count(deepest)
            metrics = bed.run_point_lookups(queries)
            memory = bed.db.index_memory_bytes()
            cells[(policy, kind)] = {
                "compact_in": compact_in,
                "lookup_us": metrics.avg_us,
                "memory": float(memory),
            }
            table.add_row(policy.value, kind.value,
                          compact_in / (1024 * 1024), runs, metrics.avg_us,
                          memory)
            bed.close()
    result.add_table("fill + read under each merge policy", table)

    kind = kinds[-1]
    leveling = cells[(CompactionPolicy.LEVELING, kind)]
    tiering = cells[(CompactionPolicy.TIERING, kind)]
    result.check(
        "tiering moves fewer bytes through compaction (lower write amp)",
        tiering["compact_in"] < leveling["compact_in"],
        f"tiering={tiering['compact_in'] / 1e6:.1f}MB "
        f"leveling={leveling['compact_in'] / 1e6:.1f}MB")
    result.check(
        "tiering pays for it with slower point lookups (more runs probed)",
        tiering["lookup_us"] > leveling["lookup_us"],
        f"tiering={tiering['lookup_us']:.2f}us "
        f"leveling={leveling['lookup_us']:.2f}us")
    if IndexKind.FP in kinds and IndexKind.PGM in kinds:
        for policy in (CompactionPolicy.LEVELING, CompactionPolicy.TIERING):
            fp_mem = cells[(policy, IndexKind.FP)]["memory"]
            pgm_mem = cells[(policy, IndexKind.PGM)]["memory"]
            result.check(
                f"{policy.value}: PGM keeps its memory advantage over FP",
                pgm_mem < fp_mem,
                f"PGM={pgm_mem:.0f}B FP={fp_mem:.0f}B")
    return result
