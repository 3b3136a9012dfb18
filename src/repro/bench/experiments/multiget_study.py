"""MultiGet study — batched reads with segment-coalesced I/O.

Beyond the paper: its ``InternalGet`` is evaluated one key at a time,
but read-heavy YCSB mixes arrive in bursts, and the serving layer
already group-commits the write side.  This experiment measures the
read-side mirror: the same YCSB-C Zipfian key stream drained through
:meth:`~repro.lsm.db.LSMTree.multi_get` at growing batch sizes, with
segment coalescing on and off, under both index granularities.

What batching amortizes (and what it cannot):

* **Seeks** — overlapping/adjacent predicted segments of one table
  coalesce into a single pread charging one seek plus sequential
  blocks; under Zipfian skew hot keys repeat inside a batch, so whole
  lookups collapse onto already-fetched buffers.
* **Level walks** — each level is located once per batch (one
  file-range binary search) instead of once per key, and the memtable
  descent is charged per batch run.
* **Predictions are not amortized** — every key still pays its own
  model evaluation, which is why coalescing (the I/O effect) is swept
  separately from batch size (the control-flow effect).

Every cell returns exactly the per-key path's results (checked against
a ``get``-loop oracle); only the cost changes.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.storage.stats import MULTIGET_COALESCED, MULTIGET_SEEKS_SAVED, SEEKS
from repro.workloads import datasets as ds
from repro.workloads.ycsb import workload

EXPERIMENT_ID = "multiget"
TITLE = "MultiGet: batched point lookups with segment-coalesced I/O"


def run(scale="smoke", dataset: str = "random",
        kind: IndexKind = IndexKind.PGM,
        boundary: int = 32,
        batch_sizes: Sequence[int] = (1, 4, 16, 64)) -> ExperimentResult:
    """Sweep batch size x coalescing x granularity on YCSB-C Zipfian."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    # The YCSB-C request stream: 100% reads, Zipfian over loaded keys.
    mix = workload("C", keys, seed=scale.seed + 17)
    query_keys = [op.key for op in mix.operations(scale.n_ops)]
    result.note(f"scale={scale.name}: {scale.n_keys} keys, "
                f"{len(query_keys)} YCSB-C Zipfian lookups per cell, "
                f"index={kind}, boundary={boundary}")

    table = ResultTable(columns=["granularity", "batch", "coalesce",
                                 "seeks", "coalesced", "seeks_saved",
                                 "read_us_per_op"])
    per_key = {}       # granularity -> (seeks, read_us)
    batched_best = {}  # granularity -> (seeks, read_us) at max batch, on
    uncoalesced = {}   # granularity -> seeks at max batch, off
    coalesced_events = {}
    results_equal = True

    for granularity in (Granularity.FILE, Granularity.LEVEL):
        bed = loaded_testbed(
            scale.config(kind, boundary, granularity=granularity), keys,
            scale.seed)
        # The oracle get-loop *is* the per-key measurement: one pass
        # serves both the equivalence reference and the batch=1 row.
        before = bed.db.stats.snapshot()
        oracle = [bed.db.get(key) for key in query_keys]
        delta = before.delta(bed.db.stats)
        seeks = delta.counter(SEEKS)
        read_us = delta.read_time() / len(query_keys)
        table.add_row(str(granularity), 1, "on", int(seeks), 0, 0, read_us)
        per_key[granularity] = (seeks, read_us)
        for batch in batch_sizes:
            if batch == 1:
                continue
            for coalesce in (True, False):
                before = bed.db.stats.snapshot()
                got = []
                for start in range(0, len(query_keys), batch):
                    got.extend(bed.db.multi_get(
                        query_keys[start:start + batch],
                        coalesce=coalesce))
                results_equal = results_equal and got == oracle
                delta = before.delta(bed.db.stats)
                seeks = delta.counter(SEEKS)
                read_us = delta.read_time() / len(query_keys)
                table.add_row(str(granularity), batch,
                              "on" if coalesce else "off", int(seeks),
                              int(delta.counter(MULTIGET_COALESCED)),
                              int(delta.counter(MULTIGET_SEEKS_SAVED)),
                              read_us)
                if batch == max(batch_sizes) and coalesce:
                    batched_best[granularity] = (seeks, read_us)
                    coalesced_events[granularity] = delta.counter(
                        MULTIGET_COALESCED)
                elif batch == max(batch_sizes) and not coalesce:
                    uncoalesced[granularity] = seeks
        bed.close()
    result.add_table(
        "MultiGet sweep (YCSB-C Zipfian, per-key vs batched)", table)

    result.check(
        "batched MultiGet returns exactly the per-key path's results",
        results_equal)
    result.check(
        "batching charges strictly fewer seeks than the per-key path",
        all(batched_best[g][0] < per_key[g][0] for g in per_key),
        "; ".join(f"{g}: {per_key[g][0]:.0f} -> {batched_best[g][0]:.0f}"
                  for g in per_key))
    result.check(
        "batching lowers total simulated read time",
        all(batched_best[g][1] < per_key[g][1] for g in per_key),
        "; ".join(f"{g}: {per_key[g][1]:.2f} -> {batched_best[g][1]:.2f} "
                  "us/op" for g in per_key))
    result.check(
        "segments coalesce under the level-model configuration",
        coalesced_events.get(Granularity.LEVEL, 0) > 0,
        f"{coalesced_events.get(Granularity.LEVEL, 0):.0f} coalesced reads")
    result.check(
        "disabling coalescing forfeits the seek savings",
        all(uncoalesced[g] >= batched_best[g][0] for g in uncoalesced),
        "; ".join(f"{g}: off={uncoalesced[g]:.0f} on={batched_best[g][0]:.0f}"
                  for g in uncoalesced))
    return result
