"""Section 3.3 — why data-unclustered indexes don't fit LSM-trees.

The paper argues (without a dedicated figure) that ALEX and LIPP,
despite excellent in-memory behaviour, are incompatible with the
LSM-tree's contiguous SSTable layout: their data is scattered across
model-addressed nodes, so integrating them would replace sequential
segment reads with pointer chasing — catastrophic for range scans and
for any disk-resident deployment.

This study quantifies that argument on equal terms: build clustered
(PGM) and unclustered (ALEX, LIPP) indexes over the same key-value
set, then compare pointer hops per lookup, scatter jumps per range
scan (a clustered segment scan performs zero — the data is one
contiguous array), and memory per key (gapped/empty slots are not
free).
"""

from __future__ import annotations

import random

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale
from repro.indexes.alex import ALEXIndex
from repro.indexes.dili import DILIIndex
from repro.indexes.lipp import LIPPIndex
from repro.indexes.nfl import NFLIndex
from repro.indexes.registry import IndexFactory, IndexKind
from repro.workloads import datasets as ds

EXPERIMENT_ID = "unclustered"
TITLE = "Clustered vs unclustered indexes (Section 3.3 study)"


def run(scale="smoke", dataset: str = "random",
        boundary: int = 32, scan_length: int = 256,
        n_scans: int = 64) -> ExperimentResult:
    """Compare PGM vs ALEX vs LIPP over identical key-value data."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {scale.n_keys} pairs, "
                f"{scale.n_ops} lookups, {n_scans} scans of {scan_length}")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    pairs = [(key, (b"v%x" % key)[:16]) for key in keys]
    rng = random.Random(scale.seed + 21)
    queries = [keys[rng.randrange(len(keys))] for _ in range(scale.n_ops)]
    scan_starts = [keys[rng.randrange(len(keys) - 1)]
                   for _ in range(n_scans)]

    table = ResultTable(columns=[
        "index", "layout", "memory_B/key", "hops/lookup",
        "scatter_jumps/scan", "range_correct"])

    # Clustered reference: PGM over the sorted key array.  Lookups do
    # zero pointer hops (flat arrays); a range scan reads one
    # contiguous region: zero scatter jumps.
    pgm = IndexFactory(IndexKind.PGM, boundary).build(keys)
    clustered_mem = pgm.size_bytes() / len(keys)
    table.add_row("PGM", "clustered", clustered_mem, 0.0, 0.0, True)

    rows = {}
    for name, index in (("ALEX", ALEXIndex()), ("LIPP", LIPPIndex()),
                        ("DILI", DILIIndex()), ("NFL", NFLIndex())):
        index.bulk_load(pairs)
        index.counters.reset()
        for key in queries:
            index.get(key)
        hops = index.counters.hops_per_op()
        index.counters.reset()
        correct = True
        for start in scan_starts:
            got = index.range_scan(start, scan_length)
            expected_keys = [k for k in keys if k >= start][:scan_length]
            if [k for k, _ in got] != expected_keys:
                correct = False
        scatter = index.counters.scatter_jumps / max(1, n_scans)
        mem = index.memory_bytes() / len(keys)
        rows[name] = {"hops": hops, "scatter": scatter, "mem": mem,
                      "correct": correct}
        table.add_row(name, "unclustered", mem, hops, scatter, correct)

    result.add_table("traversal and memory comparison", table)

    result.check(
        "unclustered indexes answer correctly (sanity)",
        all(row["correct"] for row in rows.values()))
    result.check(
        "unclustered lookups chase pointers (clustered: none)",
        all(row["hops"] >= 1.0 for row in rows.values()),
        str({name: round(row["hops"], 1) for name, row in rows.items()}))
    result.check(
        "range scans over unclustered layouts jump between scattered "
        "nodes (clustered: contiguous)",
        all(row["scatter"] >= 1.0 for row in rows.values()),
        str({name: round(row["scatter"], 1) for name, row in rows.items()}))
    result.check(
        "unclustered structures pay slot/pointer memory far above a "
        "clustered index",
        all(row["mem"] > 4 * clustered_mem for row in rows.values()),
        f"clustered={clustered_mem:.2f} B/key, "
        + str({name: round(row['mem'], 1) for name, row in rows.items()}))
    return result
