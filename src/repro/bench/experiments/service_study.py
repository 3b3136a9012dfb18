"""Serving-layer study — block cache, shard scaling, write batching.

Beyond the paper: its testbed measures one LSM-tree with no cache and
per-key writes, which isolates index quality but hides the serving
knobs that dominate end-to-end latency at scale (LearnedKV and the
pragmatic RocksDB literature both make this point).  This experiment
sweeps the three knobs the ``repro.service`` layer adds:

* **Block cache** — YCSB-C (read-only Zipfian) against increasing
  ``cache_bytes``: the hot block set concentrates under skew, so hit
  rate climbs, device blocks per op fall and mean latency follows.
* **Shard scaling** — the same dataset hash-partitioned over more
  :class:`~repro.service.sharded.ShardedDB` shards: each shard's tree
  is shallower, the per-lookup level walk shortens, and the router
  keeps the spread even.
* **Write batching** — the same stream of puts through growing
  :class:`~repro.lsm.write_batch.WriteBatch` group commits: WAL
  commits fall as ceil(N/K) and per-op write-path time follows.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable, format_bytes
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.write_batch import WriteBatch
from repro.service.sharded import ShardedDB
from repro.storage.stats import (
    CACHE_HITS,
    CACHE_MISSES,
    WAL_GROUP_COMMITS,
    WRITE_CALLS,
    Stage,
)
from repro.workloads import datasets as ds
from repro.workloads.ycsb import workload

EXPERIMENT_ID = "service"
TITLE = "Serving layer: block cache, shard scaling, write batching"


def run(scale="smoke", dataset: str = "random",
        kind: IndexKind = IndexKind.PGM,
        boundary: int = 32,
        cache_fractions: Sequence[float] = (0.0, 1 / 16, 1 / 4),
        shard_counts: Sequence[int] = (1, 2, 4),
        batch_sizes: Sequence[int] = (1, 8, 64)) -> ExperimentResult:
    """Sweep cache size, shard count and batch size at one scale."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    options = scale.config(kind, boundary)
    data_bytes = scale.n_keys * options.entry_bytes
    result.note(f"scale={scale.name}: {scale.n_keys} keys "
                f"({format_bytes(data_bytes)} of data), {scale.n_ops} ops "
                f"per cell, index={kind}, boundary={boundary}")

    _cache_sweep(result, scale, options, keys, data_bytes, cache_fractions)
    _shard_sweep(result, scale, options, keys, shard_counts)
    _batch_sweep(result, scale, options, keys, batch_sizes)
    return result


# -- block cache ---------------------------------------------------------

def _cache_sweep(result, scale, options, keys, data_bytes,
                 fractions) -> None:
    table = ResultTable(columns=["cache_bytes", "hit_rate", "blocks_per_op",
                                 "avg_op_us"])
    hit_rates, blocks_per_op, latencies = [], [], []
    for fraction in fractions:
        cache_bytes = int(data_bytes * fraction)
        bed = loaded_testbed(options.with_changes(cache_bytes=cache_bytes),
                             keys, scale.seed)
        mix = workload("C", keys, seed=scale.seed + 13)
        metrics = bed.run_ycsb(mix, scale.n_ops)
        hits = metrics.counter(CACHE_HITS)
        misses = metrics.counter(CACHE_MISSES)
        rate = hits / (hits + misses) if hits + misses else 0.0
        hit_rates.append(rate)
        blocks_per_op.append(metrics.blocks_read_per_op())
        latencies.append(metrics.avg_us)
        table.add_row(cache_bytes, rate, metrics.blocks_read_per_op(),
                      metrics.avg_us)
        bed.close()
    result.add_table("Block cache sweep (YCSB-C, read-only Zipfian)", table)

    result.check(
        "block cache shows a nonzero hit rate under Zipfian reads",
        any(rate > 0.0 for fraction, rate in zip(fractions, hit_rates)
            if fraction > 0),
        f"hit rates: {[round(rate, 3) for rate in hit_rates]}")
    result.check(
        "hit rate grows with cache capacity",
        all(later >= earlier - 1e-9
            for earlier, later in zip(hit_rates, hit_rates[1:])),
        f"hit rates: {[round(rate, 3) for rate in hit_rates]}")
    result.check(
        "cache cuts device blocks fetched per operation",
        blocks_per_op[-1] < blocks_per_op[0],
        f"{blocks_per_op[0]:.2f} -> {blocks_per_op[-1]:.2f} blocks/op")
    result.check(
        "cache cuts mean operation latency",
        latencies[-1] < latencies[0],
        f"{latencies[0]:.2f} -> {latencies[-1]:.2f} us/op")


# -- shard scaling -------------------------------------------------------

def _shard_sweep(result, scale, options, keys, shard_counts) -> None:
    def value_for(key: int) -> bytes:
        return (b"v%x" % key)[: options.value_capacity]

    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 5)
    start = keys[len(keys) // 3]
    expected_scan = [key for key in keys if key >= start][:100]

    table = ResultTable(columns=["shards", "max_level", "balance",
                                 "avg_get_us"])
    get_us, depths = [], []
    scans_ok = True
    for count in shard_counts:
        sdb = ShardedDB(num_shards=count, options=options)
        sdb.bulk_ingest(keys, value_for=value_for, seed=scale.seed)
        before = sdb.stats.snapshot()
        for key in queries:
            sdb.get(key)
        delta = before.delta(sdb.stats)
        avg_us = delta.read_time() / len(queries)
        depth = max(max((row["level"] for row in shard.describe_levels()),
                        default=0) for shard in sdb.shards)
        balance = sdb.shard_balance()
        scans_ok = scans_ok and ([key for key, _ in sdb.scan(start, 100)]
                                 == expected_scan)
        get_us.append(avg_us)
        depths.append(depth)
        table.add_row(count, depth, balance, avg_us)
        sdb.close()
    result.add_table("Shard scaling (constant total data)", table)

    result.check(
        "cross-shard scans return the globally ordered prefix",
        scans_ok)
    result.check(
        "sharding keeps trees at most as deep as the single tree",
        depths[-1] <= depths[0],
        f"max level: {depths[0]} -> {depths[-1]}")
    result.check(
        "per-lookup read time does not grow with shard count",
        get_us[-1] <= get_us[0] * 1.10,
        f"{get_us[0]:.2f} -> {get_us[-1]:.2f} us/get")
    balance = table.column("balance")[-1]
    result.check(
        "hash routing spreads keys evenly at max shard count",
        balance <= 1.35,
        f"max/mean entry ratio {balance:.3f}")


# -- write batching ------------------------------------------------------

def _batch_sweep(result, scale, options, keys, batch_sizes) -> None:
    n_writes = scale.n_ops
    write_keys = keys[:n_writes]
    table = ResultTable(columns=["batch_size", "wal_commits", "write_calls",
                                 "write_us_per_op"])
    commits, per_op_us = [], []
    commits_exact = True
    for size in batch_sizes:
        db = LSMTree(options.with_changes(enable_wal=True))
        before = db.stats.snapshot()
        batch = WriteBatch()
        for key in write_keys:
            batch.put(key, (b"w%x" % key)[: options.value_capacity])
            if len(batch) >= size:
                db.write(batch)
                batch.clear()
        if batch:
            db.write(batch)
            batch.clear()
        delta = before.delta(db.stats)
        wal_commits = delta.counter(WAL_GROUP_COMMITS)
        write_us = delta.stage_time(Stage.WRITE_PATH) / n_writes
        commits.append(wal_commits)
        per_op_us.append(write_us)
        commits_exact = (commits_exact
                         and wal_commits == math.ceil(n_writes / size))
        table.add_row(size, int(wal_commits),
                      int(delta.counter(WRITE_CALLS)), write_us)
        db.close()
    result.add_table("WriteBatch group commit (WAL on)", table)

    result.check(
        "a batch of K records issues exactly ceil(N/K) WAL group commits",
        commits_exact,
        f"commits: {[int(x) for x in commits]}")
    result.check(
        "group commit amortizes per-op write-path time",
        per_op_us[-1] < per_op_us[0],
        f"{per_op_us[0]:.3f} -> {per_op_us[-1]:.3f} us/op")
