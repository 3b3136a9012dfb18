"""Block-format study — block size x compression x index granularity.

Beyond the paper: its testbed stores every SSTable as one flat entry
array, so "fetch the predicted segment" costs exactly the predicted
bytes.  Real engines (LevelDB, RocksDB) store block-compressed,
checksummed data blocks, which changes the read path in three ways
this experiment quantifies:

* **Block rounding** — entry-granular predictions widen to whole-block
  fetches, so small position boundaries stop paying off below the
  block size (the effective boundary is ``ceil(width / block)`` blocks).
* **Compression** — zlib-compressed blocks move fewer device bytes per
  fetch (the fixed-slot entry encoding zero-pads values, so blocks
  compress well), at a simulated CPU decompression charge per block.
* **Verification** — every block is CRC-checked on first use; the
  study asserts the clean-path invariants (zero checksum failures,
  every fetched block verified) that the corruption suite probes from
  the other side.

Every cell drains the same Zipfian read stream and a fixed scan set,
and must return byte-identical results — only the cost moves.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.storage.stats import (
    BLOCKS_VERIFIED,
    BYTES_READ,
    CHECKSUM_FAILURES,
    COMPRESS_BYTES_RAW,
    COMPRESS_BYTES_STORED,
    Stats,
)
from repro.workloads import datasets as ds
from repro.workloads.ycsb import workload

EXPERIMENT_ID = "blocks"
TITLE = "Block format: block size x compression x checksum overhead"

#: Data-cache capacity for the cache arm (holds the Zipfian hot set).
_CACHE_ARM_BYTES = 256 * 1024


def _measure(options, keys, seed, query_keys, scan_starts, scan_len):
    """One cell: load, drain the read stream, return results + metrics."""
    bed = loaded_testbed(options, keys, seed)
    before = bed.db.stats.snapshot()
    gets = [bed.db.get(key) for key in query_keys]
    scans = [bed.db.scan(start, scan_len) for start in scan_starts]
    delta = before.delta(bed.db.stats)
    totals: Stats = bed.db.stats
    metrics = {
        "read_us_per_op": delta.read_time() / len(query_keys),
        "bytes_read": delta.counter(BYTES_READ),
        "ratio": totals.compression_ratio(),
        "raw": totals.get(COMPRESS_BYTES_RAW),
        "stored": totals.get(COMPRESS_BYTES_STORED),
        "failures": totals.get(CHECKSUM_FAILURES),
        "verified": totals.get(BLOCKS_VERIFIED),
        "data_cache_hit_rate": totals.data_cache_hit_rate(),
    }
    bed.close()
    return (gets, scans), metrics


def run(scale="smoke", dataset: str = "random",
        kind: IndexKind = IndexKind.PGM,
        boundary: int = 32,
        block_sizes: Sequence[int] = (1024, 4096, 16384),
        codecs: Sequence[str] = ("none", "zlib-1", "zlib-6")) -> ExperimentResult:
    """Sweep block size x codec (+ granularity and data-cache arms)."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    mix = workload("C", keys, seed=scale.seed + 23)
    query_keys = [op.key for op in mix.operations(scale.n_ops)]
    scan_starts = keys[:: max(1, len(keys) // 8)][:8]
    scan_len = 64
    result.note(f"scale={scale.name}: {scale.n_keys} keys, "
                f"{len(query_keys)} Zipfian lookups + {len(scan_starts)} "
                f"scans of {scan_len} per cell, index={kind}, "
                f"boundary={boundary}")

    table = ResultTable(columns=["granularity", "block_bytes", "codec",
                                 "data_cache", "ratio", "bytes_read",
                                 "verified", "failures", "read_us_per_op"])
    oracle = None
    results_equal = True
    failures_total = 0.0
    verified_min = float("inf")
    ratios = {}       # (granularity, block, codec) -> ratio
    bytes_read = {}   # (granularity, block, codec) -> device bytes read
    read_us = {}      # (granularity, block, codec) -> read us/op

    def cell(granularity, block, codec, **extra):
        nonlocal oracle, results_equal, failures_total, verified_min
        options = scale.config(kind, boundary,
                               granularity=granularity).with_changes(
            data_block_bytes=block, block_codec=codec, **extra)
        got, metrics = _measure(options, keys, scale.seed, query_keys,
                                scan_starts, scan_len)
        if oracle is None:
            oracle = got
        results_equal = results_equal and got == oracle
        failures_total += metrics["failures"]
        verified_min = min(verified_min, metrics["verified"])
        table.add_row(str(granularity), block, codec,
                      "on" if extra.get("data_cache_bytes") else "off",
                      round(metrics["ratio"], 3),
                      int(metrics["bytes_read"]),
                      int(metrics["verified"]), int(metrics["failures"]),
                      metrics["read_us_per_op"])
        return metrics

    # Codec sweep under both granularities at the default block size.
    for granularity in (Granularity.FILE, Granularity.LEVEL):
        for codec in codecs:
            key = (granularity, 4096, codec)
            metrics = cell(granularity, 4096, codec)
            ratios[key] = metrics["ratio"]
            bytes_read[key] = metrics["bytes_read"]
            read_us[key] = metrics["read_us_per_op"]

    # Block-size sweep (FILE granularity, cheapest codec).
    for block in block_sizes:
        if block == 4096:
            continue
        key = (Granularity.FILE, block, "zlib-1")
        metrics = cell(Granularity.FILE, block, "zlib-1")
        ratios[key] = metrics["ratio"]
        bytes_read[key] = metrics["bytes_read"]
        read_us[key] = metrics["read_us_per_op"]

    # Data-cache arm: same cell as (FILE, 4096, zlib-1) plus a
    # decompressed-block cache sized for the Zipfian hot set.
    cached = cell(Granularity.FILE, 4096, "zlib-1",
                  data_cache_bytes=_CACHE_ARM_BYTES)
    result.add_table("Block-format sweep (Zipfian reads + scans)", table)

    zlib_cells = [(g, b, c) for (g, b, c) in ratios if c != "none"]
    none_cells = [(g, b, c) for (g, b, c) in ratios if c == "none"]
    result.check(
        "every cell returns byte-identical get and scan results",
        results_equal)
    result.check(
        "zero checksum failures on clean runs, every block verified",
        failures_total == 0 and verified_min > 0,
        f"failures={failures_total:.0f}, min verified/cell="
        f"{verified_min:.0f}")
    result.check(
        "zero-padded entries compress (ratio > 1 on every zlib arm)",
        all(ratios[c] > 1.0 for c in zlib_cells),
        "; ".join(f"{c[2]}@{c[1]}B/{c[0]}: {ratios[c]:.2f}x"
                  for c in sorted(zlib_cells, key=str)))
    result.check(
        "uncompressed arms store blocks verbatim (ratio == 1)",
        all(abs(ratios[c] - 1.0) < 1e-9 for c in none_cells))
    result.check(
        "compression moves fewer device bytes at equal correctness",
        all(bytes_read[(g, 4096, c)] < bytes_read[(g, 4096, "none")]
            for g in (Granularity.FILE, Granularity.LEVEL)
            for c in codecs if c != "none"),
        "; ".join(
            f"{g}: none={bytes_read[(g, 4096, 'none')]:.0f} -> "
            f"zlib-1={bytes_read[(g, 4096, 'zlib-1')]:.0f}"
            for g in (Granularity.FILE, Granularity.LEVEL)))
    uncached_us = read_us[(Granularity.FILE, 4096, "zlib-1")]
    result.check(
        "the data-block cache absorbs the Zipfian hot set",
        cached["data_cache_hit_rate"] > 0
        and cached["read_us_per_op"] < uncached_us,
        f"hit rate {cached['data_cache_hit_rate']:.1%}, "
        f"{uncached_us:.2f} -> {cached['read_us_per_op']:.2f} us/op")
    return result
