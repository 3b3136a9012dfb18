"""Ablations: the paper's per-index parameter choices, verified.

The evaluation section fixes several secondary parameters after brief
studies ("Settings of Learned Indexes"):

* PGM's ``EpsilonRecursive`` "has little impact on PGM's performance in
  LSM-tree systems", so the default 4 is kept;
* RadixSpline's ``RadixBits = 1`` "offers the best tradeoff in LSM-tree
  systems, reducing memory usage while maintaining satisfactory
  performance";
* PLEX's self-tuning is its distinguishing feature — it buys a better
  hist-tree at training-time cost (Figure 9's 10-15%).

This experiment reruns those parameter sweeps on the testbed plus one
of our own (RMI's acceptance quantile, which trades memory against the
fraction of keys honouring the boundary target), and asserts the
paper's conclusions.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.indexes.plex import PLEXIndex
from repro.indexes.registry import IndexKind
from repro.indexes.rmi import RMIIndex
from repro.workloads import datasets as ds

EXPERIMENT_ID = "ablations"
TITLE = "Parameter ablations (Settings of Learned Indexes)"

_BOUNDARY = 32


def run(scale="smoke", dataset: str = "random",
        epsilon_recursive_values: Sequence[int] = (2, 4, 8, 16),
        radix_bits_values: Sequence[int] = (1, 4, 8, 12)) -> ExperimentResult:
    """Sweep the paper's secondary parameters on the live testbed."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}, dataset={dataset}, position boundary "
                f"{_BOUNDARY}")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)

    _pgm_epsilon_recursive(result, scale, keys, queries,
                           epsilon_recursive_values)
    _rs_radix_bits(result, scale, keys, queries, radix_bits_values)
    _plex_self_tuning(result, keys)
    _rmi_quantile(result, keys)
    return result


def _pgm_epsilon_recursive(result, scale, keys, queries, values) -> None:
    table = ResultTable(columns=["epsilon_recursive", "latency_us",
                                 "index_bytes"])
    stats = {}
    for eps_rec in values:
        options = scale.config(IndexKind.PGM, _BOUNDARY).with_changes(
            epsilon_recursive=eps_rec)
        bed = loaded_testbed(options, keys, scale.seed)
        metrics = bed.run_point_lookups(queries)
        memory = bed.db.index_memory_bytes()
        stats[eps_rec] = (metrics.avg_us, memory)
        table.add_row(eps_rec, metrics.avg_us, memory)
        bed.close()
    result.add_table("PGM: EpsilonRecursive sweep", table)
    latencies = [lat for lat, _ in stats.values()]
    spread = (max(latencies) - min(latencies)) / max(latencies)
    result.check(
        "PGM: EpsilonRecursive has little impact on lookup latency "
        "(paper keeps the default 4)", spread < 0.05,
        f"latency spread={spread:.2%}")


def _rs_radix_bits(result, scale, keys, queries, values) -> None:
    table = ResultTable(columns=["radix_bits", "latency_us", "index_bytes"])
    stats = {}
    for bits in values:
        options = scale.config(IndexKind.RS, _BOUNDARY).with_changes(
            radix_bits=bits)
        bed = loaded_testbed(options, keys, scale.seed)
        metrics = bed.run_point_lookups(queries)
        memory = bed.db.index_memory_bytes()
        stats[bits] = (metrics.avg_us, memory)
        table.add_row(bits, metrics.avg_us, memory)
        bed.close()
    result.add_table("RadixSpline: RadixBits sweep", table)
    smallest = min(values)
    largest = max(values)
    result.check(
        "RS: large radix tables cost memory without latency gains "
        "(paper tunes RadixBits=1 for LSM)",
        stats[largest][1] > 2 * stats[smallest][1]
        and stats[largest][0] > stats[smallest][0] * 0.95,
        f"bits={smallest}: {stats[smallest]}, bits={largest}: "
        f"{stats[largest]}")


def _plex_self_tuning(result, keys) -> None:
    """Self-tuned CHT vs each fixed fanout: tuning matches the best."""
    table = ResultTable(columns=["configuration", "cht_bits", "train_visits",
                                 "tree_height"])
    tuned = PLEXIndex(epsilon=_BOUNDARY // 2)
    tuned.build(keys)
    table.add_row("self-tuned", tuned.chosen_bits(), tuned.train_key_visits,
                  tuned.tree_height())
    fixed_heights = {}
    for bits in tuned.candidate_bits:
        fixed = PLEXIndex(epsilon=_BOUNDARY // 2, candidate_bits=(bits,))
        fixed.build(keys)
        fixed_heights[bits] = fixed.tree_height()
        table.add_row(f"fixed bits={bits}", bits, fixed.train_key_visits,
                      fixed.tree_height())
    result.add_table("PLEX: self-tuning vs fixed fanout", table)
    result.check(
        "PLEX: self-tuning costs extra training passes (Figure 9's "
        "overhead) ...",
        tuned.train_key_visits >= 3 * len(keys),
        f"visits={tuned.train_key_visits} over {len(keys)} keys")
    result.check(
        "... and selects a structure as shallow as the best fixed choice",
        tuned.tree_height() <= min(fixed_heights.values()) + 1,
        f"tuned height={tuned.tree_height()}, "
        f"fixed={fixed_heights}")


def _rmi_quantile(result, keys) -> None:
    """RMI acceptance quantile: looser targets need fewer leaves."""
    table = ResultTable(columns=["accept_quantile", "leaf_count",
                                 "index_bytes", "mean_error"])
    leaves = {}
    for quantile in (0.90, 0.99, 1.0):
        index = RMIIndex(boundary_target=_BOUNDARY,
                         accept_quantile=quantile)
        index.build(keys)
        leaves[quantile] = index.leaf_count()
        table.add_row(quantile, index.leaf_count(), index.size_bytes(),
                      index.mean_error())
    result.add_table("RMI: acceptance quantile sweep", table)
    result.check(
        "RMI: stricter quantiles never shrink the second layer",
        leaves[0.90] <= leaves[0.99] <= leaves[1.0],
        str(leaves))
