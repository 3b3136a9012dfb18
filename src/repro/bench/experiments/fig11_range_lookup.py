"""Figure 11 — range lookups across range lengths and boundaries.

Range lookups have two phases: seeking the start key (where learned
indexes help, exactly like a point lookup) and sequentially fetching
the range (where they cannot help).  The paper shows the consequence:
for short ranges the boundary matters and learned indexes keep their
memory-latency edge; as ranges grow, scan cost dominates, latencies
converge across index types and boundaries, and the advantage fades.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, with_paper_entries
from repro.indexes.registry import ALL_KINDS, IndexKind
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig11"
TITLE = "Range lookup latency vs boundary and range length (Figure 11)"


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = ALL_KINDS,
        boundaries: Sequence[int] = (128, 32, 8),
        range_lengths: Sequence[int] = (2, 128, 512)) -> ExperimentResult:
    """Sweep (kind x boundary x range length) over scan workloads."""
    scale = get_scale(scale)
    n_scans = max(50, scale.n_ops // 10)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {n_scans} scans per cell; entries "
                "fixed at the paper's ~1 KiB (scan cost is byte-driven)")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    rng = random.Random(scale.seed + 3)
    starts = [keys[rng.randrange(len(keys) - 1)] for _ in range(n_scans)]

    latency: Dict[Tuple[int, IndexKind, int], float] = {}
    memory: Dict[Tuple[IndexKind, int], float] = {}
    for kind in kinds:
        for boundary in boundaries:
            bed = loaded_testbed(
                with_paper_entries(scale, scale.config(kind, boundary)),
                keys, scale.seed)
            memory[(kind, boundary)] = float(bed.db.index_memory_bytes())
            for length in range_lengths:
                metrics = bed.run_range_lookups(starts, length)
                latency[(length, kind, boundary)] = metrics.avg_us
            bed.close()

    for length in range_lengths:
        table = ResultTable(columns=["index", "boundary", "latency_us",
                                     "index_bytes"])
        for kind in kinds:
            for boundary in boundaries:
                table.add_row(kind.value, boundary,
                              latency[(length, kind, boundary)],
                              int(memory[(kind, boundary)]))
        result.add_table(f"range length = {length}", table)

    _shape_checks(result, latency, kinds, boundaries, range_lengths)
    return result


def _shape_checks(result, latency, kinds, boundaries, range_lengths) -> None:
    b_hi, b_lo = max(boundaries), min(boundaries)
    short, long = min(range_lengths), max(range_lengths)
    # The paper's observation is about learned indexes; probe PGM.
    kind = IndexKind.PGM if IndexKind.PGM in kinds else kinds[0]

    short_gain = (latency[(short, kind, b_hi)]
                  / max(1e-9, latency[(short, kind, b_lo)]))
    long_gain = (latency[(long, kind, b_hi)]
                 / max(1e-9, latency[(long, kind, b_lo)]))
    result.check(
        f"short ranges (len {short}) benefit strongly from tighter "
        "boundaries", short_gain > 1.5,
        f"lat({b_hi})/lat({b_lo}) = {short_gain:.2f}")
    result.check(
        f"long ranges (len {long}) barely benefit (scan dominates)",
        long_gain < 1.4 and (short_gain - 1.0) > 2 * (long_gain - 1.0),
        f"lat({b_hi})/lat({b_lo}) = {long_gain:.2f} "
        f"(short gain {short_gain:.2f})")

    # Latencies converge across index types as the range grows.
    def spread(length: int) -> float:
        values = [latency[(length, k, b_lo)] for k in kinds]
        return (max(values) - min(values)) / max(values)

    result.check(
        "index types converge on long ranges",
        spread(long) <= spread(short) + 0.05,
        f"spread short={spread(short):.2%} long={spread(long):.2%}")
