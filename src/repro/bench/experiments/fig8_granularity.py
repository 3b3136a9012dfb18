"""Figure 8 — impact of index granularity (SSTable size and LevelModel).

The paper varies SSTable size from 8 MiB to 128 MiB and adds Dai et
al.'s level-granularity model ("L"), then measures index memory (at
several boundaries) and lookup latency (at boundary 64).  Findings:

* lookup latency is essentially flat across granularities (a few
  microseconds of spread);
* memory shrinks substantially with coarser granularity — more than
  10x from 8 MiB files to the level model at large boundaries — because
  fewer tables mean fewer inner indexes;
* RMI is the outlier whose memory keeps falling even at tight
  boundaries, since its footprint is dominated by the second-layer
  model array rather than per-segment bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.core.config import PAPER_SSTABLE_MIB
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.workloads import datasets as ds

EXPERIMENT_ID = "fig8"
TITLE = "Impact of index granularity (Figure 8)"

#: The paper's Figure 8 excludes the FP baseline.
DEFAULT_KINDS = (IndexKind.FT, IndexKind.PLR, IndexKind.PLEX, IndexKind.RS,
                 IndexKind.RMI, IndexKind.PGM)

_LATENCY_BOUNDARY = 64


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = DEFAULT_KINDS,
        boundaries: Sequence[int] = (128, 64, 32),
        paper_mib_sizes: Sequence[int] = PAPER_SSTABLE_MIB) -> ExperimentResult:
    """Sweep granularity x boundary; measure memory, latency at one boundary."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}; SSTable sizes are the paper's MiB "
                f"values scaled by {scale.sstable_unit_bytes} B/MiB; "
                f"'L' = level-granularity model")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)

    grans: list = [("%dM" % mib, Granularity.FILE,
                    scale.paper_sstable_bytes(mib))
                   for mib in paper_mib_sizes]
    grans.append(("L", Granularity.LEVEL, scale.default_sstable_bytes))

    memory: Dict[Tuple[str, IndexKind, int], float] = {}
    latency: Dict[Tuple[str, IndexKind], float] = {}
    for label, granularity, sst_bytes in grans:
        for kind in kinds:
            for boundary in boundaries:
                bed = loaded_testbed(
                    scale.config(kind, boundary, granularity=granularity,
                                 sstable_bytes=sst_bytes),
                    keys, scale.seed)
                memory[(label, kind, boundary)] = float(
                    bed.db.index_memory_bytes())
                if boundary == _LATENCY_BOUNDARY or \
                        (boundary == boundaries[0]
                         and _LATENCY_BOUNDARY not in boundaries):
                    metrics = bed.run_point_lookups(queries)
                    latency[(label, kind)] = metrics.avg_us
                bed.close()

    for boundary in boundaries:
        table = ResultTable(columns=["sst size"]
                            + [kind.value for kind in kinds])
        for label, _, _ in grans:
            table.add_row(label, *[int(memory[(label, kind, boundary)])
                                   for kind in kinds])
        result.add_table(
            f"index memory (B) at position boundary {boundary}", table)

    lat_table = ResultTable(columns=["sst size"]
                            + [kind.value for kind in kinds])
    for label, _, _ in grans:
        lat_table.add_row(label, *[latency[(label, kind)] for kind in kinds])
    result.add_table(
        f"lookup latency (us) at position boundary "
        f"{_LATENCY_BOUNDARY if _LATENCY_BOUNDARY in boundaries else boundaries[0]}",
        lat_table)

    _shape_checks(result, memory, latency, grans, kinds, boundaries)
    return result


def _shape_checks(result, memory, latency, grans, kinds, boundaries) -> None:
    first_label = grans[0][0]
    level_label = grans[-1][0]
    coarse_label = grans[-2][0]
    wide = max(boundaries)

    shrink_ok = all(
        memory[(level_label, kind, wide)]
        <= memory[(first_label, kind, wide)]
        for kind in kinds)
    result.check(
        f"coarser granularity reduces memory at boundary {wide} "
        "for every index", shrink_ok,
        str({kind.value: (int(memory[(first_label, kind, wide)]),
                          int(memory[(level_label, kind, wide)]))
             for kind in kinds}))

    big_drop = [kind for kind in kinds
                if memory[(first_label, kind, wide)]
                >= 4 * max(1.0, memory[(level_label, kind, wide)])]
    need = max(1, len(kinds) // 2)
    result.check(
        f"level model cuts memory >=4x for at least {need} of "
        f"{len(kinds)} indexes (paper: >10x)", len(big_drop) >= need,
        f"kinds with >=4x drop: {[kind.value for kind in big_drop]}")

    lat_values = [latency[(label, kind)] for label, _, _ in grans
                  for kind in kinds]
    spread = (max(lat_values) - min(lat_values)) / max(lat_values)
    result.check(
        "lookup latency is largely unaffected by granularity",
        spread < 0.45, f"spread={spread:.2%}")

    if IndexKind.RMI in kinds:
        tight = min(boundaries)
        rmi_monotone = all(
            memory[(grans[i + 1][0], IndexKind.RMI, tight)]
            <= memory[(grans[i][0], IndexKind.RMI, tight)] * 1.10
            for i in range(len(grans) - 1))
        result.check(
            f"RMI memory keeps falling with granularity even at tight "
            f"boundary {tight} (first-stage dominated)", rmi_monotone,
            str([int(memory[(label, IndexKind.RMI, tight)])
                 for label, _, _ in grans]))
    # Level-model latency should stay comparable to the coarsest file
    # granularity (it saves memory, not time).
    lat_level = max(latency[(level_label, kind)] for kind in kinds)
    lat_coarse = max(latency[(coarse_label, kind)] for kind in kinds)
    result.check(
        "level-model latency comparable to coarse file granularity",
        lat_level <= lat_coarse * 1.35,
        f"level={lat_level:.2f}us coarse={lat_coarse:.2f}us")
