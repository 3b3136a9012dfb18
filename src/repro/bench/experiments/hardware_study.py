"""How the paper's insights move with the hardware (profile study).

The paper's conclusions are calibrated to one machine.  This study
reruns the core point-lookup sweep under four hardware profiles
(docs/cost-model.md, `repro.storage.profiles`) and checks the
ratio-dependent versions of the claims:

* the boundary lever tracks *transfer dominance*, not raw device speed:
  tightening the boundary saves transferred blocks, so it pays exactly
  in proportion to the transfer share of a fetch.  On seek/request-
  dominated storage (cloud object: one 15 ms round trip per fetch) the
  boundary stops mattering entirely — the right move there is fewer
  requests (level models, bigger tables), not tighter models;
* on request-dominated storage index types also become fully
  interchangeable on latency while their memory differences remain;
* on near-memory devices the CPU stages surface: prediction cost is no
  longer negligible, which is the regime where RMI's two-eval lookup
  shows an edge.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale, loaded_testbed, sample_queries
from repro.indexes.registry import IndexKind
from repro.storage.profiles import PROFILES, io_cpu_ratio
from repro.workloads import datasets as ds

EXPERIMENT_ID = "hardware"
TITLE = "Hardware-profile sensitivity of the core results"

_KINDS = (IndexKind.FP, IndexKind.RMI, IndexKind.PGM)
_BOUNDARIES = (128, 8)


def run(scale="smoke", dataset: str = "random",
        profiles: Sequence[str] = ("fast-nvme", "paper-nvme", "sata-ssd",
                                   "cloud-object")) -> ExperimentResult:
    """Re-run a mini boundary sweep under each hardware profile."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}; profiles ordered by I/O:CPU ratio")
    keys = ds.generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=scale.seed + 1)

    table = ResultTable(columns=["profile", "io:cpu", "index", "boundary",
                                 "latency_us"])
    cells: Dict[Tuple[str, IndexKind, int], float] = {}
    ratios: Dict[str, float] = {}
    for profile_name in profiles:
        model = PROFILES[profile_name]
        ratios[profile_name] = io_cpu_ratio(model,
                                            entry_bytes=scale.entry_bytes)
        for kind in _KINDS:
            for boundary in _BOUNDARIES:
                options = scale.config(kind, boundary).with_changes(
                    cost_model=model)
                bed = loaded_testbed(options, keys, scale.seed)
                metrics = bed.run_point_lookups(queries)
                cells[(profile_name, kind, boundary)] = metrics.avg_us
                table.add_row(profile_name, ratios[profile_name],
                              kind.value, boundary, metrics.avg_us)
                bed.close()
    result.add_table("point lookups across hardware profiles", table)

    ordered = sorted(profiles, key=lambda name: ratios[name])
    kind = IndexKind.PGM

    def transfer_share(name: str) -> float:
        model = PROFILES[name]
        nblocks = model.blocks_spanned(
            0, max(_BOUNDARIES) * scale.entry_bytes)
        transfer = nblocks * model.block_read_us
        return transfer / (model.seek_us + transfer)

    gains = {name: cells[(name, kind, max(_BOUNDARIES))]
             / max(1e-9, cells[(name, kind, min(_BOUNDARIES))])
             for name in profiles}
    by_transfer = sorted(profiles, key=transfer_share)
    result.check(
        "the boundary lever tracks transfer dominance (gain ordering "
        "matches the transfer share of a fetch)",
        all(gains[b] >= gains[a] * 0.98
            for a, b in zip(by_transfer, by_transfer[1:])),
        str({name: (round(transfer_share(name), 2), round(gains[name], 2))
             for name in by_transfer}))
    request_bound = min(profiles, key=transfer_share)
    result.check(
        f"on {request_bound} the boundary stops mattering "
        "(request-dominated fetches)",
        gains[request_bound] < 1.05,
        f"loose/tight gain={gains[request_bound]:.3f}")

    slowest = ordered[-1]
    lat = [cells[(slowest, k, min(_BOUNDARIES))] for k in _KINDS]
    spread = (max(lat) - min(lat)) / max(lat)
    result.check(
        f"on {slowest} index types are interchangeable (request-bound)",
        spread < 0.05, f"spread={spread:.2%}")

    fastest = ordered[0]
    fast_lat = {k: cells[(fastest, k, min(_BOUNDARIES))] for k in _KINDS}
    result.check(
        f"on {fastest} CPU stages surface: RMI's flat two-eval lookup is "
        "at least as fast as segment-searching indexes",
        fast_lat[IndexKind.RMI] <= fast_lat[IndexKind.PGM] * 1.02,
        str({k.value: round(v, 3) for k, v in fast_lat.items()}))
    return result
