"""Recovery study — cold-open cost with and without persisted models.

Beyond the paper: Table 1 and Figure 9 establish that (re)training
learned indexes dominates the write-side cost, but the paper's testbed
never *restarts* — so it never pays that bill twice.  A serving
deployment does: without persisted models every crash or rolling
restart reloads every level's keys and retrains its model, multiplying
the training cost by shard count.

This experiment sweeps DB size x index kind x granularity and reports
the simulated cold-open cost of :meth:`repro.lsm.db.LSMTree.reopen` on
the same device in two states:

* **manifest** — replay the MANIFEST version log and deserialize the
  persisted ``mdl-*`` models (O(manifest));
* **retrain** — the same replay with the ``mdl-*`` sidecars deleted,
  so every level reloads its keys and retrains (O(data · retrain)),
  the fallback a lost or corrupt sidecar takes.

Per-table (FILE granularity) models are embedded in their table files
and never retrain in either state.  Level granularity is where
persistence pays: the key reload + retrain disappears entirely, and the
check the paper's economics imply — *zero* training key visits on a
manifest open — is asserted for every cell.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity
from repro.persist.models import MODEL_FILE_PREFIX
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import TRAIN_KEY_VISITS, Stage
from repro.workloads import datasets as ds

EXPERIMENT_ID = "recovery"
TITLE = "Recovery: manifest + persisted models vs manifest + retrain"


def _cold_open(options, device):
    """Reopen on a fresh Stats registry; return (db, open_us, visits)."""
    db = LSMTree.reopen(options, device)
    stats = db.stats
    open_us = stats.total_time()
    train_visits = stats.get(TRAIN_KEY_VISITS)
    train_us = (stats.stage_time(Stage.COMPACT_TRAIN)
                + stats.stage_time(Stage.COMPACT_WRITE_MODEL))
    return db, open_us, train_visits, train_us


def run(scale="smoke", dataset: str = "random",
        kinds: Sequence[IndexKind] = (IndexKind.FP, IndexKind.PGM),
        boundary: int = 32,
        size_fractions: Sequence[float] = (0.25, 1.0)) -> ExperimentResult:
    """Sweep DB size x index kind x granularity over both device states."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: up to {scale.n_keys} keys, "
                f"boundary={boundary}, kinds="
                f"{'/'.join(str(kind) for kind in kinds)}")

    table = ResultTable(columns=[
        "n_keys", "kind", "granularity", "retrain_open_us",
        "manifest_open_us", "retrain_train_visits", "manifest_train_visits",
        "speedup"])
    manifest_zero_train = True
    oracle_ok = True
    level_cells = []
    for fraction in size_fractions:
        n_keys = max(64, int(scale.n_keys * fraction))
        keys = ds.generate(dataset, n_keys, seed=scale.seed)
        for kind in kinds:
            for granularity in (Granularity.FILE, Granularity.LEVEL):
                options = scale.config(kind, boundary,
                                       granularity=granularity)
                device = MemoryBlockDevice(block_size=options.block_size)
                db = LSMTree(options, device=device)
                db.bulk_ingest(keys, seed=scale.seed)
                db.checkpoint()
                expected = {key: db.get(key)
                            for key in keys[:: max(1, len(keys) // 50)]}

                mani_db, mani_us, mani_visits, mani_train_us = _cold_open(
                    options, device)
                for name in device.list_files():
                    if name.startswith(MODEL_FILE_PREFIX):
                        device.delete(name)
                retrain_db, retrain_us, retrain_visits, _ = _cold_open(
                    options, device)

                manifest_zero_train = (manifest_zero_train
                                       and mani_visits == 0
                                       and mani_train_us == 0.0)
                oracle_ok = oracle_ok and all(
                    mani_db.get(key) == value
                    and retrain_db.get(key) == value
                    for key, value in expected.items())
                speedup = retrain_us / mani_us if mani_us else float("inf")
                table.add_row(n_keys, str(kind), str(granularity),
                              retrain_us, mani_us, int(retrain_visits),
                              int(mani_visits), speedup)
                if granularity is Granularity.LEVEL:
                    level_cells.append((retrain_us, mani_us))
                mani_db.close()

    result.add_table("Cold-open cost with and without model sidecars",
                     table)

    result.check(
        "manifest-driven reopen performs zero index training",
        manifest_zero_train,
        "TRAIN_KEY_VISITS and train-stage time are 0 in every cell")
    result.check(
        "reopened trees answer lookups identically in both states",
        oracle_ok)
    result.check(
        "persisted level models cut cold-open cost vs retraining",
        all(mani < retrain for retrain, mani in level_cells),
        f"{len(level_cells)} level-granularity cells compared")
    retrain_col = table.column("retrain_train_visits")
    gran_col = table.column("granularity")
    result.check(
        "a reopen without sidecars really retrains under level "
        "granularity (the cost being avoided is nonzero)",
        all(visits > 0 for visits, gran in zip(retrain_col, gran_col)
            if gran == str(Granularity.LEVEL)))
    return result
