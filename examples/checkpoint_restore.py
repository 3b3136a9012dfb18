"""Checkpoint and retrain-free restore with the persistence layer.

Builds a sharded database with level-granularity learned indexes — the
configuration where restarts used to hurt most, because every level
model had to be retrained from a full key reload — then checkpoints it
(flush + manifest snapshot + model sidecars) and "crash"-restores every
shard from its device.  The restored fleet performs **zero** index
training: models come back by deserialization, and the version layout
by replaying one manifest record per shard.

Run:  python examples/checkpoint_restore.py
"""

import random

from repro import IndexKind, Options, ShardedDB
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity
from repro.persist.models import MODEL_FILE_PREFIX
from repro.storage.stats import (
    MANIFEST_EDITS,
    MODELS_LOADED,
    RECOVERY_MANIFEST_OPENS,
    TRAIN_KEY_VISITS,
    Stage,
)

NUM_SHARDS = 4


def main() -> None:
    options = Options(
        index_kind=IndexKind.PGM,
        position_boundary=32,
        granularity=Granularity.LEVEL,   # one model per level, persisted
        value_capacity=236,              # 256-byte entries
        write_buffer_bytes=128 * 1024,
        sstable_bytes=512 * 1024,
    )
    db = ShardedDB(num_shards=NUM_SHARDS, options=options)

    # -- load: every flush/compaction commits a manifest version edit --
    rng = random.Random(3)
    keys = sorted(rng.sample(range(1, 1 << 62), 30_000))
    for i, key in enumerate(keys):
        db.put(key, b"value-%d" % i)
    build_visits = db.stats.get(TRAIN_KEY_VISITS)
    edits = db.stats.get(MANIFEST_EDITS)
    print(f"loaded {len(keys):,} keys: {int(build_visits):,} training key "
          f"visits, {int(edits):,} manifest edits committed")

    # -- checkpoint: flush + snapshot the manifest + persist models ----
    summary = db.checkpoint()
    print(f"checkpoint: {int(summary['files'])} tables, "
          f"{int(summary['models_persisted'])} level models persisted, "
          f"{int(summary['manifest_bytes'])} manifest bytes total")

    # -- "crash" and restore every shard from its device ---------------
    devices = [shard.device for shard in db.shards]
    restored = ShardedDB.reopen(NUM_SHARDS, options, devices)
    stats = restored.stats
    print(f"\nrestore: {int(stats.get(RECOVERY_MANIFEST_OPENS))} manifest "
          f"opens, {int(stats.get(MODELS_LOADED))} models deserialized, "
          f"{int(stats.get(TRAIN_KEY_VISITS))} training key visits "
          f"(cold-open cost {stats.stage_time(Stage.RECOVERY):.0f} "
          "simulated us)")
    assert stats.get(TRAIN_KEY_VISITS) == 0, "restore must not retrain"

    # -- prove the restored tree serves identically --------------------
    sample = keys[:: len(keys) // 2000]
    assert all(restored.get(key) == db.get(key) for key in sample)
    print(f"verified {len(sample):,} lookups identical to the "
          "pre-crash database")

    # -- for contrast: lose the model sidecars, reload + retrain -------
    for name in devices[0].list_files():
        if name.startswith(MODEL_FILE_PREFIX):
            devices[0].delete(name)
    single = LSMTree.reopen(options, devices[0])
    print(f"\nfor contrast, reopening shard 0 without its model sidecars "
          f"retrained {int(single.stats.get(TRAIN_KEY_VISITS)):,} key "
          "visits")
    restored.close()


if __name__ == "__main__":
    main()
