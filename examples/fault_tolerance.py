"""Fault tolerance walkthrough: inject, tolerate, degrade, repair.

Runs one small LSM-tree on a seeded FaultyBlockDevice and marches it
through the four robustness layers:

1. transient read errors, absorbed invisibly by the retry policy;
2. bit rot, contained to quarantined blocks (typed per-key errors,
   batch reads isolate exactly the poisoned keys);
3. a power cut mid-write, survived with every acknowledged batch
   intact after reopen;
4. medium replacement + scrub, which rewrites the damaged tables and
   restores clean health with zero loss.

Faults ride the same plan from the start because data blocks are
checksum-verified on first touch: rot planted *before* any read is
caught and quarantined; a disk that rots after a block was verified
needs the periodic scrub, which re-reads everything uncached.

Run:  python examples/fault_tolerance.py
"""

from repro import IndexKind, Options
from repro.errors import QuarantinedBlockError
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity
from repro.lsm.write_batch import WriteBatch
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    QUARANTINED_BLOCKS,
    RETRY_ATTEMPTS,
    RETRY_SUCCESSES,
)

N_KEYS = 6000
PLAN = FaultPlan(seed=7, transient_read_rate=0.05, bit_rot_rate=0.01)


def _options() -> Options:
    return Options(
        index_kind=IndexKind.PGM,
        position_boundary=32,
        granularity=Granularity.LEVEL,
        value_capacity=44,
        write_buffer_bytes=16 * 1024,
        sstable_bytes=64 * 1024,
        block_size=512,
        data_block_bytes=512,
    )


def _value(key: int, options: Options) -> bytes:
    return (b"v%x" % key)[: options.value_capacity]


def main() -> None:
    options = _options()
    faulty = FaultyBlockDevice(
        MemoryBlockDevice(block_size=options.block_size), PLAN)
    db = LSMTree(options, device=faulty)
    keys = list(range(N_KEYS))
    db.bulk_ingest(keys)

    # 1+2. One batched read over a flaky, rotting disk: transients are
    # retried away, rot-poisoned keys come back as typed errors, and
    # every healthy key still returns its value.
    errors = {}
    values = db.multi_get(keys, errors=errors)
    served = sum(1 for v in values if isinstance(v, bytes))
    assert served + len(errors) == len(keys)
    assert all(isinstance(e, QuarantinedBlockError)
               for e in errors.values())
    print(f"transients : {db.stats.get(RETRY_ATTEMPTS):.0f} retries, "
          f"{db.stats.get(RETRY_SUCCESSES):.0f} reads saved")
    print(f"bit rot    : {len(errors)} keys poisoned, {served} served, "
          f"{db.stats.get(QUARANTINED_BLOCKS):.0f} blocks quarantined")
    print(f"health     : {db.health()['status']}")
    assert db.health()["status"] == "degraded"

    # 3. Power cut: a budgeted device dies mid-write; after revive and
    # reopen, every acknowledged batch is fully present.
    wal_options = options.with_changes(enable_wal=True)
    cut = FaultyBlockDevice(
        MemoryBlockDevice(block_size=options.block_size),
        FaultPlan(seed=11, power_cut_after_bytes=48 * 1024))
    wal_db = LSMTree(wal_options, device=cut)
    acked = []
    try:
        for base in range(0, 10_000, 8):
            batch = WriteBatch()
            group = list(range(base, base + 8))
            for key in group:
                batch.put(key, b"p%d" % key)
            wal_db.write(batch)
            acked.append(group)
    except Exception:
        pass
    cut.revive()
    survivor = LSMTree.reopen(wal_options, cut)
    for group in acked:
        assert all(survivor.get(k) == b"p%d" % k for k in group)
    print(f"power cut  : {len(acked)} acknowledged batches, "
          f"all intact after reopen")

    # 4. Replace the medium (clean plan) and scrub: the quarantined
    # blocks re-read clean, so every entry is salvaged into rewritten
    # tables and the database returns to full health.
    faulty.plan = FaultPlan(seed=7)
    report = db.scrub()
    print(f"scrub      : {report.tables_checked} tables checked, "
          f"{report.tables_rewritten} rewritten, "
          f"{report.entries_lost} entries lost")
    assert report.entries_lost == 0
    assert db.scrub().clean
    assert db.health()["status"] == "ok"
    assert all(db.get(key) == _value(key, options) for key in keys)
    print("health     : ok — fully repaired, zero loss")


if __name__ == "__main__":
    main()
