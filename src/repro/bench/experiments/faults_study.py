"""Faults study — availability under injected storage faults, and repair.

Beyond the paper: the testbed assumes a perfect device, but the
economics of learned indexes change if corruption makes whole tables
unreadable — a per-table model is embedded in the file it indexes,
while a level model survives the loss of any one file.  This
experiment drives the engine over a
:class:`~repro.storage.faults.FaultyBlockDevice` and measures what the
robustness machinery actually delivers:

* **Bit rot x granularity** — a sweep of rot rates against FILE and
  LEVEL index granularity.  Reads touching a rotted block fail with a
  typed :class:`~repro.errors.QuarantinedBlockError` while every other
  key keeps serving; availability must degrade *proportionally* to the
  fraction of rotted device blocks (never collapse), and a
  ``multi_get`` batch must isolate the poisoned keys instead of
  failing wholesale.  After the medium is "replaced" (rot disabled),
  a bounded number of :meth:`~repro.lsm.db.LSMTree.scrub` passes must
  return the database to full health with zero lost entries.
* **Transient errors** — a flaky bus cured by
  :class:`~repro.storage.retry.RetryPolicy`: every read succeeds, the
  retry counters show the recoveries, nothing escalates.
* **Disk full** — the engine degrades to read-only instead of
  failing reads: writes raise
  :class:`~repro.errors.ReadOnlyModeError`, lookups keep answering.
* **Power cuts** — WAL-acknowledged writes survive a cut at several
  byte budgets: after :meth:`~repro.storage.faults.FaultyBlockDevice.
  revive` and reopen, every acknowledged batch is fully readable and
  no torn batch is partially visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale
from repro.errors import (
    PowerCutError,
    QuarantinedBlockError,
    ReadOnlyModeError,
    StorageError,
)
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity
from repro.lsm.write_batch import WriteBatch
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    FAULTS_INJECTED,
    RETRY_ATTEMPTS,
    RETRY_EXHAUSTED,
    RETRY_SUCCESSES,
)

EXPERIMENT_ID = "faults"
TITLE = "Faults: availability under rot/transients/power cuts + scrub repair"

#: Scrub passes allowed to reach a clean bill of health after repair.
MAX_SCRUB_PASSES = 4


def _value_for(options):
    def value_for(key: int) -> bytes:
        return (b"v%x" % key)[: options.value_capacity]
    return value_for


def _build_faulty(scale, kind, boundary, granularity, plan,
                  **option_changes):
    """An LSMTree over a fresh FaultyBlockDevice(MemoryBlockDevice)."""
    options = scale.config(kind, boundary,
                           granularity=granularity).with_changes(
        **option_changes)
    inner = MemoryBlockDevice(block_size=options.block_size)
    faulty = FaultyBlockDevice(inner, plan)
    db = LSMTree(options, device=faulty)
    return db, faulty, options


def _rot_block_fraction(db, faulty) -> float:
    """Fraction of the database's device blocks that are rotted."""
    rotted = total = 0
    for name in db.device.list_files():
        if not name.startswith("sst-"):
            continue
        size = db.device.size(name)
        total += (size + db.device.block_size - 1) // db.device.block_size
        rotted += len(faulty.rotted_blocks(name))
    return rotted / total if total else 0.0


def _blocks_per_lookup(options) -> float:
    """Worst-case data blocks one lookup's widened bound can touch."""
    per = max(1, options.data_block_bytes // options.entry_bytes)
    return 2.0 * options.position_boundary / per + 2.0


def _availability(db, keys, expected) -> Dict[str, object]:
    """Probe every key individually; classify the outcomes."""
    failed: List[int] = []
    wrong = 0
    for key in keys:
        try:
            if db.get(key) != expected[key]:
                wrong += 1
        except QuarantinedBlockError:
            failed.append(key)
    return {"failed": failed, "wrong": wrong,
            "availability": 1.0 - len(failed) / len(keys)}


def _run_rot_arm(scale, result, kind, boundary, rot_rates):
    table = ResultTable(columns=[
        "granularity", "rot_rate", "rot_blocks_frac", "availability",
        "scrub_passes", "post_scrub_missing"])
    isolation_ok = True
    bound_ok = True
    zero_rate_perfect = True
    scrub_ok = True
    values_ok = True
    keys = list(range(100_000, 100_000 + scale.n_keys))
    for granularity in (Granularity.FILE, Granularity.LEVEL):
        for rate in rot_rates:
            plan = FaultPlan(seed=scale.seed, bit_rot_rate=rate)
            db, faulty, options = _build_faulty(
                scale, kind, boundary, granularity, plan)
            value_for = _value_for(options)
            db.bulk_ingest(keys, value_for=value_for, seed=scale.seed)
            expected = {key: value_for(key) for key in keys}
            probe = _availability(db, keys, expected)
            failed = set(probe["failed"])
            values_ok = values_ok and probe["wrong"] == 0
            rot_frac = _rot_block_fraction(db, faulty)
            if rate == 0.0:
                zero_rate_perfect = (zero_rate_perfect
                                     and probe["availability"] == 1.0
                                     and db.stats.get(FAULTS_INJECTED) == 0)
            else:
                # Union bound: a lookup fails only when its (block
                # aligned) fetch span touches a corrupted block, so the
                # failed fraction is at most blocks-per-lookup x the
                # rotted-block fraction (x slack for spans crossing
                # device-block edges).  Availability degrades in
                # proportion to the damage — it must never collapse.
                ceiling = min(1.0, rot_frac
                              * (_blocks_per_lookup(options) + 1.0) * 1.5)
                bound_ok = bound_ok and (1.0 - probe["availability"]
                                         <= ceiling)
            # multi_get must isolate exactly the keys that fail alone.
            errors: Dict[int, QuarantinedBlockError] = {}
            batched = db.multi_get(keys, errors=errors)
            isolation_ok = isolation_ok and set(errors) == failed
            for key, value in zip(keys, batched):
                if key in failed:
                    isolation_ok = (isolation_ok and
                                    isinstance(value, QuarantinedBlockError))
                else:
                    isolation_ok = isolation_ok and value == expected[key]
            # "Replace the medium": rot off, then scrub back to health.
            faulty.plan = FaultPlan(seed=scale.seed)
            passes = 0
            report = None
            while passes < MAX_SCRUB_PASSES:
                report = db.scrub()
                passes += 1
                if report.clean:
                    break
            missing = sum(1 for key in keys if db.get(key) != expected[key])
            scrub_ok = (scrub_ok and report is not None and report.clean
                        and missing == 0
                        and db.health()["status"] == "ok")
            table.add_row(str(granularity), rate, rot_frac,
                          probe["availability"], passes, missing)
            db.close()
    result.add_table("Bit rot: availability, then scrub repair", table)
    result.check("zero fault rate leaves availability at 1.0 and injects "
                 "nothing", zero_rate_perfect)
    result.check("healthy keys return correct values under rot", values_ok)
    result.check("multi_get isolates exactly the individually-failing keys",
                 isolation_ok)
    result.check("unavailability stays within the rotted-block union bound",
                 bound_ok)
    result.check(f"scrub restores full health within {MAX_SCRUB_PASSES} "
                 "passes of medium replacement", scrub_ok)


def _run_transient_arm(scale, result, kind, boundary):
    plan = FaultPlan(seed=scale.seed + 1, transient_read_rate=0.1,
                     transient_fail_count=1)
    db, faulty, options = _build_faulty(scale, kind, boundary,
                                        Granularity.FILE, plan)
    value_for = _value_for(options)
    keys = list(range(scale.n_keys))
    db.bulk_ingest(keys, value_for=value_for, seed=scale.seed)
    ok = all(db.get(key) == value_for(key)
             for key in keys[:: max(1, len(keys) // scale.n_ops)])
    attempts = db.stats.get(RETRY_ATTEMPTS)
    successes = db.stats.get(RETRY_SUCCESSES)
    exhausted = db.stats.get(RETRY_EXHAUSTED)
    table = ResultTable(columns=["retry_attempts", "retry_successes",
                                 "retry_exhausted"])
    table.add_row(int(attempts), int(successes), int(exhausted))
    result.add_table("Transient read faults absorbed by the retry policy",
                     table)
    result.check("every read succeeds despite transient faults", ok)
    result.check("the retry policy logged recoveries and no exhaustion",
                 attempts > 0 and successes > 0 and exhausted == 0)
    db.close()


def _run_disk_full_arm(scale, result, kind, boundary):
    plan = FaultPlan(seed=scale.seed + 2, disk_full_after_bytes=8192)
    db, faulty, options = _build_faulty(scale, kind, boundary,
                                        Granularity.FILE, plan)
    n = max(64, options.entries_per_buffer // 2)
    for key in range(n):
        db.put(key, b"x")
    degraded_types = []
    try:
        db.flush()
    except ReadOnlyModeError:
        degraded_types.append("flush")
    reads_ok = all(db.get(key) == b"x" for key in range(n))
    writes_rejected = False
    try:
        db.put(n + 1, b"y")
    except ReadOnlyModeError:
        writes_rejected = True
    health = db.health()
    table = ResultTable(columns=["status", "reason"])
    table.add_row(str(health["status"]), str(health["reason"]))
    result.add_table("Disk full: degraded read-only mode", table)
    result.check("a full disk degrades to read-only instead of failing "
                 "reads", degraded_types == ["flush"] and reads_ok
                 and writes_rejected and health["status"] == "read_only")


def _run_power_cut_arm(scale, result, kind, boundary,
                       cut_budgets: Sequence[int]):
    table = ResultTable(columns=[
        "cut_after_bytes", "acked_batches", "acked_readable",
        "torn_batch_partial"])
    durable_ok = True
    atomic_ok = True
    for budget in cut_budgets:
        plan = FaultPlan(seed=scale.seed + 3, power_cut_after_bytes=budget)
        db, faulty, options = _build_faulty(
            scale, kind, boundary, Granularity.FILE, plan,
            enable_wal=True)
        acked: List[List[int]] = []
        torn: Optional[List[int]] = None
        key = 0
        while torn is None and key < 100_000:
            batch = WriteBatch()
            batch_keys = list(range(key, key + 7))
            for k in batch_keys:
                batch.put(k, b"p%x" % k)
            key += 7
            try:
                db.write(batch)
                acked.append(batch_keys)
            except (ReadOnlyModeError, PowerCutError, StorageError):
                torn = batch_keys
        faulty.revive()
        recovered = LSMTree.reopen(options, db.device)
        acked_keys = [k for batch_keys in acked for k in batch_keys]
        readable = sum(1 for k in acked_keys
                       if recovered.get(k) == b"p%x" % k)
        torn_present = (0 if torn is None else
                        sum(1 for k in torn if recovered.get(k) is not None))
        durable_ok = durable_ok and readable == len(acked_keys)
        # A torn batch may be fully absent (frame never completed) but
        # must never be partially visible.
        atomic_ok = atomic_ok and torn_present in (0, len(torn or ()))
        table.add_row(budget, len(acked), readable, torn_present)
        recovered.close()
    result.add_table("Power cuts: acknowledged writes survive reopen", table)
    result.check("every acknowledged batch is fully readable after a power "
                 "cut", durable_ok)
    result.check("no torn batch is partially visible after replay",
                 atomic_ok)


def run(scale="smoke", kind: IndexKind = IndexKind.PGM, boundary: int = 32,
        rot_rates: Sequence[float] = (0.0, 0.004, 0.02),
        cut_budgets: Sequence[int] = (4096, 65536, 262144),
        ) -> ExperimentResult:
    """Sweep fault modes x index granularity; see module docstring."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {scale.n_keys} keys, kind={kind}, "
                f"boundary={boundary}, rot rates "
                f"{'/'.join(str(r) for r in rot_rates)}")
    _run_rot_arm(scale, result, kind, boundary, rot_rates)
    _run_transient_arm(scale, result, kind, boundary)
    _run_disk_full_arm(scale, result, kind, boundary)
    _run_power_cut_arm(scale, result, kind, boundary, cut_budgets)
    return result
