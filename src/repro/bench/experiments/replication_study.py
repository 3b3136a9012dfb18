"""Replication study — failover, durability and availability under crashes.

Beyond the paper: every prior experiment runs each shard as a single
point of failure.  This experiment replicates each shard
(:class:`~repro.service.replication.ReplicaGroup`) and drives the fleet
through *seeded crash schedules* on the shared virtual clock, measuring
what the replication protocol delivers:

* **Durability x ack policy** — a write stream with a mid-stream
  primary power cut, replayed under :attr:`AckPolicy.ASYNC` and
  :attr:`AckPolicy.QUORUM`.  Under QUORUM no acknowledged write may be
  lost to a single-replica power cut (the frame reached a majority
  before the ack); under ASYNC the unshipped suffix dies with the
  primary and is truncated at promotion (``repl.frames_lost``) — the
  durability gap between the policies, quantified.
* **Availability x replication factor** — a mixed read/write stream
  with a crash-and-revive schedule, swept over R = 1, 2, 3.  Served
  fraction must be monotone in R: R=1 goes fully dark, R=2 keeps
  serving reads (quorum of 2 is 2, so writes stall until the revive),
  R=3 fails over and serves both.
* **Failover time x model granularity** — promotion *reopens* the new
  primary manifest-driven, so the ``repl.failover`` histogram measures
  detection wait plus real recovery work (model reloads included), not
  a zero-cost pointer swap.
* **Writes resume through the gateway** — the per-shard circuit
  breaker force-opens while the shard is headless and closes through
  its half-open probe once promotion restores writability.
* **Determinism** — the same seed and crash schedule reproduce a
  byte-identical report; the failure detector runs on the virtual
  clock, never the wall clock.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale
from repro.errors import ReproError
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.lsm.write_batch import WriteBatch
from repro.service.gateway import Gateway, GatewayConfig
from repro.service.replication import (
    FAILOVER_OP,
    AckPolicy,
    ReplicationConfig,
)
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    REPL_BACKPRESSURE,
    REPL_FRAMES_LOST,
    REPL_PROMOTIONS,
)

EXPERIMENT_ID = "replication"
TITLE = "Replication: failover, durability x ack policy, availability x R"

#: Shards in the simulated fleet (each one a replica group).
NUM_SHARDS = 2
#: Failure-detector cadence and patience (simulated microseconds).
HEARTBEAT_US = 5_000.0
TIMEOUT_US = 15_000.0
#: Simulated gap between closed-loop client operations.  Not a divisor
#: of the heartbeat interval, so crashes land mid-interval and the
#: ASYNC arm always has an unshipped suffix in flight.
OP_GAP_US = 700.0


def _build_fleet(scale, kind: IndexKind, boundary: int,
                 granularity: Granularity, factor: int, ack: AckPolicy,
                 seed: int) -> Tuple[ShardedDB, List[List[FaultyBlockDevice]]]:
    """A loaded replicated fleet on fault-injectable devices."""
    options = scale.config(kind, boundary,
                           granularity=granularity).with_changes(
        cache_bytes=0, data_cache_bytes=0)
    devices = [
        [FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                           FaultPlan(seed=seed + shard * 97 + r))
         for r in range(factor)]
        for shard in range(NUM_SHARDS)]
    config = ReplicationConfig(
        replication_factor=factor, ack=ack,
        heartbeat_interval_us=HEARTBEAT_US,
        heartbeat_timeout_us=TIMEOUT_US)
    db = ShardedDB(num_shards=NUM_SHARDS, options=options,
                   devices=devices, replication=config, observe=False)
    db.bulk_ingest(list(range(100_000, 100_000 + scale.n_keys)),
                   seed=scale.seed)
    return db, devices


def _cut_primary(db: ShardedDB,
                 devices: Sequence[Sequence[FaultyBlockDevice]],
                 shard: int) -> int:
    """Power-cut ``shard``'s current primary; returns its index."""
    index = db.shards[shard].primary_index
    devices[shard][index].cut_power()
    return index


def _durability_arm(scale, result: ExperimentResult, kind,
                    boundary) -> Dict[str, str]:
    """Write stream + mid-stream primary crash, per ack policy."""
    table = ResultTable(columns=[
        "ack", "acked", "rejected", "backpressured", "lost_acked",
        "frames_lost", "promotions", "resumed"])
    lost_by_policy: Dict[AckPolicy, int] = {}
    resumed_by_policy: Dict[AckPolicy, bool] = {}
    dumps: Dict[str, str] = {}
    n_ops = min(scale.n_ops, 1_200)
    # The cut lands a few operations *past* a detector tick, so the
    # commits since the last async ship are genuinely in flight.
    crash_at = n_ops // 3 + 4
    for ack in (AckPolicy.ASYNC, AckPolicy.QUORUM):
        db, devices = _build_fleet(scale, kind, boundary, Granularity.FILE,
                                   3, ack, scale.seed + 31)
        acked: Dict[int, bytes] = {}
        rejected = 0
        resumed = False
        now = 0.0
        for i in range(n_ops):
            now += OP_GAP_US
            db.tick(now)
            key = 100_000 + i
            value = b"repl-%d" % i
            try:
                db.put(key, value)
            except ReproError:
                rejected += 1
            else:
                acked[key] = value
                if i > crash_at and db.shard_for(key) == 0:
                    # A write on the crashed shard succeeded again:
                    # the follower was promoted and took over the log.
                    resumed = True
            if i == crash_at:
                # Power-cut the primary right after an acknowledged
                # write, mid-heartbeat-interval.
                _cut_primary(db, devices, 0)
        # Drain the detector so the final state is settled.
        for _ in range(8):
            now += HEARTBEAT_US
            db.tick(now)
        lost = sum(1 for key, value in acked.items()
                   if db.get(key) != value)
        stats = db.stats
        frames_lost = int(stats.counters.get(REPL_FRAMES_LOST, 0))
        promotions = int(stats.counters.get(REPL_PROMOTIONS, 0))
        backpressured = int(stats.counters.get(REPL_BACKPRESSURE, 0))
        table.add_row(str(ack), len(acked), rejected, backpressured, lost,
                      frames_lost, promotions, resumed)
        lost_by_policy[ack] = lost
        resumed_by_policy[ack] = resumed
        dumps[str(ack)] = json.dumps(
            {"counters": dict(sorted(stats.counters.items())),
             "acked": len(acked), "rejected": rejected, "lost": lost},
            sort_keys=True)
        db.close()
    result.add_table(
        "Durability under a mid-stream primary power cut (R=3; the dead "
        "replica is never revived, so once its bounded hint queue fills, "
        "further writes are rejected as backpressure)", table)
    result.check("QUORUM loses no acknowledged write to a single-replica "
                 "power cut", lost_by_policy[AckPolicy.QUORUM] == 0)
    result.check("ASYNC loses its acked-but-unshipped suffix at promotion "
                 "(the durability gap QUORUM closes)",
                 lost_by_policy[AckPolicy.ASYNC]
                 > lost_by_policy[AckPolicy.QUORUM])
    result.check("writes resume on the crashed shard after follower "
                 "promotion (both policies)",
                 all(resumed_by_policy.values()))
    return dumps


def _availability_arm(scale, result: ExperimentResult, kind,
                      boundary) -> None:
    """Mixed read/write stream through a crash-and-revive schedule."""
    table = ResultTable(columns=[
        "replication_factor", "served", "refused", "availability",
        "promotions"])
    n_ops = min(scale.n_ops, 1_500)
    crash_at = n_ops // 4
    revive_at = (3 * n_ops) // 4
    availability: List[float] = []
    for factor in (1, 2, 3):
        db, devices = _build_fleet(scale, kind, boundary, Granularity.FILE,
                                   factor, AckPolicy.QUORUM,
                                   scale.seed + 47)
        rng = random.Random(scale.seed + 5)
        keys = list(range(100_000, 100_000 + scale.n_keys))
        served = refused = 0
        cut_index: Optional[int] = None
        now = 0.0
        for i in range(n_ops):
            now += OP_GAP_US
            db.tick(now)
            if i == crash_at:
                cut_index = _cut_primary(db, devices, 0)
            if i == revive_at and cut_index is not None:
                devices[0][cut_index].revive()
            key = keys[rng.randrange(len(keys))]
            try:
                if rng.random() < 0.1:
                    db.put(key, b"avail-%d" % i)
                else:
                    db.get(key)
                served += 1
            except ReproError:
                refused += 1
        fraction = served / n_ops
        availability.append(fraction)
        table.add_row(factor, served, refused, round(fraction, 4),
                      int(db.stats.counters.get(REPL_PROMOTIONS, 0)))
        db.close()
    result.add_table(
        "Availability through a crash-and-revive schedule (QUORUM acks, "
        "10% writes)", table)
    result.check("availability is monotone in the replication factor",
                 all(b >= a - 1e-9
                     for a, b in zip(availability, availability[1:])))
    result.check("R=3 rides through the crash nearly unscathed "
                 "(served fraction > 0.95)", availability[-1] > 0.95)
    result.check("R=1 pays for the whole outage (strictly worse than R=3)",
                 availability[0] < availability[-1])


def _failover_arm(scale, result: ExperimentResult, kind, boundary) -> None:
    """Failover-time histogram per model granularity."""
    table = ResultTable(columns=[
        "granularity", "failovers", "failover_us", "detection_floor_us"])
    ok_floor = True
    recovered_work = True
    for granularity in (Granularity.FILE, Granularity.LEVEL):
        db, devices = _build_fleet(scale, kind, boundary, granularity,
                                   3, AckPolicy.QUORUM, scale.seed + 63)
        db.flush()
        now = 0.0
        for i in range(40):
            now += OP_GAP_US
            db.tick(now)
            db.put(100_000 + i, b"pre-%d" % i)
        _cut_primary(db, devices, 0)
        for _ in range(8):
            now += HEARTBEAT_US
            db.tick(now)
        hist = db.metrics().histograms.get(FAILOVER_OP)
        count = hist.count if hist is not None else 0
        mean_us = (hist.percentiles()["mean"]
                   if hist is not None and count else 0.0)
        table.add_row(str(granularity), count, round(mean_us, 1),
                      TIMEOUT_US)
        # Detection alone takes the heartbeat timeout; the recovery
        # term (manifest replay + model reload on the promoted
        # follower) must push the measured failover strictly past it.
        ok_floor = ok_floor and count == 1 and mean_us >= TIMEOUT_US
        recovered_work = recovered_work and mean_us > TIMEOUT_US
        db.close()
    result.add_table("Failover time (detection wait + measured recovery)",
                     table)
    result.check("each crashed shard records exactly one failover, no "
                 "shorter than the detection timeout", ok_floor)
    result.check("failover time includes the promoted follower's measured "
                 "reopen (model reload is not skipped)", recovered_work)


def _breaker_arm(scale, result: ExperimentResult, kind, boundary) -> None:
    """The gateway breaker opens on the headless shard, then closes."""
    db, devices = _build_fleet(scale, kind, boundary, Granularity.FILE,
                               3, AckPolicy.QUORUM, scale.seed + 71)
    gateway = Gateway(db, GatewayConfig(breaker_cooldown_us=50_000.0))
    # A key owned by shard 0 (the shard the schedule crashes).
    key0 = next(k for k in range(100_000, 100_200)
                if db.shard_for(k) == 0)
    batch = WriteBatch()
    batch.put(key0, b"before")
    gateway.write(batch)
    _cut_primary(db, devices, 0)
    # The first post-cut write *discovers* the dead primary (the error
    # marks the replica dead); the second hits the force-opened
    # breaker and fails fast without touching the shard.
    opened = False
    for _ in range(2):
        try:
            gateway.write(batch)
        except ReproError:
            opened = bool(gateway.breakers[0].state != "closed")
    # Let the detector promote a follower, then wait out the cooldown.
    now = gateway.clock.now_us
    for _ in range(8):
        now += HEARTBEAT_US
        db.tick(now)
    gateway.clock.advance_to(now + 60_000.0)
    landed: Optional[bytes] = None
    for attempt in range(4):
        retry = WriteBatch()
        payload = b"after-%d" % attempt
        retry.put(key0, payload)
        try:
            gateway.write(retry)
            landed = payload
        except ReproError:
            pass
    closed = gateway.breakers[0].state == "closed"
    value = db.get(key0)
    db.close()
    result.check("the breaker force-opens while the crashed shard is "
                 "headless (writes fail fast)", opened)
    result.check("after promotion the breaker closes through its "
                 "half-open probe and writes land", closed
                 and landed is not None and value == landed)


def _determinism_arm(scale, result: ExperimentResult, kind, boundary,
                     first: Dict[str, str]) -> None:
    """The durability arm replayed must reproduce byte-identical state."""
    second = _durability_arm(scale, ExperimentResult("scratch", "scratch"),
                             kind, boundary)
    result.check("same seed + same crash schedule => byte-identical "
                 "counters and outcomes (no wall clock in the failure "
                 "detector)", first == second)


def run(scale="smoke", kind: IndexKind = IndexKind.PGM,
        boundary: int = 32) -> ExperimentResult:
    """Crash-schedule sweep over ack policy, R and granularity."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {scale.n_keys} keys, "
                f"{NUM_SHARDS} shards, kind={kind}, boundary={boundary}, "
                f"heartbeat {HEARTBEAT_US:.0f}us / timeout "
                f"{TIMEOUT_US:.0f}us")
    dumps = _durability_arm(scale, result, kind, boundary)
    _availability_arm(scale, result, kind, boundary)
    _failover_arm(scale, result, kind, boundary)
    _breaker_arm(scale, result, kind, boundary)
    _determinism_arm(scale, result, kind, boundary, dumps)
    return result
