"""Replicated failover walkthrough: crash the primary, keep serving.

Builds one shard as a ReplicaGroup of three LSM-trees on separate
fault-injectable devices and marches it through the protocol:

1. quorum-acked writes, shipped inline to the followers;
2. a primary power cut — reads keep answering from a follower while
   the heartbeat detector counts down;
3. deterministic promotion of the most-caught-up follower (failover
   time = detection wait + the promoted replica's measured reopen);
4. the revived old primary rejoining via hinted-handoff replay.

Run:  python examples/replicated_failover.py
"""

from repro import IndexKind, Options
from repro.lsm.options import Granularity
from repro.service.replication import (
    FAILOVER_OP,
    AckPolicy,
    ReplicaGroup,
    ReplicationConfig,
)
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    REPL_FRAMES_SHIPPED,
    REPL_HINTS_REPLAYED,
    REPL_PROMOTIONS,
)

N_KEYS = 4000
HEARTBEAT_US = 5_000.0
TIMEOUT_US = 15_000.0


def _options() -> Options:
    return Options(
        index_kind=IndexKind.PGM,
        position_boundary=32,
        granularity=Granularity.LEVEL,
        value_capacity=44,
        write_buffer_bytes=16 * 1024,
        sstable_bytes=64 * 1024,
    )


def main() -> None:
    options = _options()
    config = ReplicationConfig(
        replication_factor=3, ack=AckPolicy.QUORUM,
        heartbeat_interval_us=HEARTBEAT_US,
        heartbeat_timeout_us=TIMEOUT_US)
    devices = [
        FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                          FaultPlan(seed=11 + r))
        for r in range(3)]
    group = ReplicaGroup(0, options, config, devices=devices)

    # 1. Quorum writes: each put is one frame, applied on the primary
    #    and shipped inline until a majority has it durably.
    for key in range(N_KEYS):
        group.put(key, b"v%x" % key)
    stats = group.stats
    print("== quorum writes ==")
    print(f"primary: replica {group.primary_index}, "
          f"frames shipped: {stats.get(REPL_FRAMES_SHIPPED):.0f}")

    # 2. Power-cut the primary. Nothing has noticed yet — but a read
    #    that touches the dead device fails over to a follower
    #    immediately (bounded staleness), so serving never pauses.
    group.flush()
    devices[0].cut_power()
    print("\n== primary power cut ==")
    print(f"get(42) while headless: {group.get(42)!r}")
    replicas = group.health()["replication"]["replicas"]
    print(f"roles: {[r['role'] for r in replicas]}, "
          f"alive: {sum(r['alive'] for r in replicas)}")

    # 3. Tick the failure detector: the read above already observed
    #    the death (a serving-path power cut is unambiguous), so the
    #    next tick promotes the most-caught-up follower via a
    #    manifest-driven reopen (model reload measured).  Had nothing
    #    touched the dead device, detection would have waited the full
    #    heartbeat timeout instead.
    now = 0.0
    while stats.get(REPL_PROMOTIONS) == 0:
        now += HEARTBEAT_US
        group.tick(now)
    hist = group.registry.histograms[FAILOVER_OP]
    print("\n== failover ==")
    print(f"new primary: replica {group.primary_index} "
          f"(promotions: {stats.get(REPL_PROMOTIONS):.0f})")
    print(f"failover time: {hist.percentiles()['mean']:.0f}us "
          f"(observed failure -> promotion, + measured reopen)")
    group.put(N_KEYS, b"post-failover")
    print(f"write through the new primary: {group.get(N_KEYS)!r}")

    # 4. Revive the old primary: it rejoins as a follower and replays
    #    the hinted frames it missed while dead.
    devices[0].revive()
    now += TIMEOUT_US
    group.tick(now)
    replicas = group.health()["replication"]["replicas"]
    print("\n== old primary rejoins ==")
    print(f"roles: {[r['role'] for r in replicas]}, "
          f"alive: {sum(r['alive'] for r in replicas)}, "
          f"max lag: {max(r['lag_frames'] for r in replicas)} frames")
    print(f"hints replayed: {stats.get(REPL_HINTS_REPLAYED):.0f}")
    print(f"old primary's copy of key {N_KEYS}: "
          f"{group.replicas[0].tree.get(N_KEYS)!r}")
    group.close()


if __name__ == "__main__":
    main()
