"""Per-shard replication: log shipping, failover, catch-up, hints.

Every logical shard of a :class:`~repro.service.sharded.ShardedDB` can
be a :class:`ReplicaGroup` of R independent
:class:`~repro.lsm.db.LSMTree` instances on separate (fault-injectable)
devices.  The group implements :class:`~repro.kv.KVStore`, the surface
the sharding and gateway layers call, so replication slots under both
without changing a call site.  The protocol runs in deterministic
simulated time on the shared :class:`~repro.kv.VirtualClock`: every
acknowledged write becomes one shipped *frame* under an
:class:`AckPolicy`; a heartbeat failure detector
(:meth:`ReplicaGroup.tick`) declares dead replicas and promotes the
most-caught-up follower through a measured manifest-driven reopen
(``repl.failover``), truncating the unshipped suffix; dead followers
collect hints up to a bound past which writes are refused
(:class:`~repro.errors.HintQueueFullError`); headless groups serve
bounded-staleness follower reads; :meth:`ReplicaGroup.anti_entropy`
scrubs and repairs divergence.  All R trees charge the group's one
:class:`~repro.storage.stats.Stats`, so gateway service times and
deadline tokens see a single timeline.  See ``docs/REPLICATION.md``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    DatabaseClosedError,
    HintQueueFullError,
    InvalidOptionError,
    PowerCutError,
    QuorumLostError,
    ReadOnlyModeError,
    ReplicaUnavailableError,
    ReproError,
)
from repro.kv import VirtualClock
from repro.lsm.db import LSMTree
from repro.lsm.options import Options
from repro.lsm.record import KIND_TOMBSTONE, KIND_VALUE
from repro.lsm.scrub import ScrubReport
from repro.obs.registry import MetricsRegistry
from repro.storage.block_device import BlockDevice, MemoryBlockDevice
from repro.storage.stats import (
    DEGRADED_WRITES_REJECTED,
    REPL_ANTIENTROPY_REPAIRED,
    REPL_ANTIENTROPY_RUNS,
    REPL_BACKPRESSURE,
    REPL_CATCHUP_FRAMES,
    REPL_FRAMES_LOST,
    REPL_FRAMES_SHIPPED,
    REPL_HEARTBEAT_MISSES,
    REPL_HEARTBEATS,
    REPL_HINTS_QUEUED,
    REPL_HINTS_REPLAYED,
    REPL_PROMOTIONS,
    REPL_RECORDS_LOST,
    REPL_RECORDS_SHIPPED,
    REPL_REPLICA_DEATHS,
    REPL_RESYNCS,
    REPL_STALE_READS,
    REPL_WRITES_ACKED,
    REPL_WRITES_REJECTED,
    Stage,
    Stats,
)

#: Histogram the group records failover times into (detection wait plus
#: the promoted follower's measured reopen/model-reload work).
FAILOVER_OP = "repl.failover"

#: Replica roles (health/report vocabulary).
ROLE_PRIMARY = "primary"
ROLE_FOLLOWER = "follower"

#: Smallest key a full-table dump starts from (keys are signed 64-bit
#: in the wire format; workloads use non-negative ints).
_MIN_KEY = -(1 << 63)

#: Hinted-handoff bound: frames retained for one dead replica; writes
#: that would exceed it are rejected (backpressure).
HINT_QUEUE_FRAMES = 256
#: Follower reads are refused past this many frames of lag.
MAX_STALENESS_FRAMES = 64
#: Simulated network cost of shipping one frame to one follower.
SHIP_FRAME_US = 120.0
#: Marginal per-record cost on top of :data:`SHIP_FRAME_US`.
SHIP_RECORD_US = 2.0


class AckPolicy(str, enum.Enum):
    """When a replicated write is acknowledged to the client."""

    #: Primary-only durability; followers catch up at heartbeat ticks.
    ASYNC = "async"
    #: A majority of the group (primary included) applied the frame.
    QUORUM = "quorum"
    #: Every replica of the group applied the frame.
    ALL = "all"

    def acks_needed(self, replicas: int) -> int:
        """Replicas that must durably apply a frame before the ack."""
        if self is AckPolicy.ASYNC:
            return 1
        if self is AckPolicy.QUORUM:
            return replicas // 2 + 1
        return replicas

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ReplicationConfig:
    """Replication knobs for every shard of a :class:`ShardedDB`."""

    #: Copies per shard (1 = no redundancy, the control arm).
    replication_factor: int = 3
    #: When a write is acknowledged (see :class:`AckPolicy`).
    ack: AckPolicy = AckPolicy.QUORUM
    #: Cadence of failure-detector probes and async shipping.
    heartbeat_interval_us: float = 5_000.0
    #: A replica unreachable this long is declared dead.
    heartbeat_timeout_us: float = 15_000.0

    def validate(self) -> None:
        """Reject inconsistent knobs with :class:`InvalidOptionError`."""
        if self.replication_factor < 1:
            raise InvalidOptionError(
                f"replication_factor must be >= 1, got "
                f"{self.replication_factor}")
        if self.heartbeat_interval_us <= 0:
            raise InvalidOptionError("heartbeat_interval_us must be > 0")
        if self.heartbeat_timeout_us < self.heartbeat_interval_us:
            raise InvalidOptionError(
                "heartbeat_timeout_us must be >= heartbeat_interval_us")


class Replica:
    """One copy of a shard: a tree, its device, and detector state."""

    __slots__ = ("index", "tree", "device", "role", "alive", "applied_lsn",
                 "last_ok_us", "suspect_since_us", "diverged",
                 "crash_looping")

    def __init__(self, index: int, tree: LSMTree,
                 device: BlockDevice) -> None:
        self.index = index
        self.tree = tree
        #: The device handed in at construction (the fault-injection
        #: wrapper when there is one) — the probe target and the handle
        #: reopens recover from.  ``tree.device`` may be a cache wrapper
        #: above it.
        self.device = device
        self.role = ROLE_FOLLOWER
        self.alive = True
        #: Highest frame LSN durably applied by this replica.  Bumped
        #: only after the replica's own WAL accepted the frame, so it
        #: never overstates what a post-crash reopen will recover.
        self.applied_lsn = 0
        self.last_ok_us = 0.0
        self.suspect_since_us: Optional[float] = None
        #: True when this replica applied frames the group later
        #: truncated (an old primary's unshipped suffix); hints cannot
        #: heal it — only a full resync from the current primary.
        self.diverged = False
        #: True when restarting this replica did not clear its
        #: read-only wound (e.g. a full disk); the detector stops
        #: restart-looping it until anti-entropy or a revive.
        self.crash_looping = False

    @property
    def powered_off(self) -> bool:
        """Whether the failure detector's probe sees a dead device."""
        return bool(getattr(self.device, "powered_off", False))


class ReplicaGroup:
    """R replicated LSM-trees serving one shard as a single facade.

    Implements :class:`~repro.kv.KVStore`, the surface
    :class:`~repro.service.sharded.ShardedDB` and
    :class:`~repro.service.gateway.Gateway` call — reads and writes
    route through the replication protocol transparently.  All R trees
    share one :class:`~repro.storage.stats.Stats`, so the group has a
    single simulated timeline.
    """

    def __init__(self, shard: int, options: Options,
                 config: ReplicationConfig,
                 devices: Optional[Sequence[BlockDevice]] = None,
                 clock: Optional[VirtualClock] = None) -> None:
        config.validate()
        self.shard = shard
        if not options.enable_wal:
            # Replication's durability story rests on every replica
            # being *independently* durable: an acked frame must
            # survive that replica's own power cut, which only the WAL
            # provides.  The paper's closed-loop default leaves the WAL
            # off; a replica group is precisely the deployment where it
            # cannot be.
            options = options.with_changes(enable_wal=True)
        self.options = options
        self.config = config
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = Stats()
        #: Group-local histograms (``repl.failover``); merged into the
        #: fleet metrics by :meth:`ShardedDB.metrics`.
        self.registry = MetricsRegistry()
        factor = config.replication_factor
        if devices is not None and len(devices) != factor:
            raise InvalidOptionError(
                f"shard {shard}: got {len(devices)} devices for "
                f"replication factor {factor}")
        self.replicas: List[Replica] = []
        for i in range(factor):
            device = (devices[i] if devices is not None
                      else MemoryBlockDevice(block_size=options.block_size))
            tree = LSMTree(options, device=device, stats=self.stats)
            self.replicas.append(Replica(i, tree, device))
        self.replicas[0].role = ROLE_PRIMARY
        self._primary_index: Optional[int] = 0
        #: Retained outgoing log: ``(lsn, ops)`` frames not yet applied
        #: by every non-diverged replica (live followers behind async
        #: shipping, dead followers' hints).  LSNs are contiguous.
        self._frames: Deque[Tuple[int, Tuple[Tuple[int, int, bytes], ...]]] \
            = deque()
        self._next_lsn = 1
        #: When the current primary's failure first became observable
        #: (first missed heartbeat or first serving-path power cut);
        #: the failover histogram measures from here.
        self._failure_observed_us: Optional[float] = None
        #: When the detector last ran; :meth:`tick` self-limits to the
        #: heartbeat cadence so callers can tick every operation.
        self._last_tick_us: Optional[float] = None
        self._deadline = None
        self._closed = False

    # -- role/state introspection --------------------------------------

    def _primary(self) -> Optional[Replica]:
        if self._primary_index is None:
            return None
        return self.replicas[self._primary_index]

    @property
    def primary_index(self) -> Optional[int]:
        """Index of the current primary replica (None = headless)."""
        return self._primary_index

    def last_lsn(self) -> int:
        """LSN of the newest acknowledged-or-attempted frame."""
        return self._next_lsn - 1

    def lag_frames(self, replica: Replica) -> int:
        """How many frames ``replica`` trails the group's log head."""
        return max(0, self.last_lsn() - replica.applied_lsn)

    @property
    def read_only(self) -> bool:
        """True while no live, writable primary is serving."""
        primary = self._primary()
        return (primary is None or not primary.alive
                or primary.tree.read_only)

    @property
    def read_only_reason(self) -> Optional[str]:
        """Why writes are refused (None while a primary serves)."""
        primary = self._primary()
        if primary is None:
            return "no promotable replica (group headless)"
        if not primary.alive:
            return "primary dead; awaiting failover"
        return primary.tree.read_only_reason

    @property
    def deadline(self):
        """The active deadline token (gateway-attached, per request)."""
        return self._deadline

    @deadline.setter
    def deadline(self, token) -> None:
        self._deadline = token
        for replica in self.replicas:
            replica.tree.deadline = token

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("operation on closed ReplicaGroup")

    def _writable_primary(self) -> Replica:
        """The live primary writes go to; raises while there is none."""
        self._check_open()
        primary = self._primary()
        if primary is None or not primary.alive:
            self.stats.add(DEGRADED_WRITES_REJECTED)
            raise ReadOnlyModeError(self.read_only_reason)
        return primary

    def check_write(self, batch) -> None:
        """Raise what :meth:`write` would refuse ``batch`` with."""
        self._writable_primary().tree.check_write(batch)

    # -- failure observation -------------------------------------------

    def _observe_failure(self, replica: Replica) -> None:
        """A serving-path error proved ``replica``'s device is gone."""
        if replica.role == ROLE_PRIMARY and self._failure_observed_us is None:
            self._failure_observed_us = self.clock.now_us
        if replica.alive:
            replica.alive = False
            replica.suspect_since_us = self.clock.now_us
            self.stats.add(REPL_REPLICA_DEATHS)

    # -- write path ----------------------------------------------------

    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key`` through the replication log."""
        self._commit(((KIND_VALUE, key, bytes(value)),))

    def delete(self, key: int) -> None:
        """Delete ``key`` (a replicated tombstone frame)."""
        self._commit(((KIND_TOMBSTONE, key, b""),))

    def write(self, batch) -> int:
        """Apply a :class:`WriteBatch` as one replicated frame."""
        ops = tuple(batch)
        if not ops:
            self._check_open()
            return 0
        return self._commit(ops)

    def _ship_eligible(self, replica: Replica) -> bool:
        """Can frames be applied on ``replica`` right now?"""
        return (replica.alive and not replica.diverged
                and not replica.tree.read_only
                and replica.index != self._primary_index)

    def _hinted(self, replica: Replica) -> bool:
        """Is ``replica`` accumulating hints (expected to return)?"""
        return (replica.index != self._primary_index
                and not replica.diverged
                and not self._ship_eligible(replica))

    def _commit(self, ops: Tuple[Tuple[int, int, bytes], ...]) -> int:
        primary = self._writable_primary()
        # Backpressure BEFORE the primary applies anything: a write the
        # hint bound rejects must be all-or-nothing across the group.
        for replica in self.replicas:
            if not self._hinted(replica):
                continue
            if self.lag_frames(replica) + 1 > HINT_QUEUE_FRAMES:
                self.stats.add(REPL_BACKPRESSURE)
                self.stats.add(REPL_WRITES_REJECTED)
                raise HintQueueFullError(self.shard, replica.index,
                                         HINT_QUEUE_FRAMES)
        try:
            applied = primary.tree.write(list(ops))
        except ReadOnlyModeError:
            # The primary wedged mid-commit (disk full, torn WAL, power
            # cut).  If the device itself is gone the failure is
            # unambiguous — mark the replica dead now; either way note
            # when the failure became observable so the failover
            # histogram starts here, not at the next tick.
            if primary.powered_off:
                self._observe_failure(primary)
            elif self._failure_observed_us is None:
                self._failure_observed_us = self.clock.now_us
            self.stats.add(REPL_WRITES_REJECTED)
            raise
        lsn = self._next_lsn
        self._next_lsn += 1
        self._frames.append((lsn, ops))
        primary.applied_lsn = lsn
        acks = 1
        inline = self.config.ack is not AckPolicy.ASYNC
        for replica in self.replicas:
            if replica.index == primary.index:
                continue
            if self._hinted(replica):
                self.stats.add(REPL_HINTS_QUEUED)
                continue
            if not self._ship_eligible(replica):
                continue
            if inline:
                if self._ship_frame(replica, lsn, ops):
                    acks += 1
            # ASYNC: the frame waits for the next heartbeat tick.
        needed = self.config.ack.acks_needed(len(self.replicas))
        if acks < needed:
            self.stats.add(REPL_WRITES_REJECTED)
            raise QuorumLostError(self.shard, acks, needed)
        self.stats.add(REPL_WRITES_ACKED)
        self._truncate_frames()
        return applied

    def _ship_frame(self, replica: Replica, lsn: int,
                    ops: Tuple[Tuple[int, int, bytes], ...]) -> bool:
        """Apply one frame on a follower; False when it failed."""
        assert replica.applied_lsn == lsn - 1, \
            f"out-of-order ship: {replica.applied_lsn} -> {lsn}"
        self.stats.charge(Stage.WRITE_PATH,
                          SHIP_FRAME_US + SHIP_RECORD_US * len(ops))
        try:
            replica.tree.write(list(ops))
        except ReadOnlyModeError:
            if replica.powered_off:
                self._observe_failure(replica)
            return False
        except PowerCutError:
            self._observe_failure(replica)
            return False
        replica.applied_lsn = lsn
        self.stats.add(REPL_FRAMES_SHIPPED)
        self.stats.add(REPL_RECORDS_SHIPPED, len(ops))
        return True

    def _truncate_frames(self) -> None:
        """Drop frames every non-diverged replica has applied."""
        floor = min((replica.applied_lsn for replica in self.replicas
                     if not replica.diverged), default=self.last_lsn())
        while self._frames and self._frames[0][0] <= floor:
            self._frames.popleft()

    # -- read path -----------------------------------------------------

    def _read_replica(self) -> Replica:
        """The replica reads are served from right now.

        The live primary serves (read-only degraded is fine — reads
        keep working); without one, the most-caught-up live follower
        serves provided its lag is inside the staleness bound.
        """
        primary = self._primary()
        if primary is not None and primary.alive:
            return primary
        best: Optional[Replica] = None
        for replica in self.replicas:
            if not replica.alive or replica.diverged:
                continue
            if best is None or replica.applied_lsn > best.applied_lsn:
                best = replica
        if best is None:
            raise ReplicaUnavailableError(self.shard, "every replica dead")
        lag = self.lag_frames(best)
        if lag > MAX_STALENESS_FRAMES:
            raise ReplicaUnavailableError(
                self.shard,
                f"best follower lags {lag} frames "
                f"(bound {MAX_STALENESS_FRAMES})")
        self.stats.add(REPL_STALE_READS)
        return best

    def _serve_read(self, op):
        """Run ``op`` on the serving replica, failing over on power cuts.

        A ``PowerCutError`` mid-read is an unambiguous death: the
        replica is marked dead immediately and the read retries on the
        next candidate — bounded by R, deterministic.
        """
        self._check_open()
        while True:
            replica = self._read_replica()
            try:
                return op(replica.tree)
            except PowerCutError:
                self._observe_failure(replica)

    def get(self, key: int) -> Optional[bytes]:
        """Point lookup; None when absent or deleted."""
        return self._serve_read(lambda tree: tree.get(key))

    def multi_get(self, keys: Sequence[int], *,
                  coalesce: bool = True,
                  errors: Optional[Dict[int, ReproError]] = None,
                  ) -> List[Union[bytes, ReproError, None]]:
        """Batched point lookups on the serving replica."""
        return self._serve_read(
            lambda tree: tree.multi_get(keys, coalesce=coalesce,
                                        errors=errors))

    def scan(self, start_key: int, count: int) -> List[Tuple[int, bytes]]:
        """Range lookup on the serving replica."""
        return self._serve_read(lambda tree: tree.scan(start_key, count))

    # -- failure detector / heartbeat tick -----------------------------

    def tick(self, now_us: Optional[float] = None) -> None:
        """One failure-detector round: probe, ship, catch up, fail over.

        Deterministic: probes every replica's device, declares dead
        those unreachable past the timeout, restarts/reopens revived
        or wounded followers (replaying their hinted suffix), ships
        pending frames under the async policy, and promotes a follower
        when the primary cannot serve writes.
        """
        self._check_open()
        if now_us is not None:
            self.clock.advance_to(now_us)
        now = self.clock.now_us
        if (self._last_tick_us is not None
                and now - self._last_tick_us
                < self.config.heartbeat_interval_us):
            # Called faster than the heartbeat cadence (e.g. once per
            # client operation): the detector only actually runs every
            # interval, so async shipping lag is real, not an artifact
            # of how often the driver polls.
            return
        self._last_tick_us = now
        for replica in self.replicas:
            self._probe(replica, now)
        primary = self._primary()
        if primary is not None and primary.alive and not primary.powered_off:
            # Shipping is the primary's job: only a live, *reachable*
            # primary can push its outgoing buffer — a suspect one
            # (powered off, not yet declared dead) cannot, which is
            # exactly what makes its unshipped suffix losable.  A
            # wedged (read-only but reachable) primary still ships
            # before handing off, so that failover loses nothing.
            self._ship_pending()
        if primary is None or not primary.alive or primary.tree.read_only:
            # A dead primary's unshipped suffix died with it; promotion
            # truncates it (counted lost) before the new primary ships
            # the surviving history to lagging followers.
            self._promote(now)
            self._ship_pending()
        self._truncate_frames()

    def _probe(self, replica: Replica, now: float) -> None:
        self.stats.add(REPL_HEARTBEATS)
        if replica.powered_off:
            self.stats.add(REPL_HEARTBEAT_MISSES)
            if not replica.alive:
                return
            if replica.suspect_since_us is None:
                replica.suspect_since_us = now
                if replica.role == ROLE_PRIMARY \
                        and self._failure_observed_us is None:
                    self._failure_observed_us = now
            elif (now - replica.suspect_since_us
                    >= self.config.heartbeat_timeout_us):
                replica.alive = False
                self.stats.add(REPL_REPLICA_DEATHS)
            return
        replica.suspect_since_us = None
        replica.last_ok_us = now
        if not replica.alive:
            self._rejoin(replica)
        elif (replica.role == ROLE_FOLLOWER and replica.tree.read_only
                and not replica.crash_looping):
            # A wounded-but-reachable follower (torn WAL append, a
            # transient full disk) gets one restart; if the wound
            # reappears the replica is crash-looping and waits for
            # anti-entropy or an operator.
            self._restart(replica)
            if replica.tree.read_only:
                replica.crash_looping = True

    def _restart(self, replica: Replica) -> None:
        """Reopen a replica from its device (the process restarted).

        A restart models a process crash, so the old tree gets no
        shutdown: the device keeps exactly what was durable and
        recovery replays it.  The old facade is only marked closed so
        a stale reference cannot serve.  Recovery work
        (manifest replay, model reloads, WAL replay) charges the shared
        registry — restart cost is measured.
        """
        old = replica.tree
        replica.tree = LSMTree.reopen(self.options, old.device,
                                      stats=self.stats)
        replica.tree.deadline = self._deadline
        old._closed = True

    def _rejoin(self, replica: Replica) -> None:
        """A revived replica reopens, resyncs or replays, and returns."""
        self._restart(replica)
        replica.alive = True
        replica.crash_looping = False
        replica.suspect_since_us = None
        if replica.diverged:
            primary = self._primary()
            if primary is not None and primary.alive \
                    and primary.index != replica.index:
                self.stats.add(REPL_RESYNCS)
                self._copy_from(primary, replica)
            # Headless group: stay diverged until a primary exists.
            return
        self._replay_hints(replica)

    def _replay_hints(self, replica: Replica) -> None:
        """Apply the retained frame suffix a returning replica missed."""
        if replica.tree.read_only:
            replica.crash_looping = True
            return
        replayed = self._catch_up(replica)
        if replayed:
            self.stats.add(REPL_CATCHUP_FRAMES, replayed)
            self.stats.add(REPL_HINTS_REPLAYED, replayed)

    def _ship_pending(self) -> None:
        """Ship retained frames to every eligible lagging follower."""
        for replica in self.replicas:
            if self._ship_eligible(replica):
                self._catch_up(replica)

    def _catch_up(self, replica: Replica) -> int:
        """Ship the retained frames ``replica`` has not applied, in order.

        Stops at the first frame that fails to apply; returns how many
        shipped.
        """
        shipped = 0
        for lsn, ops in list(self._frames):
            if lsn <= replica.applied_lsn:
                continue
            if not self._ship_frame(replica, lsn, ops):
                break
            shipped += 1
        return shipped

    def _promote(self, now: float) -> None:
        """Fail over to the most-caught-up live follower, if any."""
        if self._failure_observed_us is None:
            self._failure_observed_us = now
        old = self._primary()
        best: Optional[Replica] = None
        for replica in self.replicas:
            if old is not None and replica.index == old.index:
                continue
            if (not replica.alive or replica.diverged
                    or replica.tree.read_only):
                continue
            if best is None or replica.applied_lsn > best.applied_lsn:
                best = replica
        if best is None:
            # Headless: reads may still serve from followers within the
            # staleness bound; writes stay refused until a tick finds a
            # promotable replica.
            self._primary_index = (None if old is None or not old.alive
                                   else self._primary_index)
            return
        # The unshipped suffix died with the old primary's outgoing
        # buffer.  Truncate it (and the LSN space) so the group's log
        # matches the new primary; under ASYNC these were acked — that
        # is precisely the durability gap the quorum policies close.
        lost = [frame for frame in self._frames if frame[0] > best.applied_lsn]
        if lost:
            self.stats.add(REPL_FRAMES_LOST, len(lost))
            self.stats.add(REPL_RECORDS_LOST,
                           sum(len(ops) for _, ops in lost))
            while self._frames and self._frames[-1][0] > best.applied_lsn:
                self._frames.pop()
        self._next_lsn = best.applied_lsn + 1
        if old is not None:
            old.role = ROLE_FOLLOWER
            if old.applied_lsn > best.applied_lsn:
                # The old primary applied frames the group just
                # disowned; hints cannot heal that — full resync.
                old.diverged = True
                old.applied_lsn = best.applied_lsn
            if old.alive and old.tree.read_only:
                # Demoted for a write wound; don't restart-loop it.
                old.crash_looping = True
        # Promotion reopens the follower manifest-driven, so the model
        # reload cost of the configured granularity is *measured*:
        # failover time = detection wait + real recovery work.
        before_us = self.stats.total_time()
        self._restart(best)
        recovery_us = self.stats.total_time() - before_us
        best.role = ROLE_PRIMARY
        self._primary_index = best.index
        failover_us = (now - self._failure_observed_us) + recovery_us
        self.registry.record_op(FAILOVER_OP, failover_us)
        self.stats.add(REPL_PROMOTIONS)
        self._failure_observed_us = None

    # -- anti-entropy --------------------------------------------------

    def anti_entropy(self) -> ScrubReport:
        """Scrub every live replica, then repair divergence off the primary.

        The scrub pass reuses the single-tree verify/rewrite/quarantine
        path per replica (media damage is local).  The diff pass then
        walks each live follower against the primary's live entries and
        rewrites what differs — the repair story for a replica whose
        medium healed after its hints were truncated.
        """
        self._check_open()
        self.stats.add(REPL_ANTIENTROPY_RUNS)
        report = self.scrub()
        primary = self._primary()
        if primary is None or not primary.alive:
            return report
        for replica in self.replicas:
            if replica.index == primary.index or not replica.alive:
                continue
            self._copy_from(primary, replica)
        self._truncate_frames()
        return report

    def _copy_from(self, source: Replica, target: Replica) -> None:
        """Make ``target`` byte-equivalent to ``source``'s live view."""
        if target.tree.read_only:
            # A wedged tree cannot take repairs; restart it first (a
            # healed device clears the wound, a bad one re-wounds).
            self._restart(target)
            if target.tree.read_only:
                target.crash_looping = True
                return
        want = dict(source.tree.scan(_MIN_KEY,
                                     source.tree.entry_count() + 1))
        have = dict(target.tree.scan(_MIN_KEY,
                                     target.tree.entry_count() + 1))
        repaired = 0
        try:
            for key in sorted(want):
                if have.get(key) != want[key]:
                    target.tree.put(key, want[key])
                    repaired += 1
            for key in sorted(set(have) - set(want)):
                target.tree.delete(key)
                repaired += 1
        except (ReadOnlyModeError, PowerCutError):
            if target.powered_off:
                self._observe_failure(target)
            else:
                target.crash_looping = True
            return
        if repaired:
            self.stats.add(REPL_ANTIENTROPY_REPAIRED, repaired)
        target.applied_lsn = self.last_lsn()
        target.diverged = False
        target.crash_looping = False

    # -- maintenance / introspection (facade parity) -------------------

    def flush(self) -> None:
        """Flush every live, writable replica's memtable."""
        self._check_open()
        for replica in self.replicas:
            if replica.alive and not replica.tree.read_only:
                replica.tree.flush()

    def maybe_compact(self) -> None:
        """Run due compactions on every live replica."""
        self._check_open()
        for replica in self.replicas:
            if replica.alive and not replica.tree.read_only:
                replica.tree.maybe_compact()

    def checkpoint(self) -> Dict[str, float]:
        """Checkpoint every live, writable replica; summed summary."""
        self._check_open()
        total: Dict[str, float] = {}
        for replica in self.replicas:
            if replica.alive and not replica.tree.read_only:
                for name, value in replica.tree.checkpoint().items():
                    total[name] = total.get(name, 0.0) + value
        return total

    def scrub(self) -> ScrubReport:
        """Scrub every live replica (merged report; no diff repair)."""
        self._check_open()
        report = ScrubReport()
        for replica in self.replicas:
            if replica.alive:
                report.merge(replica.tree.scrub())
        return report

    def bulk_ingest(self, keys, value_for=None, seed: int = 0) -> None:
        """Identically fill every replica (offline benchmark load);
        ``value_for`` must be pure (see
        :meth:`~repro.lsm.db.LSMTree.bulk_ingest`)."""
        self.check_ingest(keys, value_for)
        self._ingest(keys, value_for, seed)

    def _ingest(self, keys, value_for, seed: int) -> None:
        """:meth:`bulk_ingest` for input already through
        :meth:`check_ingest`."""
        for replica in self.replicas:
            replica.tree._ingest(keys, value_for, seed)

    def check_ingest(self, keys, value_for=None) -> None:
        """Raise what :meth:`bulk_ingest` would refuse ``keys`` and
        ``value_for`` with, before any replica loads."""
        self._check_open()
        # Replicas share ``options``, so one of them checks the keys and
        # values; the others only that they are open and empty.
        for number, replica in enumerate(self.replicas):
            replica.tree.check_ingest(() if number else keys,
                                      None if number else value_for)

    def entry_count(self) -> int:
        """Entries in the serving replica's view (0 when headless)."""
        try:
            return self._serve_read(lambda tree: tree.entry_count())
        except ReplicaUnavailableError:
            return 0

    def memory_breakdown(self) -> Dict[str, int]:
        """Bytes per in-memory component across *all* replicas."""
        total: Dict[str, int] = {}
        for replica in self.replicas:
            for component, nbytes in \
                    replica.tree.memory_breakdown().items():
                total[component] = total.get(component, 0) + nbytes
        return total

    def describe_levels(self) -> List[Dict[str, float]]:
        """Level shape of the serving replica."""
        return self._serve_read(lambda tree: tree.describe_levels())

    def health(self) -> Dict[str, object]:
        """Serving-replica health plus per-replica roles and lag."""
        try:
            base = self._serve_read(lambda tree: tree.health())
        except ReplicaUnavailableError:
            base = {"status": "down",
                    "reason": "every replica dead or out of staleness "
                              "bound",
                    "quarantined_blocks": 0, "quarantined_tables": 0}
        if self.read_only and base["status"] == "ok":
            # A headless-for-writes group is degraded even when the
            # serving replica itself is clean.
            base["status"] = "read_only"
            base["reason"] = self.read_only_reason
        base["replication"] = {
            "primary": self._primary_index,
            "replicas": [{
                "replica": replica.index,
                "role": replica.role,
                "alive": replica.alive,
                "lag_frames": self.lag_frames(replica),
                "diverged": replica.diverged,
            } for replica in self.replicas],
        }
        return base

    def close(self) -> None:
        """Close every replica's tree, mark the group closed.

        Closing touches no device, so a powered-off replica closes
        like any other; its tables stay for a later restart.
        """
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas:
            replica.tree.close()
