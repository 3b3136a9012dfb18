"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Subclasses mirror the major
subsystems: storage, the LSM-tree engine, learned indexes and the
benchmark harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """A block-device level failure (unknown file, bad offset, ...)."""


class FileNotFoundInDeviceError(StorageError):
    """Raised when opening or reading a file that the device does not hold."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no such file in block device: {name!r}")
        self.name = name


class CorruptionError(ReproError):
    """Raised when on-disk data fails a checksum or structural check."""


class ChecksumError(CorruptionError):
    """A checksum mismatch (or undecodable payload) in one table region.

    Carries enough context to name the damage: the file, the region
    (``header``, ``data``, ``block_index``, ``index``, ``bloom`` or
    ``footer``) and — for data blocks — the block number, so operators
    and tests can tell a poisoned block from a destroyed table.
    """

    def __init__(self, file: str, region: str, *, block: int = -1,
                 detail: str = "") -> None:
        where = f"{file}: {region}"
        if block >= 0:
            where += f" block {block}"
        message = f"checksum mismatch in {where}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.file = file
        self.region = region
        self.block = block


class TransientIOError(StorageError):
    """A read failed for a reason that a bounded retry may cure.

    Injected by :class:`repro.storage.faults.FaultyBlockDevice` to model
    the flaky-but-recoverable class of device errors (bus resets, SCSI
    timeouts).  Call sites wrap reads in a
    :class:`repro.storage.retry.RetryPolicy`; only when the policy is
    exhausted does the error escape to the caller.
    """


class DiskFullError(StorageError):
    """An append failed because the device ran out of space.

    The bytes that fit were written (a torn tail); the engine responds
    by entering read-only degraded mode — reads keep working, writes
    raise :class:`ReadOnlyModeError` until an operator intervenes.
    """


class PowerCutError(StorageError):
    """The simulated machine lost power; the device is gone until revived.

    After a power cut every operation on the faulty device raises this
    error.  Tests call ``FaultyBlockDevice.revive()`` and reopen the
    database to model the post-crash restart.
    """


class ReadOnlyModeError(ReproError):
    """A write was rejected because the database is in degraded mode.

    Raised by ``put``/``delete``/``write`` after the engine saw a
    :class:`DiskFullError` or a WAL-append failure.  ``reason`` names
    the triggering condition; reads remain fully available.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"database is read-only (degraded): {reason}")
        self.reason = reason


class QuarantinedBlockError(ChecksumError):
    """A lookup touched a data block that failed its checksum.

    Once a block fails CRC verification it is quarantined: evicted from
    both cache tiers, never re-admitted, and every later read that needs
    it fails fast with this error instead of re-reading poison.  Other
    blocks of the same table keep serving.  ``scrub()`` is the repair
    path.

    Subclasses :class:`ChecksumError` (region ``"data"``) because the
    root cause is a checksum failure — callers catching the broad class
    see quarantined reads too, while the narrow type tells the first
    failure from the fail-fast replays.
    """

    def __init__(self, file: str, block: int) -> None:
        CorruptionError.__init__(
            self,
            f"{file}: block {block} is quarantined after a checksum failure")
        self.file = file
        self.region = "data"
        self.block = block


class RequestRejectedError(ReproError):
    """Base class for overload-control rejections at the serving tier.

    These are *flow-control* outcomes, not corruption or crashes: the
    request gateway refused (or abandoned) work to protect latency for
    everything else.  Clients distinguish them from storage faults
    because the right reaction differs — back off, don't retry hot.
    """


class DeadlineExceededError(RequestRejectedError):
    """A request ran out of its simulated-microsecond deadline.

    Raised by the gateway when a queued request expires before service
    starts (expired-at-dequeue) and by the LSM read path's deadline
    checkpoints when an executing lookup's accumulated simulated time
    crosses the budget mid-operation.  ``deadline_us`` is the absolute
    simulated deadline; ``now_us`` is where the clock stood when the
    request was abandoned.
    """

    def __init__(self, deadline_us: float, now_us: float,
                 where: str = "") -> None:
        suffix = f" in {where}" if where else ""
        super().__init__(
            f"deadline exceeded{suffix}: now={now_us:.1f}us > "
            f"deadline={deadline_us:.1f}us")
        self.deadline_us = deadline_us
        self.now_us = now_us
        self.where = where


class ShedError(RequestRejectedError):
    """Admission control dropped a request because a queue was full.

    Depth-based shedding: when a shard's bounded FIFO already holds
    ``queue_depth`` requests, new arrivals are rejected immediately
    instead of queueing unboundedly — bounded queues are what keep p99
    finite under overload.  ``shard`` names the saturated queue and
    ``depth`` its configured bound.
    """

    def __init__(self, shard: int, depth: int) -> None:
        super().__init__(
            f"shard {shard} queue full (depth {depth}); request shed")
        self.shard = shard
        self.depth = depth


class CircuitOpenError(RequestRejectedError):
    """A request was failed fast by an open per-shard circuit breaker.

    The breaker opened because the shard's recent error rate crossed
    the threshold (or its ``health()`` degraded to read-only); until
    the cooldown elapses and half-open probes succeed, requests fail
    here — in microseconds — instead of queueing behind a sick shard.
    """

    def __init__(self, shard: int, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"shard {shard} circuit breaker is open{detail}")
        self.shard = shard
        self.reason = reason


class ReplicationError(ReproError):
    """Base class for replication-layer failures.

    These are *replication-protocol* outcomes — a write could not reach
    enough replicas, or a hint queue overflowed — distinct from storage
    faults (the device is fine) and from overload rejections (the
    gateway admitted the request; the replica group refused it).
    """


class QuorumLostError(ReplicationError):
    """A write could not be acknowledged by enough replicas.

    Raised under the ``QUORUM``/``ALL`` ack policies when the number of
    live replicas that durably applied the frame is below the policy's
    requirement.  The write *is not* acked: depending on which replicas
    applied it before the failure it may survive or vanish, exactly like
    an in-doubt write in a real quorum system.  ``acked`` and
    ``needed`` report how far the frame got.
    """

    def __init__(self, shard: int, acked: int, needed: int) -> None:
        super().__init__(
            f"shard {shard}: write reached {acked}/{needed} replicas "
            f"required for acknowledgement")
        self.shard = shard
        self.acked = acked
        self.needed = needed


class HintQueueFullError(ReplicationError):
    """Hinted handoff ran out of buffer space for a dead replica.

    The primary retains a bounded suffix of the shipped log for each
    dead follower; when that queue is full the group applies
    backpressure by rejecting new writes *before* the primary applies
    them, so a rejected write is all-or-nothing across the group.
    """

    def __init__(self, shard: int, replica: int, limit: int) -> None:
        super().__init__(
            f"shard {shard}: hint queue for replica {replica} is full "
            f"({limit} frames); write rejected (backpressure)")
        self.shard = shard
        self.replica = replica
        self.limit = limit


class ReplicaUnavailableError(ReplicationError):
    """No live replica can serve the request.

    Raised when every replica of a group is dead (reads), or when a
    bounded-staleness follower read finds no follower within the lag
    bound and the primary is gone too.
    """

    def __init__(self, shard: int, detail: str = "") -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(f"shard {shard}: no replica available{suffix}")
        self.shard = shard


class IndexBuildError(ReproError):
    """Raised when a learned index cannot be constructed over the given keys."""


class IndexLookupError(ReproError):
    """Raised when an index is queried before it has been built."""


class InvalidOptionError(ReproError):
    """Raised when :class:`repro.lsm.options.Options` are inconsistent."""


class DatabaseClosedError(ReproError):
    """Raised when an operation is attempted on a closed database."""


class WorkloadError(ReproError):
    """Raised when a workload specification is invalid."""


class BenchmarkError(ReproError):
    """Raised when an experiment is configured inconsistently."""
