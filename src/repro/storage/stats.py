"""Counters and simulated-time accounting shared by the whole system.

The paper reports two kinds of numbers for every experiment: *latencies*
(broken down into table lookup, model prediction, disk I/O and in-segment
binary search — its Figure 7 and Table 1) and *resource counters* (blocks
read, bytes moved during compaction, index memory).  This module provides
the single registry both kinds flow through.

Real wall-clock time in Python would be dominated by interpreter overhead
and would not preserve the paper's C++ ratios, so latency here is
*simulated*: components charge microseconds computed by
:class:`repro.storage.cost_model.CostModel` into a :class:`Stats` object
under a :class:`Stage` label.  The result is deterministic, reproducible
and — because the constants are calibrated against the paper's own
Table 1 — shape-preserving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple


class Stage(str, enum.Enum):
    """Labels for the simulated-time breakdown.

    The first four stages are exactly the four rows of the paper's
    Table 1; the remaining stages cover writes, compaction and range
    scans so that Figure 9's compaction breakdown can be reported from
    the same registry.
    """

    #: Locating the SSTable that may hold the key (version walk + bloom).
    TABLE_LOOKUP = "table_lookup"
    #: Inner-index access plus model evaluation ("Prediction" in Table 1).
    PREDICTION = "prediction"
    #: Block reads performed with the simulated ``pread``.
    IO = "io"
    #: Binary search inside the fetched segment.
    SEARCH = "search"
    #: Memtable / WAL work on the write path.
    WRITE_PATH = "write_path"
    #: Compaction: reading input key-value blocks.
    COMPACT_READ = "compact_read"
    #: Compaction: merging (decode, compare, re-encode).
    COMPACT_MERGE = "compact_merge"
    #: Compaction: writing output key-value blocks.
    COMPACT_WRITE = "compact_write"
    #: Compaction: training the learned index ("Learn" in Figure 9 B).
    COMPACT_TRAIN = "compact_train"
    #: Compaction: serialising and writing the model ("Write Model").
    COMPACT_WRITE_MODEL = "compact_write_model"
    #: Sequential scan work beyond the initial seek (range lookups).
    SCAN = "scan"
    #: Decompressing stored data blocks on the read path.
    DECOMPRESS = "decompress"
    #: Compaction/flush: compressing output data blocks.
    COMPACT_COMPRESS = "compact_compress"
    #: Cold-open work: manifest replay, table footer/index/bloom loads,
    #: model sidecar reads.  Deliberately outside READ_STAGES and
    #: COMPACTION_STAGES — restart cost is its own axis (the recovery
    #: experiment reads it directly).
    RECOVERY = "recovery"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Stages that make up a point/range lookup (used for per-op latency).
READ_STAGES: Tuple[Stage, ...] = (
    Stage.TABLE_LOOKUP,
    Stage.PREDICTION,
    Stage.IO,
    Stage.SEARCH,
    Stage.SCAN,
    Stage.DECOMPRESS,
)

_TABLE_LOOKUP, _PREDICTION, _IO, _SEARCH, _SCAN, _DECOMPRESS = READ_STAGES

#: Stages that make up a compaction (Figure 9's breakdown).
COMPACTION_STAGES: Tuple[Stage, ...] = (
    Stage.COMPACT_READ,
    Stage.COMPACT_MERGE,
    Stage.COMPACT_WRITE,
    Stage.COMPACT_TRAIN,
    Stage.COMPACT_WRITE_MODEL,
    Stage.COMPACT_COMPRESS,
)


@dataclass
class Stats:
    """A registry of named counters plus per-stage simulated time.

    ``counters`` hold raw event counts (blocks read, bloom probes,
    segments fetched, ...).  ``stage_us`` holds simulated microseconds
    per :class:`Stage`.  Both are plain dictionaries so snapshots and
    diffs are cheap; experiments snapshot around each operation to get
    per-operation latency.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    stage_us: Dict[Stage, float] = field(default_factory=dict)
    #: Optional :class:`repro.obs.trace.Tracer` observing this registry.
    #: Pure observation: the tracer receives every charge/add event but
    #: never writes back, so totals are byte-identical with or without
    #: it.  Excluded from equality so traced and untraced registries
    #: holding the same totals still compare equal.
    tracer: Optional[object] = field(default=None, repr=False, compare=False)

    # -- counters ------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount
        if self.tracer is not None:
            self.tracer.on_count(name, amount)

    def get(self, name: str) -> float:
        """Return counter ``name`` (0.0 when never incremented)."""
        return self.counters.get(name, 0.0)

    # -- simulated time ------------------------------------------------

    def charge(self, stage: Stage, us: float) -> None:
        """Add ``us`` simulated microseconds to ``stage``."""
        if us < 0:
            raise ValueError(f"negative time charge: {us}")
        self.stage_us[stage] = self.stage_us.get(stage, 0.0) + us
        if self.tracer is not None:
            self.tracer.on_charge(stage, us)

    def charge_each(self, stage: Stage, us: float, n: int) -> None:
        """:meth:`charge` ``us`` to ``stage`` ``n`` times in a row: the
        same additions in the same order, so the same floats, in one
        call (the tracer still sees ``n`` charges)."""
        if us < 0:
            raise ValueError(f"negative time charge: {us}")
        if n <= 0:
            return
        total = self.stage_us.get(stage, 0.0)
        for _ in range(n):
            total += us
        self.stage_us[stage] = total
        tracer = self.tracer
        if tracer is not None:
            for _ in range(n):
                tracer.on_charge(stage, us)

    # -- tracing hooks -------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Route every subsequent charge/add event into ``tracer``."""
        self.tracer = tracer

    def stage_time(self, stage: Stage) -> float:
        """Simulated microseconds accumulated under ``stage``."""
        return self.stage_us.get(stage, 0.0)

    def total_time(self) -> float:
        """Simulated microseconds across all stages."""
        return sum(self.stage_us.values())

    def read_time(self) -> float:
        """Simulated microseconds across the read-path stages.

        The level walk takes one reading per level per lookup, so this
        is ``sum`` over :data:`READ_STAGES` unrolled — same operands,
        same left-to-right order, hence the same float to the last bit.
        """
        get = self.stage_us.get
        return (get(_TABLE_LOOKUP, 0.0) + get(_PREDICTION, 0.0)
                + get(_IO, 0.0) + get(_SEARCH, 0.0) + get(_SCAN, 0.0)
                + get(_DECOMPRESS, 0.0))

    def cache_hit_rate(self) -> float:
        """Block-cache hit fraction (0.0 when no cached reads happened)."""
        hits = self.counters.get(CACHE_HITS, 0.0)
        misses = self.counters.get(CACHE_MISSES, 0.0)
        total = hits + misses
        return hits / total if total else 0.0

    def data_cache_hit_rate(self) -> float:
        """Decompressed-block cache hit fraction (0.0 when unused)."""
        hits = self.counters.get(DATA_CACHE_HITS, 0.0)
        misses = self.counters.get(DATA_CACHE_MISSES, 0.0)
        total = hits + misses
        return hits / total if total else 0.0

    def compression_ratio(self) -> float:
        """Raw-over-stored ratio of data blocks written (1.0 when none)."""
        raw = self.counters.get(COMPRESS_BYTES_RAW, 0.0)
        stored = self.counters.get(COMPRESS_BYTES_STORED, 0.0)
        return raw / stored if stored else 1.0

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> "StatsSnapshot":
        """Capture the current totals for later :meth:`StatsSnapshot.delta`."""
        return StatsSnapshot(dict(self.counters), dict(self.stage_us))

    def merge(self, other: "Stats") -> None:
        """Fold ``other``'s totals into this registry."""
        for name, amount in other.counters.items():
            self.add(name, amount)
        for stage, us in other.stage_us.items():
            self.charge(stage, us)

    def reset(self) -> None:
        """Zero every counter and stage time."""
        self.counters.clear()
        self.stage_us.clear()

    # -- reporting -----------------------------------------------------

    def breakdown(self) -> Mapping[str, float]:
        """Return ``{stage name: simulated us}`` for human-readable reports."""
        return {stage.value: us for stage, us in sorted(
            self.stage_us.items(), key=lambda item: item[0].value)}

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self.counters.items()))


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable capture of a :class:`Stats` registry.

    ``delta`` between two snapshots (or a snapshot and the live registry)
    yields the counters and time spent inside a window — this is how the
    harness attributes cost to individual operations.
    """

    counters: Mapping[str, float]
    stage_us: Mapping[Stage, float]

    def delta(self, later: "Stats | StatsSnapshot") -> "StatsDelta":
        """Return the change from this snapshot to ``later``."""
        counters = {
            name: amount - self.counters.get(name, 0.0)
            for name, amount in later.counters.items()
            if amount != self.counters.get(name, 0.0)
        }
        stage_us = {
            stage: us - self.stage_us.get(stage, 0.0)
            for stage, us in later.stage_us.items()
            if us != self.stage_us.get(stage, 0.0)
        }
        return StatsDelta(counters, stage_us)


@dataclass(frozen=True)
class StatsDelta:
    """Counters and per-stage time accumulated inside a window."""

    counters: Mapping[str, float]
    stage_us: Mapping[Stage, float]

    def stage_time(self, stage: Stage) -> float:
        """Simulated microseconds spent in ``stage`` inside the window."""
        return self.stage_us.get(stage, 0.0)

    def total_time(self) -> float:
        """Simulated microseconds across all stages inside the window."""
        return sum(self.stage_us.values())

    def read_time(self) -> float:
        """Simulated microseconds across the read-path stages."""
        return sum(self.stage_us.get(stage, 0.0) for stage in READ_STAGES)

    def counter(self, name: str) -> float:
        """Counter change inside the window (0.0 when untouched)."""
        return self.counters.get(name, 0.0)


# Canonical counter names, collected here so call sites and tests agree.
BLOCKS_READ = "io.blocks_read"
BLOCKS_WRITTEN = "io.blocks_written"
BYTES_READ = "io.bytes_read"
BYTES_WRITTEN = "io.bytes_written"
READ_CALLS = "io.read_calls"
WRITE_CALLS = "io.write_calls"
SEEKS = "io.seeks"
SEGMENTS_FETCHED = "lookup.segments_fetched"
BLOOM_PROBES = "lookup.bloom_probes"
BLOOM_NEGATIVES = "lookup.bloom_negatives"
BLOOM_FALSE_POSITIVES = "lookup.bloom_false_positives"
POINT_LOOKUPS = "op.point_lookups"
RANGE_LOOKUPS = "op.range_lookups"
MULTIGET_BATCHES = "multiget.batches"
MULTIGET_KEYS = "multiget.keys"
MULTIGET_COALESCED = "multiget.segments_coalesced"
MULTIGET_SEEKS_SAVED = "multiget.seeks_saved"
UPDATES = "op.updates"
BATCH_WRITES = "op.batch_writes"
FLUSHES = "op.flushes"
COMPACTIONS = "op.compactions"
WAL_GROUP_COMMITS = "wal.group_commits"
WAL_RECORDS_APPENDED = "wal.records_appended"
CACHE_HITS = "cache.block_hits"
CACHE_MISSES = "cache.block_misses"
CACHE_EVICTIONS = "cache.block_evictions"
DATA_CACHE_HITS = "cache.data_hits"
DATA_CACHE_MISSES = "cache.data_misses"
DATA_CACHE_EVICTIONS = "cache.data_evictions"
COMPRESS_BYTES_RAW = "compress.bytes_raw"
COMPRESS_BYTES_STORED = "compress.bytes_stored"
DECOMPRESS_BYTES = "compress.bytes_decompressed"
CHECKSUM_FAILURES = "block.checksum_failures"
BLOCKS_VERIFIED = "block.checksums_verified"
COMPACT_BYTES_IN = "compaction.bytes_in"
COMPACT_BYTES_OUT = "compaction.bytes_out"
TRAIN_KEY_VISITS = "train.key_visits"
MODEL_BYTES_WRITTEN = "train.model_bytes_written"
MANIFEST_EDITS = "manifest.edits_appended"
MANIFEST_EDITS_REPLAYED = "manifest.edits_replayed"
MANIFEST_SNAPSHOTS = "manifest.snapshots_written"
MANIFEST_TORN_TAILS = "manifest.torn_tails"
MODELS_PERSISTED = "persist.models_written"
MODELS_LOADED = "persist.models_loaded"
MODEL_BYTES_PERSISTED = "persist.model_bytes_written"
RECOVERY_MANIFEST_OPENS = "recovery.manifest_opens"
RECOVERY_FILES_GCED = "recovery.files_gced"
RECOVERY_TORN_TABLES = "recovery.torn_tables_quarantined"
FAULTS_INJECTED = "fault.injected"
FAULT_TRANSIENT_READS = "fault.transient_reads"
FAULT_BIT_ROT_BLOCKS = "fault.bit_rot_blocks"
FAULT_TORN_APPENDS = "fault.torn_appends"
FAULT_DISK_FULL = "fault.disk_full"
FAULT_POWER_CUTS = "fault.power_cuts"
RETRY_ATTEMPTS = "retry.attempts"
RETRY_SUCCESSES = "retry.successes"
RETRY_EXHAUSTED = "retry.exhausted"
QUARANTINED_BLOCKS = "quarantine.blocks"
QUARANTINED_TABLES = "quarantine.tables"
DEGRADED_ENTRIES = "degraded.entered"
DEGRADED_WRITES_REJECTED = "degraded.writes_rejected"
OVERLOAD_REQUESTS = "overload.requests"
OVERLOAD_ADMITTED = "overload.admitted"
OVERLOAD_SHED = "overload.shed"
OVERLOAD_EXPIRED_AT_DEQUEUE = "overload.expired_at_dequeue"
OVERLOAD_DEADLINE_EXCEEDED = "overload.deadline_exceeded"
OVERLOAD_COMPLETED = "overload.completed"
OVERLOAD_COMPLETED_LATE = "overload.completed_late"
OVERLOAD_FAILED = "overload.failed"
QUEUE_ENQUEUES = "queue.enqueues"
QUEUE_DELAY_US = "queue.delay_us"
BREAKER_OPENS = "breaker.opens"
BREAKER_HALF_OPENS = "breaker.half_opens"
BREAKER_CLOSES = "breaker.closes"
BREAKER_REJECTED = "breaker.rejected"
RETRY_CLIENT_RESUBMITS = "retry.client_resubmits"
RETRY_BUDGET_SPENT = "retry.budget_spent"
RETRY_BUDGET_DENIED = "retry.budget_denied"
REPL_FRAMES_SHIPPED = "repl.frames_shipped"
REPL_RECORDS_SHIPPED = "repl.records_shipped"
REPL_WRITES_ACKED = "repl.writes_acked"
REPL_WRITES_REJECTED = "repl.writes_rejected"
REPL_HINTS_QUEUED = "repl.hints_queued"
REPL_HINTS_REPLAYED = "repl.hints_replayed"
REPL_BACKPRESSURE = "repl.hint_backpressure"
REPL_HEARTBEATS = "repl.heartbeats"
REPL_HEARTBEAT_MISSES = "repl.heartbeat_misses"
REPL_REPLICA_DEATHS = "repl.replica_deaths"
REPL_PROMOTIONS = "repl.promotions"
REPL_CATCHUP_FRAMES = "repl.catchup_frames"
REPL_STALE_READS = "repl.follower_reads"
REPL_FRAMES_LOST = "repl.frames_lost"
REPL_RECORDS_LOST = "repl.records_lost"
REPL_RESYNCS = "repl.resyncs"
REPL_ANTIENTROPY_RUNS = "repl.antientropy_runs"
REPL_ANTIENTROPY_REPAIRED = "repl.antientropy_repaired"
SCRUB_TABLES_CHECKED = "scrub.tables_checked"
SCRUB_BLOCKS_CHECKED = "scrub.blocks_checked"
SCRUB_BLOCKS_BAD = "scrub.blocks_bad"
SCRUB_TABLES_REWRITTEN = "scrub.tables_rewritten"
SCRUB_TABLES_QUARANTINED = "scrub.tables_quarantined"
SCRUB_ENTRIES_LOST = "scrub.entries_lost"


def _registered_counter_names() -> FrozenSet[str]:
    """Every dotted counter-name constant defined in this module."""
    return frozenset(
        value for key, value in globals().items()
        if key.isupper() and not key.startswith("_")
        and isinstance(value, str) and "." in value)


#: The closed set of counter series the system may charge.  Call sites
#: import the constants above, so a typo'd name cannot exist in code
#: that uses them — and ``tests/test_stats.py`` runs a full workload
#: and asserts every counter charged at runtime is in this set, so a
#: stringly-typed charge sneaking in elsewhere fails CI instead of
#: silently creating a new series.
ALL_COUNTERS: FrozenSet[str] = _registered_counter_names()
