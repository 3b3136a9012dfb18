"""The LSM-tree database: LevelDB semantics over the simulated device.

:class:`LSMTree` wires every substrate together: a sorted-array memtable
(+ optional WAL), L0 flushes, leveling compaction with partial merges,
bloom filters, and — the point of the paper — pluggable per-table or
per-level learned indexes configured by :class:`~repro.lsm.options.Options`.

The read path follows the paper's Figure 1 (C):

1. memtable probe;
2. level by level: locate the candidate table (TABLE_LOOKUP), probe its
   bloom filter, ask the learned index for a position bound
   (PREDICTION), ``pread`` that segment (IO), binary-search it (SEARCH).

Per-level read time and memory are tracked so Figure 10's level
breakdown is a direct read-out.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    DatabaseClosedError,
    DeadlineExceededError,
    DiskFullError,
    InvalidOptionError,
    PowerCutError,
    QuarantinedBlockError,
    ReadOnlyModeError,
    ReproError,
    StorageError,
)
from repro.lsm.deadline import DeadlineToken
from repro.lsm.bloom import key_hashes
from repro.lsm.compaction import CompactionOutcome, Compactor
from repro.lsm.iterators import (
    DBIterator,
    KVIterator,
    MemTableIterator,
)
from repro.lsm.level_index import LevelModelManager
from repro.lsm.memtable import MemTable
from repro.lsm.options import CompactionPolicy, Granularity, Options
from repro.lsm.record import (
    KIND_TOMBSTONE,
    KIND_VALUE,
    MAX_KEY,
    Record,
    encode_entries,
    encode_records,
    make_tombstone,
    make_value,
)
from repro.lsm.sstable import Table, TableBuilder, TableIterator
from repro.lsm.version import FileMetaData, Version
from repro.lsm.wal import WriteAheadLog
from repro.lsm.write_batch import WriteBatch
from repro.errors import CorruptionError
from repro.indexes.registry import deserialize_index
from repro.persist.manifest import (
    MANIFEST_TMP_NAME,
    Manifest,
    VersionEdit,
)
from repro.obs.trace import OpType
from repro.persist.models import MODEL_FILE_PREFIX, ModelStore
from repro.storage.block_cache import CachedBlockDevice, DataBlockCache
from repro.storage.block_device import BlockDevice, MemoryBlockDevice
from repro.storage.stats import (
    BATCH_WRITES,
    BLOOM_FALSE_POSITIVES,
    BLOOM_NEGATIVES,
    BLOOM_PROBES,
    DEGRADED_ENTRIES,
    DEGRADED_WRITES_REJECTED,
    FLUSHES,
    MULTIGET_BATCHES,
    MULTIGET_KEYS,
    OVERLOAD_DEADLINE_EXCEEDED,
    POINT_LOOKUPS,
    QUARANTINED_TABLES,
    RANGE_LOOKUPS,
    RECOVERY_FILES_GCED,
    RECOVERY_MANIFEST_OPENS,
    RECOVERY_TORN_TABLES,
    UPDATES,
    Stage,
    Stats,
)

_TABLE_LOOKUP = Stage.TABLE_LOOKUP  # one global read, not an enum lookup
#: Device-name prefix of quarantined tables.  The manifest garbage
#: collector only touches ``sst-*`` / ``mdl-*`` files, so quarantined
#: originals survive reopens until an operator removes them.
QUARANTINE_PREFIX = "quar-"
#: ``key -> key_hashes(key)`` of a batch: one mix per key per batch.
_Hashes = Dict[int, Tuple[int, int]]


class LSMTree:
    """A single-threaded, deterministic LevelDB-style key-value store."""

    def __init__(self, options: Optional[Options] = None,
                 device: Optional[BlockDevice] = None,
                 tracer=None, stats: Optional[Stats] = None) -> None:
        self.options = options if options is not None else Options()
        self.options.validate()
        # ``stats`` injection lets a replica group share one registry
        # across R trees, so deadline metering and gateway service-time
        # deltas see a single simulated timeline for the whole group.
        self.stats = stats if stats is not None else Stats()
        if tracer is not None:
            # Attached before any substrate touches the registry, so
            # construction-time work (WAL replay in particular) is
            # already visible to an enclosing recovery span.
            self.stats.attach_tracer(tracer)
        if device is None:
            device = MemoryBlockDevice(block_size=self.options.block_size,
                                       stats=self.stats)
        # ``cache_bytes`` is authoritative: an already-wrapped device
        # (reopen paths hand back the old one) is unwrapped when the
        # capacity changed, so stale cache configurations never survive
        # a reopen; an unchanged capacity keeps the warm cache.
        if (isinstance(device, CachedBlockDevice)
                and device.cache.capacity_bytes != self.options.cache_bytes):
            device = device.inner
        if (self.options.cache_bytes > 0
                and not isinstance(device, CachedBlockDevice)):
            device = CachedBlockDevice(device, self.options.cache_bytes)
        device.stats = self.stats
        self.device = device
        # Second cache tier: decompressed data blocks.
        self.data_cache: Optional[DataBlockCache] = (
            DataBlockCache(self.options.data_cache_bytes)
            if self.options.data_cache_bytes > 0 else None)
        self.cost = self.options.cost_model
        self.index_factory = self.options.make_index_factory()
        self.manifest = Manifest(self.device, stats=self.stats,
                                 cost=self.cost)
        self.level_models: Optional[LevelModelManager] = None
        if self.options.granularity is Granularity.LEVEL:
            self.level_models = LevelModelManager(
                self.index_factory, self.stats, self.cost,
                ModelStore(self.device, stats=self.stats, cost=self.cost))
        self.version = Version(
            max_levels=self.options.max_levels,
            overlapping_levels=(self.options.compaction_policy
                                is CompactionPolicy.TIERING))
        self.memtable = MemTable(self.options.entry_bytes)
        # Counters must exist before WAL replay: _replay_wal advances
        # _seq past the highest surviving record, and that value must
        # not be clobbered afterwards or a post-recovery write could be
        # shadowed by an older WAL record with a higher sequence.
        self._seq = 0
        self._file_counter = 0
        self._closed = False
        #: Degraded mode: None = healthy, else the reason writes are
        #: rejected.  Reads keep working; see :meth:`health`.
        self._read_only_reason: Optional[str] = None
        #: Cooperative cancellation: the gateway attaches a
        #: :class:`~repro.lsm.deadline.DeadlineToken` here around one
        #: operation; the read path checks it per level and abandons
        #: work past the budget.  None (the default) costs nothing.
        self.deadline: Optional[DeadlineToken] = None
        #: Names of tables retired as unreadable by scrub or reopen
        #: (renamed to a ``quar-`` prefix for offline forensics), and
        #: those a reopen finds left by an earlier session.
        self._quarantined_tables: List[str] = []
        #: Level -> sorted keys placed there by the last bulk_ingest
        #: (for level-aware query mixes, the paper's Figure 10).
        self.last_ingest_levels: Dict[int, List[int]] = {}
        self.wal: Optional[WriteAheadLog] = None
        if self.options.enable_wal:
            self.wal = WriteAheadLog(self.device)
            self._replay_wal()
        self._level_read_us: Dict[int, float] = {}
        self._level_read_ops: Dict[int, int] = {}
        #: ``cost.binary_search_us`` by file count: the file-range charge
        #: of a level only changes when a version edit does.
        self._file_range_us: Dict[int, float] = {}
        self.compactor = Compactor(self)

    # -- recovery ----------------------------------------------------------

    @classmethod
    def reopen(cls, options: Options, device: BlockDevice, *,
               stats: Optional[Stats] = None) -> "LSMTree":
        """Rebuild a database from the files on ``device``.

        Replays the manifest's version-edit log, opens exactly the
        tables it names, restores the sequence/file counters it
        recorded and deserializes the level models from their ``mdl-*``
        sidecars; a level whose sidecar is missing or corrupt retrains.
        A committed table that cannot open (a torn or rotted footer,
        header, block index, learned index or bloom) is quarantined
        instead of aborting the reopen: a committed edit drops it, and
        the tree comes up ``degraded`` without that table's keys.  A
        table the manifest names but the device lacks still raises
        :class:`~repro.errors.CorruptionError` — that is rot in the
        manifest itself.  A device without a manifest opens empty.
        Files no commit names (a crash's uncommitted outputs,
        superseded sidecars) are garbage-collected, and when a WAL is
        enabled its surviving records land back in the memtable.
        """
        db = cls(options, device=device, stats=stats)
        db.recover()
        return db

    def recover(self) -> None:
        """Load the tables the manifest names (:meth:`reopen`'s second
        half)."""
        state = self.manifest.replay()
        self.stats.add(RECOVERY_MANIFEST_OPENS)
        edit = VersionEdit(kind="recover")
        # Oldest first so overlapping levels end up newest-first.
        for number in sorted(state.files):
            level, name = state.files[number]
            if not self.device.exists(name):
                raise CorruptionError(
                    f"manifest references missing file {name} (#{number})")
            try:
                table = Table.open(self.device, name, self.options,
                                   self.stats, self.cost,
                                   data_cache=self.data_cache)
            except (CorruptionError, StorageError):
                edit.delete_file(level, number, name)
                continue
            self.version.add_file(level, FileMetaData(number=number,
                                                      table=table))
        self._seq = max(self._seq, state.last_seq)  # WAL may be ahead
        self._file_counter = max(self._file_counter, state.next_file_number)
        if self.level_models is not None:
            lost_levels = {level for level, _, _ in edit.deletes}
            for level in range(1, self.options.max_levels):
                files = self.version.levels[level]
                if not files:
                    continue
                sidecar = state.model_pointers.get(level)
                payload = (None if level in lost_levels
                           else self.level_models.model_store.load(sidecar))
                if payload is not None:
                    self.level_models.install(
                        level, files, deserialize_index(payload), sidecar)
                else:
                    # Missing/corrupt sidecar, or a table of the level
                    # was quarantined: retrain this one level and
                    # re-point the manifest at the fresh model.
                    edit.point_model(level, self.level_models.rebuild(
                        level, files))
        if state.torn:
            # Truncate the unreplayable tail *before* anything else is
            # appended: a frame written after torn bytes would be
            # invisible to every future replay, silently losing the
            # commits of this whole session.  The snapshot already
            # leaves out quarantined tables and names re-pointed models.
            self.manifest.rewrite(self._snapshot_edit("repair"))
        elif edit.deletes or edit.model_pointers:
            self.manifest.append(edit)
        self._quarantine([name for _, _, name in edit.deletes],
                         RECOVERY_TORN_TABLES)
        if self.level_models is not None:
            self.level_models.drop_stale()
        self._collect_garbage(state)

    def _quarantine(self, names: Sequence[str], why: str) -> None:
        """Set aside tables that a durable manifest edit already dropped.

        Each is renamed to ``quar-<name>`` (replacing an older copy), a
        name the garbage collector never sweeps, so it survives for
        forensics; :meth:`health` then reports ``degraded``.  Both
        counters are charged: ``quarantine.tables`` and ``why``.
        Callers rename only after the edit is durable: a crash in
        between reopens without the table and GCs its ``sst-`` file,
        where renaming first would leave a manifest naming a missing
        file.
        """
        for name in names:
            quarantine_name = QUARANTINE_PREFIX + name
            if self.device.exists(quarantine_name):
                self.device.delete(quarantine_name)
            self.device.rename(name, quarantine_name)
            self._quarantined_tables.append(quarantine_name)
            self.stats.add(QUARANTINED_TABLES)
            self.stats.add(why)

    def _collect_garbage(self, state) -> None:
        """Delete data/model files the manifest does not reference.

        A crash between writing new files and committing the edit that
        references them (or between a commit and the deletion of the
        files it obsoleted) leaves orphans that must not survive into
        the recovered database.  On a device without a manifest every
        ``sst-*`` is such an orphan: only a crash before the first
        flush's commit leaves one, and the WAL, reset only after that
        commit, still holds its records.  A ``quar-*`` table an earlier
        session set aside is kept and listed by :meth:`health`, so the
        tree stays ``degraded`` until an operator removes the file.
        """
        live = state.live_names()
        if self.level_models is not None:
            live.update(name for name in (
                self.level_models.persisted_pointer(level)
                for level in range(self.options.max_levels)) if name)
        for name in self.device.list_files():
            if (name.startswith(QUARANTINE_PREFIX)
                    and name not in self._quarantined_tables):
                self._quarantined_tables.append(name)
            if not (name.startswith("sst-")
                    or name.startswith(MODEL_FILE_PREFIX)
                    or name == MANIFEST_TMP_NAME):
                continue
            if name == MANIFEST_TMP_NAME or name not in live:
                self.device.delete(name)
                self.stats.add(RECOVERY_FILES_GCED)

    def _snapshot_edit(self, kind: str = "checkpoint") -> VersionEdit:
        """One edit describing the complete current version."""
        edit = VersionEdit(kind=kind, next_file_number=self._file_counter,
                           last_seq=self._seq)
        for level, meta in self.version.all_files():
            edit.add_file(level, meta.number, meta.name)
        if self.level_models is not None:
            for level in range(1, self.options.max_levels):
                pointer = self.level_models.persisted_pointer(level)
                if pointer:
                    edit.point_model(level, pointer)
        return edit

    def checkpoint(self) -> Dict[str, float]:
        """Flush, then compact the manifest to a single snapshot edit.

        After a checkpoint the entire recovery input is one memtable's
        worth of WAL (empty), one snapshot record, the table footers
        and the model sidecars — cold open does zero training and zero
        data-block reads.  Returns a summary of what was persisted.
        """
        self._check_open()
        self.flush()
        self.manifest.rewrite(self._snapshot_edit())
        self.stats.charge(Stage.WRITE_PATH, self.cost.wal_commit_us)
        summary: Dict[str, float] = {
            "files": float(self.version.file_count()),
            "manifest_bytes": float(self.manifest.size_bytes()),
            "models_persisted": 0.0,
        }
        if self.level_models is not None:
            summary["models_persisted"] = float(sum(
                1 for level in range(1, self.options.max_levels)
                if self.level_models.persisted_pointer(level)))
        return summary

    # -- table lifecycle -----------------------------------------------------
    #
    # Every table — flush, bulk ingest, compaction output, scrub rewrite —
    # is made by ``new_table``, sealed by ``seal`` and installed by
    # ``commit``; callers only choose what goes in and edit the version.

    def new_table(self, level: int) -> TableBuilder:
        """A builder for the next table file, bound for ``level``.

        The table embeds a per-file index unless a level model covers
        ``level``; level 0 never has a level model.
        """
        factory = (self.index_factory
                   if self.level_models is None or level == 0 else None)
        return TableBuilder(self.device, f"sst-{self._file_counter + 1:06d}",
                            self.options, factory, self.stats, self.cost,
                            level=level, data_cache=self.data_cache)

    def seal(self, builder: TableBuilder) -> FileMetaData:
        """Finish ``builder``'s file and give it the next file number.

        The key array goes to the level-model manager for retraining,
        or is dropped when there is none.
        """
        table = builder.finish()
        self._file_counter += 1
        meta = FileMetaData(number=self._file_counter, table=table)
        if self.level_models is not None:
            self.level_models.register_keys(table.name, table.cached_keys)
        else:
            table.release_keys()
        return meta

    def commit(self, kind: str, stage: Stage, *,
               added: Sequence[Tuple[int, FileMetaData]] = (),
               retired: Sequence[Tuple[int, FileMetaData]] = (),
               retrain: Sequence[int] = (),
               last_seq: Optional[int] = None,
               quarantine: str = "") -> None:
        """Make a version change durable: one manifest edit, crash-safe.

        The caller has already edited :attr:`version`; ``added`` and
        ``retired`` are the ``(level, file)`` pairs it put in and took
        out.  The order is what makes a crash at any point recoverable:
        the new tables (and, after ``retrain``, their level models) are
        on the device before the edit is appended, and the retired
        tables and superseded model sidecars are deleted only after it
        is durable.  A crash before the append reopens the old version
        (the new files are GCed); a crash after it reopens the new one
        (the undeleted old files are GCed).  With ``quarantine`` (the
        counter naming why) the retired tables are set aside by
        :meth:`_quarantine` instead of deleted.
        """
        edit = VersionEdit(kind=kind, last_seq=last_seq)
        for level, meta in added:
            edit.add_file(level, meta.number, meta.name)
        for level, meta in retired:
            edit.delete_file(level, meta.number, meta.name)
        if added:
            edit.next_file_number = self._file_counter
        models = self.level_models
        if models is not None:
            for _, meta in retired:
                models.forget_keys(meta.name)
            for level in retrain:
                edit.point_model(level, models.rebuild(
                    level, self.version.levels[level]))
        self.manifest.append(edit)
        self.stats.charge(stage, self.cost.wal_commit_us)
        if quarantine:
            self._quarantine([meta.name for _, meta in retired], quarantine)
        for _, meta in retired:
            meta.table.delete()
        if models is not None:
            models.drop_stale()

    # -- plumbing ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("operation on closed LSMTree")

    # -- degraded mode -----------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True when the database is in read-only degraded mode."""
        return self._read_only_reason is not None

    @property
    def read_only_reason(self) -> Optional[str]:
        """What pushed the database into degraded mode (None = healthy)."""
        return self._read_only_reason

    def _enter_read_only(self, reason: str) -> None:
        """Degrade to read-only: reads keep serving, writes raise.

        Entered on a :class:`DiskFullError` or a WAL-append failure —
        conditions where accepting more writes would either fail anyway
        or break the durability contract.  The mode is sticky for the
        life of this object (an operator fixes the device and reopens);
        only the first entry counts and records the reason.
        """
        if self._read_only_reason is None:
            self._read_only_reason = reason
            self.stats.add(DEGRADED_ENTRIES)

    def _check_writable(self) -> None:
        if self._read_only_reason is not None:
            self.stats.add(DEGRADED_WRITES_REJECTED)
            raise ReadOnlyModeError(self._read_only_reason)

    def health(self) -> Dict[str, object]:
        """A health summary: mode, reason and quarantine totals."""
        self._check_open()
        quarantined_blocks = sum(
            len(meta.table.quarantined_blocks)
            for _, meta in self.version.all_files())
        status = "read_only" if self.read_only else (
            "degraded" if quarantined_blocks or self._quarantined_tables
            else "ok")
        return {
            "status": status,
            "reason": self._read_only_reason,
            "quarantined_blocks": quarantined_blocks,
            "quarantined_tables": len(self._quarantined_tables),
        }

    def scrub(self) -> "ScrubReport":
        """Verify every table, rewrite the damaged, retire the hopeless.

        See :func:`repro.lsm.scrub.scrub_tree`; allowed (and most
        useful) in degraded mode — repairing media damage is exactly
        how an operator works back toward a clean bill of health.
        """
        self._check_open()
        from repro.lsm.scrub import scrub_tree
        return scrub_tree(self)

    def _replay_wal(self) -> None:
        assert self.wal is not None
        max_seq = self._seq
        for record in self.wal.replay():
            self.memtable.add(record)
            max_seq = max(max_seq, record.seq)
        self._seq = max_seq

    # -- write path ----------------------------------------------------------

    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self.check_write(((KIND_VALUE, key, value),))
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.PUT, f"key={key}")
                if tracer is not None else None)
        try:
            self._seq += 1
            record = make_value(key, self._seq, value)
            self._apply(record)
        finally:
            if tracer is not None:
                tracer.end(span)

    def delete(self, key: int) -> None:
        """Delete ``key`` (writes a tombstone)."""
        self.check_write(((KIND_TOMBSTONE, key, b""),))
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.DELETE, f"key={key}")
                if tracer is not None else None)
        try:
            self._seq += 1
            self._apply(make_tombstone(key, self._seq))
        finally:
            if tracer is not None:
                tracer.end(span)

    def _apply(self, record: Record) -> None:
        if self.wal is not None:
            try:
                self.wal.append(record)
            except StorageError as exc:
                # The record never became durable, so it must not be
                # applied; a WAL that can no longer accept appends means
                # no future write can be made durable either.
                self._enter_read_only(f"WAL append failed: {exc}")
                self.stats.add(DEGRADED_WRITES_REJECTED)
                raise ReadOnlyModeError(self._read_only_reason) from exc
            self.stats.charge(Stage.WRITE_PATH, self.cost.wal_commit_us)
        self.memtable.add(record)
        self.stats.add(UPDATES)
        self.stats.charge(Stage.WRITE_PATH, self.cost.write_entry_us)
        if self.memtable.approximate_bytes() >= self.options.write_buffer_bytes:
            self.flush()

    def write(self, batch: WriteBatch) -> int:
        """Apply ``batch`` atomically; returns the records applied.

        All records of the batch share consecutive sequence numbers and
        a single WAL *group commit* (one CRC frame, one device append),
        so a batch of K durable puts pays the per-commit overhead once
        instead of K times.  Validation happens before any mutation:
        an oversized value rejects the whole batch, leaving the
        database untouched.  Within a batch, later operations on a key
        supersede earlier ones, exactly as for individual calls.
        """
        ops = list(batch)
        self.check_write(ops)
        if not ops:
            return 0
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.WRITE_BATCH, f"{len(ops)} ops")
                if tracer is not None else None)
        try:
            return self._write_records(ops)
        finally:
            if tracer is not None:
                tracer.end(span)

    def check_write(self, batch) -> None:
        """Raise what :meth:`write` would refuse ``batch`` with (closed,
        read-only, a key outside ``[0, MAX_KEY]``, an oversized value),
        applying nothing."""
        self._check_open()
        self._check_writable()
        for kind, key, value in batch:
            if not 0 <= key <= MAX_KEY:
                raise InvalidOptionError(f"key out of range: {key}")
            if kind == KIND_VALUE and len(value) > self.options.value_capacity:
                raise InvalidOptionError(
                    f"value of {len(value)} bytes exceeds value_capacity "
                    f"{self.options.value_capacity}")

    def _write_records(self, ops) -> int:
        records = []
        for kind, key, value in ops:
            self._seq += 1
            records.append(Record(key=key, seq=self._seq, kind=kind,
                                  value=bytes(value)))
        if self.wal is not None:
            try:
                self.wal.append_batch(records)
            except StorageError as exc:
                self._enter_read_only(f"WAL append failed: {exc}")
                self.stats.add(DEGRADED_WRITES_REJECTED)
                raise ReadOnlyModeError(self._read_only_reason) from exc
            self.stats.charge(Stage.WRITE_PATH, self.cost.wal_commit_us)
        for record in records:
            self.memtable.add(record)
        self.stats.add(UPDATES, len(records))
        self.stats.add(BATCH_WRITES)
        self.stats.charge(Stage.WRITE_PATH,
                          self.cost.write_entry_us * len(records))
        if self.memtable.approximate_bytes() >= self.options.write_buffer_bytes:
            self.flush()
        return len(records)

    def flush(self) -> Optional[FileMetaData]:
        """Write the memtable to a new L0 table and run due compactions."""
        self._check_open()
        self._check_writable()
        if self.memtable.is_empty():
            return None
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.FLUSH, f"{len(self.memtable)} entries")
                if tracer is not None else None)
        try:
            return self._do_flush()
        except (DiskFullError, PowerCutError) as exc:
            # The memtable (and, with a WAL, the log) still holds the
            # data; nothing acknowledged is lost.  But the device cannot
            # take a table, so stop accepting writes.
            self._enter_read_only(f"flush failed: {exc}")
            raise ReadOnlyModeError(self._read_only_reason) from exc
        finally:
            if tracer is not None:
                tracer.end(span)

    def _do_flush(self) -> Optional[FileMetaData]:
        builder = self.new_table(0)
        builder.append(*encode_records(self.memtable.records(),
                                       self.options.value_capacity))
        meta = self.seal(builder)
        self.version.add_file(0, meta)
        # Commit the flush before the WAL resets: once the log is
        # truncated, the manifest is the only durable record that this
        # table exists.
        self.commit("flush", Stage.WRITE_PATH, added=[(0, meta)],
                    last_seq=self._seq)
        self.memtable = MemTable(self.options.entry_bytes)
        if self.wal is not None:
            self.wal.reset()
        self.stats.add(FLUSHES)
        self.maybe_compact()
        return meta

    def maybe_compact(self) -> List[CompactionOutcome]:
        """Run compactions until every level fits its capacity."""
        outcomes: List[CompactionOutcome] = []
        while True:
            task = self.compactor.pick_task(self.version)
            if task is None:
                return outcomes
            outcomes.append(self.compactor.run(self, task))

    def bulk_ingest(self, keys, value_for=None, seed: int = 0) -> None:
        """Offline leveled fill for benchmarks: no compaction churn.

        Distributes unique ``keys`` (in any order) across levels 1..L in
        steady-state proportions (each level filled proportionally to
        its capacity, so deeper levels hold geometrically more data,
        like a long-running database), builds the SSTables and indexes
        directly, and leaves L0 and the memtable empty.  Key-to-level
        assignment is a seeded shuffle, matching the random interleave
        compaction produces.  Input that :meth:`check_ingest` refuses
        raises before any table is built.

        ``value_for(key)`` gives each key's value (default: the key in
        hex, cut to ``value_capacity``).  It must be pure — the same
        bytes for the same key on every call — because it runs once to
        check, then once to build on every replica that loads the keys.
        Each table is encoded from its key, seq and value columns in
        one pass; sequence numbers run consecutively in level then key
        order.

        The per-level key sets are recorded in ``last_ingest_levels``.
        """
        self.check_ingest(keys, value_for)
        self._ingest(keys, value_for, seed)

    def _ingest(self, keys, value_for, seed: int) -> None:
        """:meth:`bulk_ingest` for input the caller has already passed
        through :meth:`check_ingest`."""
        import random as _random

        n = len(keys)
        if n == 0:
            return
        options = self.options
        capacities = self._ingest_capacities(n)
        depth = len(capacities)
        fill = n / sum(capacities)
        rng = _random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        if value_for is None:
            def value_for(key: int) -> bytes:  # noqa: ANN001 - local default
                return (b"v%x" % key)[: options.value_capacity]
        self.last_ingest_levels = {}
        pos = 0
        for level in range(1, depth + 1):
            if level == depth:
                count = n - pos
            else:
                count = min(n - pos, int(round(capacities[level - 1] * fill)))
            if count <= 0:
                continue
            subset = sorted(keys[i] for i in order[pos:pos + count])
            pos += count
            self._ingest_level(level, subset, value_for)
            self.last_ingest_levels[level] = subset

    def check_ingest(self, keys, value_for=None) -> None:
        """Raise what :meth:`bulk_ingest` would refuse ``keys`` and
        ``value_for`` with (closed, a non-empty database, a key outside
        ``[0, MAX_KEY]``, a duplicate key, more keys than the levels
        hold, a value longer than ``value_capacity``), building
        nothing."""
        self._check_open()
        if self.entry_count():
            raise InvalidOptionError("bulk_ingest requires an empty database")
        n = len(keys)
        if not n:
            return
        try:
            # uint64 holds exactly [0, MAX_KEY]: any other key overflows.
            column = np.fromiter(keys, dtype=np.uint64, count=n)
        except OverflowError:
            raise InvalidOptionError(
                f"bulk_ingest keys span [{min(keys)}, {max(keys)}], "
                f"outside [0, {MAX_KEY}]") from None
        column.sort()
        if (column[1:] == column[:-1]).any():
            raise InvalidOptionError("bulk_ingest keys must be unique")
        self._ingest_capacities(n)
        if value_for is not None:
            capacity = self.options.value_capacity
            if max(map(len, map(value_for, keys))) > capacity:
                key = next(key for key in keys
                           if len(value_for(key)) > capacity)
                raise InvalidOptionError(
                    f"bulk_ingest value of key {key} is "
                    f"{len(value_for(key))} bytes, exceeds value_capacity "
                    f"{capacity}")

    def _ingest_capacities(self, n: int) -> List[int]:
        """Entry capacities of levels 1..L, the fewest that hold ``n``."""
        options = self.options
        capacities: List[int] = []
        while sum(capacities) < n:
            depth = len(capacities) + 1
            if depth >= options.max_levels:
                raise InvalidOptionError(
                    f"{n} keys exceed capacity of {options.max_levels - 1} "
                    "levels; raise max_levels or write_buffer_bytes")
            capacities.append(options.entries_per_buffer
                              * options.size_ratio ** depth)
        return capacities

    def _ingest_level(self, level: int, sorted_keys, value_for) -> None:
        per_table = self.options.entries_per_sstable
        capacity = self.options.value_capacity
        added: List[Tuple[int, FileMetaData]] = []
        for start in range(0, len(sorted_keys), per_table):
            keys = sorted_keys[start:start + per_table]
            seqs = np.arange(self._seq + 1, self._seq + len(keys) + 1,
                             dtype=np.uint64)
            self._seq += len(keys)
            builder = self.new_table(level)
            builder.append(keys, encode_entries(
                keys, seqs, KIND_VALUE, list(map(value_for, keys)),
                capacity), self._seq)
            meta = self.seal(builder)
            self.version.add_file(level, meta)
            added.append((level, meta))
        # ``bulk_ingest`` fills levels >= 1 only, so the level is retrainable.
        self.commit("ingest", Stage.WRITE_PATH, added=added, retrain=[level],
                    last_seq=self._seq)

    # -- read path ----------------------------------------------------------

    def get(self, key: int) -> Optional[bytes]:
        """Point lookup; None when absent or deleted."""
        self._check_open()
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.GET, f"key={key}")
                if tracer is not None else None)
        try:
            self.stats.add(POINT_LOOKUPS)
            record = self._get_record(key)
            if record is None or record.is_tombstone:
                return None
            return record.value
        finally:
            if tracer is not None:
                tracer.end(span)

    def multi_get(
        self, keys: Sequence[int], *,
        coalesce: bool = True,
        errors: Optional[Dict[int, ReproError]] = None,
    ) -> List[Union[bytes, ReproError, None]]:
        """Batched point lookups; results in request order.

        Equivalent to ``[self.get(k) for k in keys]`` but the batch
        amortizes every shareable cost along Figure 1(C)'s pipeline:

        * the batch is sorted and deduplicated up front, so duplicate
          keys are looked up once;
        * the memtable is probed per key but its skip-list descent is
          charged once per batch (an ascending probe sequence keeps the
          upper levels hot);
        * each level is walked with the *whole* remaining key set —
          one file-range binary search per level (not per key), one
          bloom pass per ``(table, keys)`` group;
        * overlapping/adjacent predicted segments of one table coalesce
          into a single pread charging one seek plus sequential blocks
          (:meth:`~repro.lsm.sstable.Table.multi_get_in_bounds`).

        ``coalesce=False`` keeps per-key reads for one call (the
        ``multiget`` experiment's control arm).

        Pass an ``errors`` dict to get per-key fault isolation: a key
        whose lookup hits a quarantined block — or whose turn comes
        after an attached deadline expired — is recorded there (and its
        result slot holds the exception instance) instead of failing
        the whole batch — every healthy key still returns its value.
        Without ``errors`` the first quarantined read raises, matching
        :meth:`get`.
        """
        self._check_open()
        if not keys:
            return []
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.MULTI_GET, f"{len(keys)} keys")
                if tracer is not None else None)
        try:
            return self._do_multi_get(keys, coalesce, errors)
        finally:
            if tracer is not None:
                tracer.end(span)

    def _do_multi_get(
        self, keys: Sequence[int], coalesce: bool,
        errors: Optional[Dict[int, ReproError]],
    ) -> List[Union[bytes, ReproError, None]]:
        self.stats.add(POINT_LOOKUPS, len(keys))
        self.stats.add(MULTIGET_BATCHES)
        self.stats.add(MULTIGET_KEYS, len(keys))
        unique = sorted(set(keys))
        resolved: Dict[int, Record] = {}
        if not self.memtable.is_empty():
            # One descent charge per batch run, not per key.
            self.stats.charge(
                Stage.TABLE_LOOKUP,
                self.cost.index_compare_us * self.memtable.comparison_depth())
            resolved.update(self.memtable.get_many(unique))
        remaining = [key for key in unique if key not in resolved]
        hashes = {key: key_hashes(key) for key in remaining}
        # One reading per level boundary: nothing is charged between one
        # level's end and the next one's start.
        before = self.stats.read_time()
        for level in range(self.options.max_levels):
            if not remaining:
                break
            if not self.version.levels[level]:
                continue
            if self.deadline is not None and self.deadline.expired():
                if errors is None:
                    self.deadline.check(where=f"multi_get level {level}")
                # Partial degradation: keys resolved so far keep their
                # values; every still-unresolved key surfaces the typed
                # error through the errors={} protocol instead of
                # failing the whole batch.
                self.stats.add(OVERLOAD_DEADLINE_EXCEEDED)
                overdue = DeadlineExceededError(
                    self.deadline.deadline_us,
                    self.deadline.deadline_us - self.deadline.remaining_us(),
                    where=f"multi_get level {level}")
                for key in remaining:
                    errors[key] = overdue
                remaining = []
                break
            found = self._search_level_batch(level, remaining, hashes,
                                             coalesce, errors)
            after = self.stats.read_time()
            elapsed, before = after - before, after
            self._level_read_us[level] = (
                self._level_read_us.get(level, 0.0) + elapsed)
            self._level_read_ops[level] = (
                self._level_read_ops.get(level, 0) + len(remaining))
            if found:
                resolved.update(found)
                remaining = [key for key in remaining if key not in found]
            if errors:
                # An errored key is *resolved*: the poisoned block holds
                # its newest version, and a deeper level could only
                # serve a stale one.  Stop searching, surface the error.
                remaining = [key for key in remaining if key not in errors]
        out: List[Union[bytes, QuarantinedBlockError, None]] = []
        for key in keys:
            if errors and key in errors:
                out.append(errors[key])
                continue
            record = resolved.get(key)
            out.append(None if record is None or record.is_tombstone
                       else record.value)
        return out

    def _search_level_batch(
        self, level: int, keys: List[int], hashes: _Hashes, coalesce: bool,
        errors: Optional[Dict[int, QuarantinedBlockError]] = None,
    ) -> Dict[int, Record]:
        """Search one level for a sorted key batch; ``{key: record}``."""
        if self.level_models is not None and level >= 1:
            return self._search_level_model_batch(level, keys, hashes,
                                                  coalesce, errors)
        found: Dict[int, Record] = {}
        if self.version.level_overlaps(level):
            # Newest file first; a key found in a newer file must not be
            # probed in older ones (its newer version wins).  The
            # file-range walk is charged once per batch, not per file.
            if level >= 1:
                self.stats.charge(
                    Stage.TABLE_LOOKUP,
                    self._file_range_search_us(level)
                    + self.cost.index_compare_us * max(0, len(keys) - 1))
            unresolved = keys
            for meta in self.version.levels[level]:
                if not unresolved:
                    break
                candidates = [key for key in unresolved
                              if meta.min_key <= key <= meta.max_key]
                hits = self._probe_table_batch(meta.table, candidates,
                                               hashes, coalesce, errors)
                if hits:
                    found.update(hits)
                    unresolved = [key for key in unresolved
                                  if key not in hits]
                if errors:
                    unresolved = [key for key in unresolved
                                  if key not in errors]
            return found
        # Single sorted run: one merge walk assigns every key its file.
        files = self.version.levels[level]
        self.stats.charge(
            Stage.TABLE_LOOKUP,
            self._file_range_search_us(level)
            + self.cost.index_compare_us * max(0, len(keys) - 1))
        file_idx = 0
        grouped: Dict[int, List[int]] = {}
        for key in keys:
            while file_idx < len(files) and files[file_idx].max_key < key:
                file_idx += 1
            if file_idx >= len(files):
                break
            if files[file_idx].min_key <= key:
                grouped.setdefault(file_idx, []).append(key)
        for idx, group in grouped.items():
            found.update(self._probe_table_batch(files[idx].table, group,
                                                 hashes, coalesce, errors))
        return found

    def _probe_table_batch(
        self, table: Table, candidates: List[int], hashes: _Hashes,
        coalesce: bool,
        errors: Optional[Dict[int, QuarantinedBlockError]] = None,
    ) -> Dict[int, Record]:
        """One bloom pass then one coalesced multi-read for a table."""
        admitted = [key for key in candidates
                    if self._bloom_admits(table, key, hashes[key])]
        if not admitted:
            return {}
        hits = table.multi_get(admitted, coalesce=coalesce, errors=errors)
        errored = (sum(1 for key in admitted if key in errors)
                   if errors else 0)
        misses = len(admitted) - len(hits) - errored
        if misses > 0:
            self.stats.add(BLOOM_FALSE_POSITIVES, misses)
        return hits

    def _search_level_model_batch(
        self, level: int, keys: List[int], hashes: _Hashes, coalesce: bool,
        errors: Optional[Dict[int, QuarantinedBlockError]] = None,
    ) -> Dict[int, Record]:
        assert self.level_models is not None
        found: Dict[int, Record] = {}
        for meta, items in self.level_models.lookup_batch(level, keys):
            admitted = [
                (key, bound) for key, bound in items
                if key not in found
                and (errors is None or key not in errors)
                and meta.table.key_range_contains(key)
                and self._bloom_admits(meta.table, key, hashes[key])]
            if not admitted:
                continue
            hits = meta.table.multi_get_in_bounds(admitted,
                                                  coalesce=coalesce,
                                                  errors=errors)
            errored = (sum(1 for key, _ in admitted if key in errors)
                       if errors else 0)
            misses = len(admitted) - len(hits) - errored
            if misses > 0:
                self.stats.add(BLOOM_FALSE_POSITIVES, misses)
            found.update(hits)
        return found

    def _get_record(self, key: int) -> Optional[Record]:
        # Memtable first (newest data); an empty buffer costs nothing —
        # no probe, no descent charge.
        if not self.memtable.is_empty():
            self.stats.charge(
                _TABLE_LOOKUP,
                self.cost.index_compare_us * self.memtable.comparison_depth())
            hit = self.memtable.get(key)
            if hit is not None:
                return hit
        hashes = key_hashes(key)  # one mix for every bloom probed below
        # One reading per level boundary: nothing is charged between one
        # level's end and the next one's start.
        before = self.stats.read_time()
        for level in range(self.options.max_levels):
            if not self.version.levels[level]:
                continue
            # Deadline checkpoint: one attribute test per non-empty
            # level; a request past its budget stops descending here
            # instead of walking the rest of the tree for a dead client.
            if self.deadline is not None:
                self.deadline.check(where=f"get level {level}")
            record = self._search_level(level, key, hashes)
            after = self.stats.read_time()
            elapsed, before = after - before, after
            self._level_read_us[level] = (
                self._level_read_us.get(level, 0.0) + elapsed)
            self._level_read_ops[level] = (
                self._level_read_ops.get(level, 0) + 1)
            if record is not None:
                return record
        return None

    def _search_level(self, level: int, key: int,
                      hashes: Tuple[int, int]) -> Optional[Record]:
        use_level_model = (self.level_models is not None and level >= 1)
        if use_level_model:
            return self._search_level_model(level, key, hashes)
        candidates = self.version.files_for_key(level, key)
        if level >= 1:
            # Charge the binary search over the level's file ranges.
            self.stats.charge(_TABLE_LOOKUP,
                              self._file_range_search_us(level))
        for meta in candidates:
            if not self._bloom_admits(meta.table, key, hashes):
                continue
            record = meta.table.get(key)
            if record is not None:
                return record
            self.stats.add(BLOOM_FALSE_POSITIVES)
        return None

    def _search_level_model(self, level: int, key: int,
                            hashes: Tuple[int, int]) -> Optional[Record]:
        assert self.level_models is not None
        pairs = self.level_models.lookup(level, key)
        for meta, bound in pairs:
            if not meta.table.key_range_contains(key):
                continue
            if not self._bloom_admits(meta.table, key, hashes):
                continue
            record = meta.table.get_in_bound(key, bound)
            if record is not None:
                return record
            self.stats.add(BLOOM_FALSE_POSITIVES)
        return None

    def _file_range_search_us(self, level: int) -> float:
        """Charge for binary-searching ``level``'s file ranges."""
        count = len(self.version.levels[level])
        us = self._file_range_us.get(count)
        if us is None:
            us = self._file_range_us[count] = self.cost.binary_search_us(
                max(1, count))
        return us

    def _bloom_admits(self, table: Table, key: int,
                      hashes: Tuple[int, int]) -> bool:
        stats = self.stats
        stats.add(BLOOM_PROBES)
        stats.charge(_TABLE_LOOKUP, self.cost.bloom_probe_us)
        if table.bloom.may_contain(key, hashes):
            return True
        stats.add(BLOOM_NEGATIVES)
        return False

    # -- range lookups -------------------------------------------------------

    def iterator(self) -> DBIterator:
        """A merged, deduplicated iterator over the whole database."""
        self._check_open()
        children: List[KVIterator] = [MemTableIterator(self.memtable)]
        for level, files in enumerate(self.version.levels):
            if not files:
                continue
            if self.version.level_overlaps(level):
                # Runs overlap: each is its own merge input.
                children.extend(meta.table.iterator() for meta in files)
            else:
                children.append(LevelIterator(self, level, files))
        return DBIterator(children)

    def scan(self, start_key: int, count: int) -> List[Tuple[int, bytes]]:
        """Range lookup: up to ``count`` live entries from ``start_key``."""
        self._check_open()
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.SCAN, f"start={start_key} n={count}")
                if tracer is not None else None)
        try:
            self.stats.add(RANGE_LOOKUPS)
            cursor = self.iterator()
            cursor.seek(start_key)
            return cursor.take(count)
        finally:
            if tracer is not None:
                tracer.end(span)

    # -- memory accounting (the paper's memory axis) -------------------------

    def index_memory_bytes(self) -> int:
        """Total bytes of index structures held in memory."""
        total = 0
        for level, meta in self.version.all_files():
            if self.level_models is not None and level >= 1:
                continue  # covered by the level models below
            total += meta.table.index_bytes()
        if self.level_models is not None:
            total += self.level_models.memory_bytes()
        return total

    def level_index_memory_bytes(self, level: int) -> int:
        """Index bytes attributable to one level."""
        if self.level_models is not None and level >= 1:
            return self.level_models.memory_bytes(level)
        return sum(meta.table.index_bytes()
                   for meta in self.version.levels[level])

    def bloom_memory_bytes(self) -> int:
        """Total bloom filter bytes held in memory."""
        return sum(meta.table.bloom_bytes()
                   for _, meta in self.version.all_files())

    def memory_breakdown(self) -> Dict[str, int]:
        """Bytes per in-memory component (index / bloom / buffer)."""
        return {
            "index": self.index_memory_bytes(),
            "bloom": self.bloom_memory_bytes(),
            "buffer": self.options.write_buffer_bytes,
        }

    # -- introspection ------------------------------------------------------

    def entry_count(self) -> int:
        """Total entries across memtable and all levels (incl. stale)."""
        return len(self.memtable) + sum(
            meta.entry_count for _, meta in self.version.all_files())

    def level_read_stats(self) -> Dict[int, Tuple[float, int]]:
        """Per level: (simulated read microseconds, lookups that touched it)."""
        return {level: (self._level_read_us.get(level, 0.0),
                        self._level_read_ops.get(level, 0))
                for level in sorted(set(self._level_read_us)
                                    | set(self._level_read_ops))}

    def reset_read_stats(self) -> None:
        """Zero the per-level read accounting (between experiment phases)."""
        self._level_read_us.clear()
        self._level_read_ops.clear()

    def describe_levels(self) -> List[Dict[str, float]]:
        """Shape summary per non-empty level (files, entries, bytes)."""
        out = []
        for level in range(self.options.max_levels):
            files = self.version.levels[level]
            if not files:
                continue
            out.append({
                "level": level,
                "files": len(files),
                "entries": self.version.level_entry_count(level),
                "data_bytes": self.version.level_data_bytes(level),
                "index_bytes": self.level_index_memory_bytes(level),
            })
        return out

    def close(self) -> None:
        """Flush nothing, drop cached blocks, mark closed.

        Every committed table stays on the device, so :meth:`reopen`
        from it recovers what was committed (and, with a WAL, the
        memtable); only :meth:`commit` deletes tables, once retired.
        """
        if self._closed:
            return
        self._closed = True
        if self.data_cache is not None:
            self.data_cache.clear()


class LevelIterator(KVIterator):
    """Concatenating iterator over one sorted-run level (LevelDB style).

    Seeks use the per-table learned index (or the level model when the
    database runs level granularity) for the initial positioning, then
    stream sequentially, hopping to the next file when one is
    exhausted.  Its columns are those of the current file's iterator.
    """

    def __init__(self, db: LSMTree, level: int,
                 files: List[FileMetaData]) -> None:
        self.db = db
        self.level = level
        self.files = files
        self._file_idx = len(files)
        self._iter: Optional[TableIterator] = None

    def _open_file(self, idx: int) -> None:
        self._file_idx = idx
        if 0 <= idx < len(self.files):
            self._iter = self.files[idx].table.iterator()
        else:
            self._iter = None

    def seek_to_first(self) -> None:
        self._open_file(0)
        if self._iter is not None:
            self._iter.seek_to_first()
        self._skip_exhausted()

    def seek(self, key: int) -> None:
        keys = [meta.min_key for meta in self.files]
        idx = bisect_right(keys, key) - 1
        if idx < 0:
            self.seek_to_first()
            return
        if key > self.files[idx].max_key:
            # Key falls in the gap after file idx: start at the next file.
            self._open_file(idx + 1)
            if self._iter is not None:
                self._iter.seek_to_first()
            self._skip_exhausted()
            return
        self._open_file(idx)
        assert self._iter is not None
        if self.db.level_models is not None and self.level >= 1:
            pairs = self.db.level_models.lookup(self.level, key)
            target = next((bound for meta, bound in pairs
                           if meta.number == self.files[idx].number), None)
            if target is not None:
                model = self.db.level_models.model_for(self.level)
                self._iter.seek_to_bound(key, target,
                                         model.index.places_absent_keys)
            else:
                self._iter.seek_to_first()
                self._iter.skip_until(key)
        else:
            self._iter.seek(key)
        self._skip_exhausted()

    def _skip_exhausted(self) -> None:
        """Open files until one has an entry; take on its columns."""
        it = self._iter
        while it is not None and not it.valid():
            next_idx = self._file_idx + 1
            if next_idx >= len(self.files):
                it = self._iter = None
                break
            self._open_file(next_idx)
            it = self._iter
            it.seek_to_first()
        if it is None:
            self.keys = self.metas = ()
            self.head = 0
        else:
            self.keys, self.metas, self.head = it.keys, it.metas, it.head

    def advance_to(self, index: int) -> None:
        assert self._iter is not None
        self._iter.advance_to(index)
        self._skip_exhausted()

    def row(self, index: int) -> Record:
        assert self._iter is not None
        return self._iter.row(index)
