"""Outside-in tracing: timing wrappers on the layers' public functions.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each function named in :data:`TARGETS` with a wrapper that
records a span (name, start, end, parent); :meth:`Tracer.remove` puts
the originals back.  Methods are patched on their class; functions that
other modules import by name (``from repro.storage.checksum import
crc32c``) are patched in every ``repro.*`` module global that holds
them, because the importer's global is what the call site reads.

A span's *self* time is its duration minus the time its child spans
cover, so self times add up to the duration of the outermost spans.
Aggregates (calls, self ns, inclusive ns) are kept per span name; the
full span list is kept only for the calls the harness samples.

A target that no longer exists raises at install time: a layer whose
boundary moved must be re-pointed here by hand, never dropped silently.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict, List, Optional, Tuple

#: ``(span name, "module[:Class]", attribute)``.  Several attributes may
#: feed one span name; when one of them delegates to another (``Table.get``
#: calls ``Table.get_in_bound``) the inner call folds into the open span.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("db.get", "repro.lsm.db:LSMTree", "get"),
    ("db.put", "repro.lsm.db:LSMTree", "put"),
    ("db.put", "repro.lsm.db:LSMTree", "delete"),
    ("db.put", "repro.lsm.db:LSMTree", "write"),
    ("db.multi_get", "repro.lsm.db:LSMTree", "multi_get"),
    ("db.scan", "repro.lsm.db:LSMTree", "scan"),
    ("db.flush", "repro.lsm.db:LSMTree", "flush"),
    ("db.reopen", "repro.lsm.db:LSMTree", "reopen"),
    ("memtable.add", "repro.lsm.memtable:MemTable", "add"),
    ("memtable.get", "repro.lsm.memtable:MemTable", "get"),
    ("memtable.get", "repro.lsm.memtable:MemTable", "get_many"),
    ("wal.append", "repro.lsm.wal:WriteAheadLog", "append_batch"),
    ("version.files_for_key", "repro.lsm.version:Version", "files_for_key"),
    ("bloom.may_contain", "repro.lsm.bloom:BloomFilter", "may_contain"),
    ("bloom.build", "repro.lsm.bloom:BloomFilter", "build"),
    ("indexes.lookup", "repro.indexes.base:ClusteredIndex", "lookup"),
    ("indexes.build", "repro.indexes.base:ClusteredIndex", "build"),
    ("level_index.lookup", "repro.lsm.level_index:LevelModelManager",
     "lookup"),
    ("level_index.lookup", "repro.lsm.level_index:LevelModelManager",
     "lookup_batch"),
    ("sstable.get", "repro.lsm.sstable:Table", "get"),
    ("sstable.get", "repro.lsm.sstable:Table", "get_in_bound"),
    ("sstable.get", "repro.lsm.sstable:Table", "multi_get"),
    ("sstable.get", "repro.lsm.sstable:Table", "multi_get_in_bounds"),
    ("sstable.read_entries", "repro.lsm.sstable:Table", "read_entries"),
    ("sstable.build", "repro.lsm.sstable:TableBuilder", "finish"),
    ("checksum.crc32c", "repro.storage.checksum", "crc32c"),
    ("compression.encode_block", "repro.storage.compression",
     "encode_block"),
    ("compression.decode_block", "repro.storage.compression",
     "decode_block"),
    ("block_cache.pread_cached",
     "repro.storage.block_cache:CachedBlockDevice", "pread_cached"),
    ("data_cache.get", "repro.storage.block_cache:DataBlockCache", "get"),
    ("block_device.pread", "repro.storage.block_device:MemoryBlockDevice",
     "pread"),
    ("block_device.append", "repro.storage.block_device:MemoryBlockDevice",
     "append"),
    ("record.decode_entry", "repro.lsm.record", "decode_entry"),
    ("compaction.run", "repro.lsm.compaction:Compactor", "run"),
    ("iterators.seek", "repro.lsm.iterators:DBIterator", "seek"),
    ("iterators.take", "repro.lsm.iterators:DBIterator", "take"),
    ("manifest.append", "repro.persist.manifest:Manifest", "append"),
    ("manifest.replay", "repro.persist.manifest:Manifest", "replay"),
    ("stats.charge", "repro.storage.stats:Stats", "charge"),
    ("stats.add", "repro.storage.stats:Stats", "add"),
    ("stats.read_time", "repro.storage.stats:Stats", "read_time"),
    ("trace.on_charge", "repro.obs.trace:Tracer", "on_charge"),
    ("histogram.record", "repro.obs.histogram:Histogram", "record"),
    ("sharded.dispatch", "repro.service.sharded:ShardedDB", "shard_for"),
    ("gateway.run", "repro.service.gateway:Gateway", "run"),
    ("replication.op", "repro.service.replication:ReplicaGroup", "get"),
    ("replication.op", "repro.service.replication:ReplicaGroup", "put"),
    ("replication.op", "repro.service.replication:ReplicaGroup", "delete"),
    ("replication.op", "repro.service.replication:ReplicaGroup", "write"),
    ("replication.tick", "repro.service.replication:ReplicaGroup", "tick"),
)

#: Span names, in table order, without repeats.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Spans whose wrapper also sums ``len(args[0])`` (bytes handled).
SIZED_SPANS = frozenset({"checksum.crc32c"})

#: Most span records kept for one sampled call (a put that triggers a
#: compaction opens tens of thousands of spans).
MAX_SPANS_PER_SAMPLE = 4000


class SpanStats:
    """Running totals for one span name."""

    __slots__ = ("name", "calls", "self_ns", "total_ns", "arg_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.arg_bytes = 0


class Tracer:
    """Installs the wrappers, owns the span stack and the totals."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {
            name: SpanStats(name) for name in SPAN_NAMES}
        #: Finished samples: ``{"call", "label", "spans"}`` where each
        #: span is ``[name, start_ns, end_ns, parent index or -1]`` with
        #: times relative to the sample's start.
        self.samples: List[dict] = []
        # Open frames, innermost last: [stats, child ns, record index].
        self._stack: List[list] = []
        self._records: Optional[List[list]] = None
        self._sample: Optional[dict] = None
        self._patched: List[Tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        """Patch every target; on any failure nothing stays patched."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for span, owner_path, attr in TARGETS:
                module_name, _, class_name = owner_path.partition(":")
                module = importlib.import_module(module_name)
                stats = self.spans[span]
                if class_name:
                    self._patch_method(getattr(module, class_name), attr,
                                       stats)
                else:
                    self._patch_function(module, attr, stats)
        except Exception:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._records = None

    def _patch_method(self, cls: type, attr: str, stats: SpanStats) -> None:
        try:
            raw = cls.__dict__[attr]
        except KeyError:
            raise AttributeError(
                f"trace target {cls.__module__}.{cls.__name__}.{attr} is "
                "not defined on that class any more") from None
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(self._wrap(raw.__func__, stats))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, stats))
        else:
            wrapped = self._wrap(raw, stats)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module, attr: str, stats: SpanStats) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(original, stats)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for alias, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, alias, original))
                    setattr(holder, alias, wrapped)

    def _wrap(self, fn, stats: SpanStats):
        stack = self._stack
        now = time.perf_counter_ns
        sized = stats.name in SIZED_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            frame = [stats, 0, -1]
            records = tracer._records
            if records is not None and len(records) < MAX_SPANS_PER_SAMPLE:
                frame[2] = len(records)
                records.append([stats.name, 0, 0,
                                stack[-1][2] if stack else -1])
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_ns += duration - frame[1]
                stats.total_ns += duration
                if sized:
                    stats.arg_bytes += len(args[0])
                if stack:
                    stack[-1][1] += duration
                if frame[2] >= 0:
                    record = records[frame[2]]
                    record[1] = start
                    record[2] = end

        return wrapper

    # -- sampling ------------------------------------------------------

    def begin_sample(self, call: int, label: str) -> None:
        """Keep the full span list of the call about to run."""
        self._records = []
        self._sample = {"call": call, "label": label,
                        "spans": self._records}

    def end_sample(self) -> None:
        """Close the open sample; times become relative to its start."""
        records, sample = self._records, self._sample
        self._records = self._sample = None
        if not records:
            return
        origin = min(record[1] for record in records)
        for record in records:
            record[1] -= origin
            record[2] -= origin
        self.samples.append(sample)

    # -- read-out ------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, int, int, int]]:
        """``{span: (calls, self ns, inclusive ns, arg bytes)}`` so far."""
        return {name: (s.calls, s.self_ns, s.total_ns, s.arg_bytes)
                for name, s in self.spans.items()}
