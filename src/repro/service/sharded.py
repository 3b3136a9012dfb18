"""ShardedDB: a scale-out front-end over N independent LSM-trees.

The paper's testbed is one LSM-tree; a serving deployment partitions
the key space over many, because each shard gets its own memtable,
WAL, compaction schedule and (smaller) levels — shallower trees mean
fewer probes per lookup, and independent shards are the unit that
scales across cores or machines.  :class:`ShardedDB` reproduces that
layer in-process: a :class:`~repro.service.router.HashRouter` assigns
every key to one :class:`~repro.lsm.db.LSMTree` shard, point operations
route directly, batches split into one group commit per shard touched,
and range scans merge the per-shard sorted results.

The front-end implements :class:`~repro.kv.KVStore`, as each of its
shards (an ``LSMTree`` or a
:class:`~repro.service.replication.ReplicaGroup`) does, so workload
drivers — :func:`repro.workloads.ycsb.replay` in particular — run
unchanged against any of them; ``tests/test_kv_contract.py`` checks all
of them against one conformance suite.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DatabaseClosedError, InvalidOptionError, ReproError
from repro.kv import HEALTH_STATUSES, VirtualClock
from repro.lsm.db import LSMTree
from repro.lsm.scrub import ScrubReport
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.obs.registry import MetricsRegistry, global_registry
from repro.obs.trace import OpType, Tracer
from repro.service.replication import ReplicaGroup, ReplicationConfig
from repro.service.router import HashRouter
from repro.storage.block_device import BlockDevice
from repro.storage.stats import Stats


class ShardedDB:
    """Hash-partitioned key-value store over ``num_shards`` LSM-trees.

    Every shard is a full :class:`~repro.lsm.db.LSMTree` (a
    :class:`~repro.service.replication.ReplicaGroup` of them under
    ``replication``) with its own device (fresh
    :class:`~repro.storage.block_device.MemoryBlockDevice` instances unless ``devices`` supplies one per shard) and its own
    :class:`~repro.storage.stats.Stats` registry; :attr:`stats`
    aggregates them on demand.  ``options`` applies uniformly — including
    ``cache_bytes``, which therefore provisions one block cache *per
    shard*.
    """

    def __init__(self, num_shards: int = 4,
                 options: Optional[Options] = None,
                 devices: Optional[Sequence] = None,
                 observe: bool = True,
                 metrics_sink: Optional[MetricsRegistry] = None,
                 replication: Optional[ReplicationConfig] = None) -> None:
        self.router = HashRouter(num_shards)
        self.options = options if options is not None else Options()
        self.replication = replication
        if devices is not None and len(devices) != num_shards:
            raise InvalidOptionError(
                f"got {len(devices)} devices for {num_shards} shards")
        #: The fleet's one timeline: a gateway's event loop runs on it,
        #: and so does every replica group's failure detector.
        self.clock = VirtualClock()
        if replication is not None:
            # Replicated fleet: each shard is a ReplicaGroup of R trees
            # on R devices.  ``devices``, when given, is one sequence of
            # R devices per shard.
            self.shards: List = [
                ReplicaGroup(i, self.options, replication,
                             devices=devices[i] if devices is not None
                             else None,
                             clock=self.clock)
                for i in range(num_shards)
            ]
        else:
            self.shards = [
                LSMTree(self.options,
                        device=devices[i] if devices is not None else None)
                for i in range(num_shards)
            ]
        #: Set by :class:`repro.service.gateway.Gateway` when one is
        #: attached; :meth:`health` then reports breaker/queue state.
        self._gateway = None
        self._closed = False
        # One tracer per shard, each recording into a *private* registry
        # (a deployment where every shard exports its own metrics);
        # :meth:`metrics` folds them with the exact histogram merge, and
        # :meth:`close` folds that into ``metrics_sink`` (the global
        # registry by default) so bench reports see sharded runs too.
        self.tracers: List[Tracer] = [
            Tracer(registry=MetricsRegistry())
            for _ in self.shards] if observe else []
        self.registries = [tracer.registry for tracer in self.tracers]
        for shard, tracer in zip(self.shards, self.tracers):
            shard.stats.attach_tracer(tracer)
        self._metrics_sink = metrics_sink
        self._metrics_flushed = False

    @classmethod
    def reopen(cls, num_shards: int, options: Options,
               devices: Sequence[BlockDevice], *,
               observe: bool = True,
               metrics_sink: Optional[MetricsRegistry] = None
               ) -> "ShardedDB":
        """Rebuild every shard from its device (crash recovery).

        Each shard recovers *independently* from its own MANIFEST
        version log plus its own WAL — exactly like
        :meth:`repro.lsm.db.LSMTree.reopen` for a single tree: a shard
        without a manifest opens empty, and a table that cannot open is
        quarantined, leaving that shard ``degraded``.  Because manifests
        are per-shard, a torn or corrupt log on one shard degrades only
        that shard's recovery; the others still restore their persisted
        models untouched.
        Each shard's recovery is recorded as a per-shard "recovery" span.
        """
        db = cls(num_shards, options, devices, observe=observe,
                 metrics_sink=metrics_sink)
        for shard in db.shards:
            tracer = shard.stats.tracer
            span = (tracer.begin(OpType.RECOVERY)
                    if tracer is not None else None)
            try:
                shard.recover()
            finally:
                if tracer is not None:
                    tracer.end(span)
        return db

    # -- routing -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards the key space is partitioned over."""
        return self.router.num_shards

    def shard_for(self, key: int) -> int:
        """The shard index owning ``key``."""
        return self.router.shard_for(key)

    # -- point operations ----------------------------------------------

    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key`` on its owning shard."""
        self.shards[self.router.shard_for(key)].put(key, value)

    def get(self, key: int) -> Optional[bytes]:
        """Point lookup; None when absent or deleted."""
        return self.shards[self.router.shard_for(key)].get(key)

    def delete(self, key: int) -> None:
        """Delete ``key`` (writes a tombstone on its owning shard)."""
        self.shards[self.router.shard_for(key)].delete(key)

    def multi_get(self, keys: Sequence[int], *,
                  coalesce: bool = True,
                  errors: Optional[Dict[int, ReproError]] = None,
                  ) -> List[Optional[bytes]]:
        """Batched point lookups; results reassembled in request order.

        The batch is partitioned per owning shard, each shard absorbs
        its sub-batch through one :meth:`~repro.lsm.db.LSMTree.multi_get`
        (amortized level walks, coalesced segment reads), and the
        per-shard results are stitched back into the caller's order —
        duplicates included.  ``errors`` gives per-key fault isolation,
        exactly as on the single tree: a quarantined key lands in the
        dict (and its slot holds the exception) while every other key —
        including the rest of the same shard's sub-batch — resolves.
        """
        self._check_open()
        resolved: Dict[int, Optional[bytes]] = {}
        for shard, part in zip(self.shards,
                               self.router.partition_keys(keys)):
            if part:
                resolved.update(zip(part, shard.multi_get(
                    part, coalesce=coalesce, errors=errors)))
        return [resolved[key] for key in keys]

    # -- batched writes ------------------------------------------------

    def write(self, batch: WriteBatch) -> int:
        """Apply ``batch``, split shard-by-shard; returns records applied.

        Each shard touched absorbs its sub-batch through one WAL group
        commit, so a K-record batch over S shards costs exactly
        ``min(S, shards touched)`` commits.  Atomicity is therefore
        per-shard (as in any sharded store without a distributed
        transaction log); per-key semantics are unaffected because a
        key always lives on exactly one shard.

        Rejection is all-or-nothing: *every* touched shard is checked
        (writable, values within capacity) before the *first* group
        commit, so a batch that any shard would refuse raises with no
        shard mutated — an acknowledgment never covers a partial
        cross-shard application.  Mid-commit device faults can still
        degrade a shard after earlier shards committed (that is the
        no-distributed-log trade-off), but a *refusal* the front-end
        can predict never splits a batch.
        """
        self._check_open()
        split = sorted(self.router.split(batch).items())
        for shard, part in split:
            self.shards[shard].check_write(part)
        applied = 0
        for shard, part in split:
            applied += self.shards[shard].write(part)
        return applied

    # -- range lookups -------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[Tuple[int, bytes]]:
        """Global range lookup: ``count`` live entries from ``start_key``.

        Every shard returns its own first ``count`` entries at or above
        ``start_key``; a k-way merge of those sorted, disjoint runs
        yields the global prefix.  Per-shard truncation is safe: an
        entry a shard did *not* return is preceded by ``count`` entries
        of that shard alone, so it can never appear in the merged first
        ``count``.
        """
        runs = [shard.scan(start_key, count) for shard in self.shards]
        merged = heapq.merge(*runs, key=itemgetter(0))
        return [pair for _, pair in zip(range(count), merged)]

    def bulk_ingest(self, keys, value_for=None, seed: int = 0) -> None:
        """Offline leveled fill of every shard (benchmark loading).

        Partitions unique ``keys`` by owning shard and delegates to each
        shard's :meth:`~repro.lsm.db.LSMTree.bulk_ingest`, so a sharded
        benchmark database is built without compaction churn.  Every
        shard checks its part — keys and values — before any shard
        loads, so bad input commits nothing on any shard, and nothing
        is checked twice.
        """
        parts = self.router.partition_keys(keys)
        for shard, part in zip(self.shards, parts):
            shard.check_ingest(part, value_for)
        for shard, part in zip(self.shards, parts):
            if part:
                shard._ingest(sorted(part), value_for, seed)

    # -- maintenance -----------------------------------------------------

    def flush(self) -> None:
        """Flush every shard's memtable and run due compactions."""
        for shard in self.shards:
            shard.flush()

    def maybe_compact(self) -> None:
        """Run compactions on every shard until capacities are met."""
        for shard in self.shards:
            shard.maybe_compact()

    def tick(self, now_us: float) -> None:
        """Advance every replica group's failure detector to ``now_us``.

        A no-op for unreplicated fleets.  The gateway's open-loop
        scheduler calls this at every heartbeat interval; closed-loop
        drivers call it directly as their simulated clock advances.
        """
        if self.replication is None:
            return
        self.clock.advance_to(now_us)
        for shard in self.shards:
            shard.tick(now_us)

    def anti_entropy(self) -> ScrubReport:
        """Scrub + divergence repair on every replica group.

        Falls back to a plain :meth:`scrub` for unreplicated fleets, so
        operator tooling can call one entry point either way.
        """
        if self.replication is None:
            return self.scrub()
        report = ScrubReport()
        for shard in self.shards:
            report.merge(shard.anti_entropy())
        return report

    def health(self) -> Dict[str, object]:
        """Fleet health: overall status plus one entry per shard.

        ``status`` is ``ok`` only when every shard reports ``ok``; a
        single degraded or read-only shard degrades the fleet summary
        while the per-shard list tells an operator exactly where to
        look.  Keys on healthy shards are unaffected — that isolation
        is the point of sharding.  Replicated shards additionally
        report per-replica roles, liveness and lag (see
        :meth:`ReplicaGroup.health`); a shard with every replica dead
        reports ``down``, the worst fleet status.
        """
        shards = []
        for i, shard in enumerate(self.shards):
            entry: Dict[str, object] = {"shard": i}
            entry.update(shard.health())
            if self._gateway is not None:
                # Overload is a health dimension too: an operator
                # looking at a "healthy" shard shedding half its queue
                # needs to see that here, not only in bench reports.
                entry.update(self._gateway.shard_health(i))
            shards.append(entry)
        worst = "ok"
        for status in HEALTH_STATUSES[1:]:
            if any(entry["status"] == status for entry in shards):
                worst = status
        return {"status": worst, "shards": shards}

    def scrub(self) -> ScrubReport:
        """Scrub every shard; returns the merged repair report."""
        report = ScrubReport()
        for shard in self.shards:
            report.merge(shard.scrub())
        return report

    def checkpoint(self) -> Dict[str, float]:
        """Checkpoint every shard; returns aggregated persistence totals.

        Each shard flushes its memtable and compacts its MANIFEST to a
        single snapshot edit, so a subsequent
        :meth:`reopen` replays one record per shard and deserializes
        every persisted model — zero training across the whole fleet.
        """
        total: Dict[str, float] = {}
        for shard in self.shards:
            for name, value in shard.checkpoint().items():
                total[name] = total.get(name, 0.0) + value
        return total

    def _check_open(self) -> None:
        # Point calls meet a closed shard; an empty batch meets none.
        if self._closed:
            raise DatabaseClosedError("operation on closed ShardedDB")

    def close(self) -> None:
        """Release every shard and fold metrics into the sink.

        The attached gateway is dropped too: its back-reference would
        hold the closed fleet, and every device's bytes, in a cycle.
        """
        self._closed = True
        self._gateway = None
        for shard in self.shards:
            shard.close()
        self._flush_metrics()

    def _flush_metrics(self) -> None:
        """Merge per-shard registries into the metrics sink, once.

        The sink defaults to the process-wide registry so sharded runs
        show up in bench reports alongside single-tree runs.
        """
        if self._metrics_flushed or not self.registries:
            return
        self._metrics_flushed = True
        sink = (self._metrics_sink if self._metrics_sink is not None
                else global_registry())
        sink.merge(self.metrics())

    # -- aggregated introspection ----------------------------------------

    @property
    def stats(self) -> Stats:
        """A fresh registry holding the sum of every shard's stats."""
        total = Stats()
        for shard in self.shards:
            total.merge(shard.stats)
        return total

    def metrics(self) -> MetricsRegistry:
        """Fleet-wide metrics: every shard's registry, merged exactly.

        Histogram buckets add, so the merged percentiles are identical
        to a single histogram that observed every shard's samples —
        no bucket re-quantization, no percentile-of-percentiles
        approximation (``tests/test_obs.py`` property-tests this).
        """
        merged = MetricsRegistry()
        for registry in self.registries:
            merged.merge(registry)
        if self.replication is not None:
            # Replica groups keep their own registry (the failover-time
            # histogram lives there); fold it in so ``repl.failover``
            # shows up next to request latencies.
            for group in self.shards:
                merged.merge(group.registry)
        return merged

    def entry_count(self) -> int:
        """Total entries across all shards (incl. stale versions)."""
        return sum(shard.entry_count() for shard in self.shards)

    def memory_breakdown(self) -> Dict[str, int]:
        """Bytes per in-memory component, summed over shards."""
        total: Dict[str, int] = {}
        for shard in self.shards:
            for component, nbytes in shard.memory_breakdown().items():
                total[component] = total.get(component, 0) + nbytes
        return total

    def cache_hit_rate(self) -> float:
        """Aggregate block-cache hit fraction across shards."""
        return self.stats.cache_hit_rate()

    def describe_shards(self) -> List[Dict[str, float]]:
        """Shape summary per shard (entries, files, read time)."""
        out = []
        for index, shard in enumerate(self.shards):
            levels = shard.describe_levels()
            out.append({
                "shard": index,
                "entries": shard.entry_count(),
                "files": sum(row["files"] for row in levels),
                "levels": len(levels),
                "read_us": shard.stats.read_time(),
            })
        return out

    def shard_balance(self) -> float:
        """Max/mean entry-count ratio (1.0 = perfectly even spread)."""
        counts = [shard.entry_count() for shard in self.shards]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0
