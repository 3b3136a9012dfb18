"""The unified testbed: load a database, run workloads, collect metrics.

This is the reproduction of the paper's Section 4.2 platform: a single
object that materialises an :class:`~repro.lsm.db.LSMTree` from
:class:`~repro.lsm.options.Options`, loads a dataset through
the normal write path (so flushes and compactions build the learned
indexes exactly as in production), and executes measured workload
phases.  Every phase returns simulated-time metrics broken down into
the paper's stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lsm.db import LSMTree
from repro.lsm.options import Options
from repro.obs.registry import MetricsRegistry, MetricsWindow, global_registry
from repro.obs.trace import Tracer
from repro.storage.block_device import BlockDevice
from repro.storage.stats import (
    BLOCKS_READ,
    COMPACTION_STAGES,
    Stage,
    StatsSnapshot,
)
from repro.workloads.ycsb import YCSBWorkload, replay


@dataclass(frozen=True)
class PhaseMetrics:
    """Simulated-time metrics for one measured workload phase."""

    ops: int
    total_us: float
    stage_us: Dict[str, float]
    counters: Dict[str, float]
    #: Per-op-type latency percentiles recorded during the phase
    #: (``{op: {"p50": ..., "p99": ...}}``); None when tracing is off.
    percentiles: Optional[Dict[str, Dict[str, float]]] = None
    #: Windowed throughput/latency snapshots (YCSB phases only).
    windows: Optional[List[Dict[str, float]]] = None

    @property
    def avg_us(self) -> float:
        """Mean simulated microseconds per operation."""
        return self.total_us / self.ops if self.ops else 0.0

    def stage_avg_us(self, stage: Stage) -> float:
        """Mean per-op simulated time spent in ``stage``."""
        if not self.ops:
            return 0.0
        return self.stage_us.get(stage.value, 0.0) / self.ops

    def counter(self, name: str) -> float:
        """Total counter change during the phase."""
        return self.counters.get(name, 0.0)

    def blocks_read_per_op(self) -> float:
        """Mean device blocks fetched per operation."""
        if not self.ops:
            return 0.0
        return self.counters.get(BLOCKS_READ, 0.0) / self.ops


@dataclass
class Testbed:
    """One database under measurement."""

    #: Not a pytest test class (collection hint).
    __test__ = False

    options: Options
    device: Optional[BlockDevice] = None
    seed: int = 0
    #: Attach a tracer so phases report latency percentiles.
    observe: bool = True
    #: Keep every Nth root span verbatim (0 = exemplars only).
    sample_every: int = 0
    #: Metrics sink; None means the process-wide default registry.
    registry: Optional[MetricsRegistry] = None
    db: LSMTree = field(init=False)
    tracer: Optional[Tracer] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.observe:
            if self.registry is None:
                self.registry = global_registry()
            self.tracer = Tracer(sample_every=self.sample_every,
                                 registry=self.registry)
        self.db = LSMTree(self.options, device=self.device,
                          tracer=self.tracer)

    # -- loading -----------------------------------------------------------

    def value_for(self, key: int) -> bytes:
        """Deterministic value payload for ``key`` (fits the capacity)."""
        raw = b"v%x" % key
        return raw[: self.options.value_capacity]

    def bulk_load(self, keys: Sequence[int]) -> None:
        """Offline leveled fill (no compaction churn) for read phases."""
        self.db.bulk_ingest(keys, value_for=self.value_for, seed=self.seed)

    def level_keys(self) -> Dict[int, List[int]]:
        """Per-level key sets recorded by the last bulk load."""
        return self.db.last_ingest_levels

    def settle(self) -> None:
        """Flush the buffer and run every due compaction."""
        self.db.flush()
        self.db.maybe_compact()

    # -- measured phases -----------------------------------------------------

    def _hist_base(self) -> Optional[Dict[str, object]]:
        """Histogram baseline so a phase reports only its own samples."""
        if self.tracer is None or self.registry is None:
            return None
        return self.registry.snapshot()

    def _phase_percentiles(self, base) -> Optional[Dict[str, Dict[str,
                                                                  float]]]:
        if base is None or self.registry is None:
            return None
        return {op: histogram.percentiles()
                for op, histogram in self.registry.delta_since(base).items()}

    def _phase(self, before: StatsSnapshot, ops: int,
               base=None, windows=None) -> PhaseMetrics:
        delta = before.delta(self.db.stats)
        stage_us = {stage.value: us for stage, us in delta.stage_us.items()}
        return PhaseMetrics(ops=ops,
                            total_us=delta.read_time(),
                            stage_us=stage_us,
                            counters=dict(delta.counters),
                            percentiles=self._phase_percentiles(base),
                            windows=windows)

    def run_point_lookups(self, keys: Sequence[int]) -> PhaseMetrics:
        """Execute point lookups and return read-path metrics."""
        before = self.db.stats.snapshot()
        base = self._hist_base()
        get = self.db.get
        for key in keys:
            get(key)
        return self._phase(before, len(keys), base)

    def run_range_lookups(self, start_keys: Sequence[int],
                          length: int) -> PhaseMetrics:
        """Execute fixed-length scans from each start key."""
        before = self.db.stats.snapshot()
        base = self._hist_base()
        scan = self.db.scan
        for key in start_keys:
            scan(key, length)
        return self._phase(before, len(start_keys), base)

    def run_writes(self, keys: Sequence[int]) -> PhaseMetrics:
        """Execute puts (write-only phase for compaction studies).

        ``total_us`` for a write phase is write-path plus compaction
        time rather than read time.
        """
        before = self.db.stats.snapshot()
        base = self._hist_base()
        put = self.db.put
        value_for = self.value_for
        for key in keys:
            put(key, value_for(key))
        self.settle()
        delta = before.delta(self.db.stats)
        stage_us = {stage.value: us for stage, us in delta.stage_us.items()}
        compaction_us = sum(delta.stage_us.get(stage, 0.0)
                            for stage in COMPACTION_STAGES)
        write_us = delta.stage_us.get(Stage.WRITE_PATH, 0.0)
        return PhaseMetrics(ops=len(keys),
                            total_us=compaction_us + write_us,
                            stage_us=stage_us,
                            counters=dict(delta.counters),
                            percentiles=self._phase_percentiles(base))

    def run_ycsb(self, workload: YCSBWorkload, n_ops: int,
                 window_ops: int = 0) -> PhaseMetrics:
        """Execute a YCSB operation stream; returns whole-phase metrics.

        Operations run one at a time through
        :func:`repro.workloads.ycsb.replay`.  ``window_ops > 0`` (with
        tracing on) closes a throughput/percentile window every that
        many operations; the rows come back in ``PhaseMetrics.windows``
        and stay in the registry for export.
        """
        before = self.db.stats.snapshot()
        base = self._hist_base()
        db = self.db
        window = None
        windows_from = 0
        if window_ops and self.tracer is not None and self.registry:
            windows_from = len(self.registry.windows)
            window = MetricsWindow(self.registry, db.stats.total_time,
                                   window_ops)
        replay(db, workload.operations(n_ops), self.value_for,
               window=window)
        windows = None
        if window is not None:
            window.finish()
            windows = list(self.registry.windows[windows_from:])
        delta = before.delta(db.stats)
        stage_us = {stage.value: us for stage, us in delta.stage_us.items()}
        return PhaseMetrics(ops=n_ops,
                            total_us=delta.total_time(),
                            stage_us=stage_us,
                            counters=dict(delta.counters),
                            percentiles=self._phase_percentiles(base),
                            windows=windows)

    def close(self) -> None:
        """Release the database."""
        self.db.close()
