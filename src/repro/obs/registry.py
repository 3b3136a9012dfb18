"""MetricsRegistry: histograms, exemplars, windows, and exporters.

The registry is the sink every :class:`~repro.obs.trace.Tracer` feeds:

* **histograms** — one :class:`~repro.obs.histogram.Histogram` per op
  type, recording every operation's simulated latency (sampling only
  affects span *retention*, never the distributions);
* **exemplars** — a bounded top-K of the slowest root spans seen, each
  carrying its full per-stage waterfall and counters (the "which op
  was slow and why" view);
* **sampled spans** — a bounded ring of 1-in-N root spans kept by the
  tracer's sampling knob;
* **windows** — throughput/percentile snapshots emitted every W ops by
  :class:`MetricsWindow` during ``ycsb.replay`` runs.

``merge`` folds another registry in: histogram bucket counts add
exactly (see :meth:`~repro.obs.histogram.Histogram.merge`), exemplars
are re-offered against the same top-K rule.  That is how
:class:`~repro.service.sharded.ShardedDB` produces fleet-wide
percentiles from per-shard registries without loss.

Exports: :meth:`to_json_dict` (machine-readable, also the payload of
``BENCH_*.json`` files) and :meth:`to_prometheus` (text exposition
format: counters, per-stage time, and one summary per op type).
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.obs.histogram import Histogram, percentile_keys

#: Retention bounds (spans are small; keep the stores strictly bounded).
DEFAULT_EXEMPLARS = 8
DEFAULT_SAMPLED_CAPACITY = 256

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")


def _prom(name: str) -> str:
    """A Prometheus-legal metric/label token."""
    return _PROM_NAME.sub("_", name)


class MetricsRegistry:
    """Per-op histograms plus bounded span retention and exporters."""

    def __init__(self) -> None:
        self.histograms: Dict[str, Histogram] = {}
        self.sampled: Deque[object] = deque(maxlen=DEFAULT_SAMPLED_CAPACITY)
        self.windows: List[Dict[str, float]] = []
        # Min-heap of (total_us, tiebreak, span): the root beats every
        # kept span, so a new span only enters by displacing the
        # fastest exemplar.
        self._exemplar_heap: List[Tuple[float, int, object]] = []
        self._exemplar_seq = 0

    # -- ingestion (tracer-facing) -------------------------------------

    def histogram(self, op: str) -> Histogram:
        """The histogram for ``op`` (created on first use)."""
        histogram = self.histograms.get(op)
        if histogram is None:
            histogram = self.histograms[op] = Histogram()
        return histogram

    def record_op(self, op: str, us: float) -> None:
        """Record one operation's simulated latency."""
        self.histogram(op).record(us)

    def offer_exemplar(self, span) -> None:
        """Keep ``span`` iff it ranks among the top-K slowest so far."""
        self._exemplar_seq += 1
        entry = (span.total_us, self._exemplar_seq, span)
        if len(self._exemplar_heap) < DEFAULT_EXEMPLARS:
            heapq.heappush(self._exemplar_heap, entry)
        elif span.total_us > self._exemplar_heap[0][0]:
            heapq.heapreplace(self._exemplar_heap, entry)

    def keep_sampled(self, span) -> None:
        """Append a 1-in-N sampled span to the bounded ring."""
        self.sampled.append(span)

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: exact histogram merge, exemplars re-ranked."""
        for op, histogram in other.histograms.items():
            self.histogram(op).merge(histogram)
        for _, _, span in sorted(other._exemplar_heap):
            self.offer_exemplar(span)
        self.sampled.extend(other.sampled)
        self.windows.extend(other.windows)

    def snapshot(self) -> Dict[str, Histogram]:
        """Copies of every histogram, for later :meth:`delta_since`."""
        return {op: histogram.copy()
                for op, histogram in self.histograms.items()}

    def delta_since(self, baseline: Dict[str, Histogram]
                    ) -> Dict[str, Histogram]:
        """Per-op histograms of just the samples since ``baseline``."""
        out: Dict[str, Histogram] = {}
        for op, histogram in self.histograms.items():
            before = baseline.get(op)
            delta = histogram.since(before) if before else histogram.copy()
            if delta.count:
                out[op] = delta
        return out

    def reset(self) -> None:
        """Drop every histogram, exemplar, sampled span and window."""
        self.histograms.clear()
        self.sampled.clear()
        self.windows.clear()
        self._exemplar_heap.clear()
        self._exemplar_seq = 0

    # -- reading -------------------------------------------------------

    def exemplars(self) -> List[object]:
        """The kept slowest spans, slowest first."""
        return [span for _, _, span in
                sorted(self._exemplar_heap, reverse=True)]

    def ops(self) -> List[str]:
        """Op types with at least one recorded sample, sorted."""
        return sorted(op for op, histogram in self.histograms.items()
                      if histogram.count)

    def percentile_rows(self) -> List[Dict[str, float]]:
        """One row per op type: count/mean plus the report percentiles."""
        rows = []
        for op in self.ops():
            row: Dict[str, float] = {"op": op}
            row.update(self.histograms[op].percentiles())
            rows.append(row)
        return rows

    # -- exporters -----------------------------------------------------

    def to_json_dict(self, stats=None) -> Dict[str, object]:
        """Machine-readable dump (counters/stages included when given)."""
        doc: Dict[str, object] = {
            "histograms": {op: self.histograms[op].to_dict()
                           for op in self.ops()},
            "exemplars": [span.to_dict() for span in self.exemplars()],
            "sampled_spans": len(self.sampled),
            "windows": list(self.windows),
        }
        if stats is not None:
            doc["counters"] = dict(sorted(stats.counters.items()))
            doc["stage_us"] = {stage.value: us for stage, us in
                               sorted(stats.stage_us.items(),
                                      key=lambda item: item[0].value)}
        return doc

    def to_prometheus(self, stats=None) -> str:
        """Prometheus text exposition format.

        Counters become ``repro_counter_total{name=...}``, stage times
        become ``repro_stage_us_total{stage=...}``, and every op histogram
        becomes a summary (``quantile`` series plus ``_count``/
        ``_sum``).
        """
        lines: List[str] = []
        if stats is not None:
            lines.append("# TYPE repro_counter_total counter")
            for name, amount in sorted(stats.counters.items()):
                lines.append("repro_counter_total"
                             f'{{name="{_prom(name)}"}} {amount:g}')
            lines.append("# TYPE repro_stage_us_total counter")
            for stage, us in sorted(stats.stage_us.items(),
                                    key=lambda item: item[0].value):
                lines.append("repro_stage_us_total"
                             f'{{stage="{_prom(stage.value)}"}} {us:g}')
        metric = "repro_op_latency_us"
        lines.append(f"# TYPE {metric} summary")
        for op in self.ops():
            histogram = self.histograms[op]
            label = _prom(op)
            for name, q in zip(percentile_keys(),
                               (0.50, 0.90, 0.99, 0.999)):
                value = histogram.percentile(q)
                lines.append(f'{metric}{{op="{label}",quantile="{q:g}"}} '
                             f"{value:g}")
            lines.append(f'{metric}_count{{op="{label}"}} {histogram.count}')
            lines.append(f'{metric}_sum{{op="{label}"}} {histogram.sum_us:g}')
        return "\n".join(lines) + "\n"


class MetricsWindow:
    """Windowed throughput/percentile snapshots for replay runs.

    ``tick()`` once per executed operation; every ``window_ops`` ticks
    a snapshot row is appended to the registry's ``windows``: operation
    count, simulated time elapsed in the window, derived throughput
    (ops per simulated second) and the window-local p50/p99 per op
    type.  ``clock`` supplies cumulative simulated microseconds
    (normally ``stats.total_time``; a callable so ShardedDB's ephemeral
    aggregate works too).
    """

    def __init__(self, registry: MetricsRegistry,
                 clock: Callable[[], float], window_ops: int) -> None:
        if window_ops < 1:
            raise ValueError(f"window_ops must be >= 1: {window_ops}")
        self.registry = registry
        self.clock = clock
        self.window_ops = window_ops
        self._ops = 0
        self._window_start_us = clock()
        self._baseline = registry.snapshot()

    def tick(self, n: int = 1) -> None:
        """Count ``n`` executed operations; close full windows."""
        self._ops += n
        while self._ops >= self.window_ops:
            self._close(self.window_ops)
            self._ops -= self.window_ops

    def finish(self) -> None:
        """Close a trailing partial window (no-op when empty)."""
        if self._ops:
            self._close(self._ops)
            self._ops = 0

    def _close(self, ops: int) -> None:
        now_us = self.clock()
        elapsed_us = now_us - self._window_start_us
        row: Dict[str, float] = {
            "window": float(len(self.registry.windows)),
            "ops": float(ops),
            "sim_us": elapsed_us,
            "ops_per_sim_sec": (ops * 1e6 / elapsed_us
                                if elapsed_us > 0 else 0.0),
        }
        for op, delta in self.registry.delta_since(self._baseline).items():
            row[f"{op}_p50_us"] = delta.percentile(0.50)
            row[f"{op}_p99_us"] = delta.percentile(0.99)
        self.registry.windows.append(row)
        self._window_start_us = now_us
        self._baseline = self.registry.snapshot()


#: The process-wide default registry.  Testbeds feed it unless given a
#: private one; the bench CLI resets it around each experiment and
#: renders its percentiles/waterfalls into every report.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The shared default :class:`MetricsRegistry`."""
    return _GLOBAL
