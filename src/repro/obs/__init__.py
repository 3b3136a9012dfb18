"""Observability: per-op trace spans, latency histograms, exporters.

The measurement layer on top of :mod:`repro.storage.stats`:

* :class:`~repro.obs.histogram.Histogram` — HDR-style log-bucketed
  latency distributions with exact merge (p50/p90/p99/p999);
* :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.Span` —
  per-operation waterfalls built from ``Stats.charge`` events, with
  1-in-N sampling and top-K slowest exemplars;
* :class:`~repro.obs.registry.MetricsRegistry` — the sink holding
  histograms, exemplars, sampled spans and windowed snapshots, with
  JSON and Prometheus text exporters.

Attach a tracer with ``db.stats.attach_tracer(tracer)`` (or let
:class:`~repro.core.testbed.Testbed` /
:class:`~repro.service.sharded.ShardedDB` do it by default).  Tracing
is pure observation — simulated-time totals are byte-identical with it
on or off.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.histogram import Histogram, percentile_keys
from repro.obs.registry import (
    MetricsRegistry,
    MetricsWindow,
    global_registry,
)
from repro.obs.trace import OpType, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "MetricsWindow",
    "OpType",
    "Span",
    "Tracer",
    "global_registry",
    "percentile_keys",
]
