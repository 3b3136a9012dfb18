"""Per-operation trace spans: Table-1-style waterfalls for single ops.

The stats registry can only report *sums* per stage; a :class:`Tracer`
attributes them to individual operations.  Every traced operation —
get, multi_get, put, delete, write-batch, scan, flush, compaction,
recovery — opens a root :class:`Span`; while it is active, every
:meth:`repro.storage.stats.Stats.charge` lands in the span's per-stage
waterfall and every :meth:`~repro.storage.stats.Stats.add` attaches to
its counters, so one sampled slow lookup carries its own latency
breakdown (how much prediction, how much I/O, how many bloom probes,
how many cache hits).

Operations nest — a ``put`` that fills the memtable triggers a
``flush`` which may trigger ``compaction``s — and so do spans: charges
route to *every* span on the stack, so a parent's total includes its
children's work (exactly the write stall a tail-latency report must
show), while each child still records its own latency under its own
op type.

Tracing is pure observation: a tracer never charges time or counters
into :class:`~repro.storage.stats.Stats`, so totals with tracing on
are byte-identical to totals without it (shape-checked by the ``obs``
experiment).  Span *retention* is sampled 1-in-N
(``sample_every``); histograms see every operation regardless, and the
registry always keeps the top-K slowest root spans as exemplars.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.obs.registry import MetricsRegistry


class OpType(str, enum.Enum):
    """Root-span operation labels."""

    GET = "get"
    MULTI_GET = "multi_get"
    PUT = "put"
    DELETE = "delete"
    WRITE_BATCH = "write_batch"
    SCAN = "scan"
    FLUSH = "flush"
    COMPACTION = "compaction"
    RECOVERY = "recovery"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Span:
    """One traced operation: its waterfall, counters and children."""

    __slots__ = ("op", "index", "detail", "total_us", "stage_us",
                 "counters", "children")

    def __init__(self, op: str, index: int, detail: str = "") -> None:
        self.op = op
        self.index = index
        self.detail = detail
        self.total_us = 0.0
        #: Stage-name -> simulated us (the per-op Table 1 waterfall).
        self.stage_us: Dict[str, float] = {}
        #: Counter deltas attributed to this op (bloom probes, blocks
        #: read, cache hits, ...).
        self.counters: Dict[str, float] = {}
        #: Nested op spans (a put's flush, a flush's compactions).
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump, children included."""
        return {
            "op": self.op,
            "index": self.index,
            "detail": self.detail,
            "total_us": self.total_us,
            "stage_us": dict(sorted(self.stage_us.items())),
            "counters": dict(sorted(self.counters.items())),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.op}#{self.index}, {self.total_us:.2f}us, "
                f"{len(self.children)} children)")


class Tracer:
    """Opens/closes spans and routes stats events into the active ones.

    ``sample_every=N`` keeps every N-th root span in the registry's
    bounded ring buffer (0 keeps none — histograms and exemplars still
    see every op); ``registry`` receives per-op latencies, exemplars
    and sampled spans, and defaults to a private one.
    """

    def __init__(self, sample_every: int = 0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0: {sample_every}")
        self.sample_every = sample_every
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stack: List[Span] = []
        self._root_seq = 0

    # -- span lifecycle ------------------------------------------------

    def begin(self, op: "OpType | str", detail: str = "") -> Span:
        """Open a span for ``op``; nested under any active span."""
        span = Span(str(op), self._root_seq + len(self._stack), detail)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``; record its latency, retain it if selected."""
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(f"span stack corruption closing {span!r}")
        self._stack.pop()
        self.registry.record_op(span.op, span.total_us)
        if self._stack:
            self._stack[-1].children.append(span)
            return
        self._root_seq += 1
        self.registry.offer_exemplar(span)
        if self.sample_every and (span.index % self.sample_every == 0):
            self.registry.keep_sampled(span)

    # -- stats hooks (called by Stats.charge / Stats.add) --------------

    def on_charge(self, stage, us: float) -> None:
        """Attribute a simulated-time charge to every active span."""
        name = stage.value
        for span in self._stack:
            span.total_us += us
            span.stage_us[name] = span.stage_us.get(name, 0.0) + us

    def on_count(self, name: str, amount: float) -> None:
        """Attribute a counter increment to every active span."""
        for span in self._stack:
            span.counters[name] = span.counters.get(name, 0.0) + amount
