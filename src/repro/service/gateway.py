"""The overload-robust request gateway in front of :class:`ShardedDB`.

The paper drives its trees *closed-loop*, so offered load can never
exceed capacity.  :meth:`Gateway.run` drives *open-loop* arrivals (a
:mod:`repro.workloads.arrivals` plan) on the fleet's
:class:`~repro.kv.VirtualClock`, each shard a single server draining a
bounded FIFO queue, with the serving tier's defenses, all in
deterministic simulated time: depth-based shedding
(:class:`ShedError`), expired-at-dequeue drops, per-request deadlines
carried into the read path by a
:class:`~repro.lsm.deadline.DeadlineToken`, per-shard circuit breakers
(:class:`CircuitOpenError`) and a client retry budget that keeps a
fault burst at saturation from becoming a retry storm.  The closed-loop
calls (:meth:`Gateway.get`, :meth:`Gateway.multi_get`,
:meth:`Gateway.write`) are thin adapters over the loop's own admission
check, deadline scope and completion rule.

Counters (``overload.*``/``queue.*``/``breaker.*``/``retry.*``) land in
the gateway's own :class:`~repro.storage.stats.Stats`; the
``gw.queue_delay``/``gw.service``/``gw.request`` histograms split tail
latency into queueing vs. service.  See ``docs/OVERLOAD.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidOptionError,
    ReproError,
    ShedError,
    TransientIOError,
)
from repro.lsm.deadline import DeadlineToken
from repro.lsm.write_batch import WriteBatch
from repro.obs.registry import MetricsRegistry
from repro.service.sharded import ShardedDB
from repro.storage.stats import (
    BREAKER_CLOSES,
    BREAKER_HALF_OPENS,
    BREAKER_OPENS,
    BREAKER_REJECTED,
    OVERLOAD_ADMITTED,
    OVERLOAD_COMPLETED,
    OVERLOAD_COMPLETED_LATE,
    OVERLOAD_DEADLINE_EXCEEDED,
    OVERLOAD_EXPIRED_AT_DEQUEUE,
    OVERLOAD_FAILED,
    OVERLOAD_REQUESTS,
    OVERLOAD_SHED,
    QUEUE_DELAY_US,
    QUEUE_ENQUEUES,
    RETRY_BUDGET_DENIED,
    RETRY_BUDGET_SPENT,
    RETRY_CLIENT_RESUBMITS,
    Stats,
)

#: Histogram names the gateway records into its registry.
QUEUE_DELAY_OP = "gw.queue_delay"
SERVICE_OP = "gw.service"
REQUEST_OP = "gw.request"

#: Terminal outcomes a request can reach (report vocabulary).
OUTCOME_OK = "ok"
OUTCOME_LATE = "late"
OUTCOME_SHED = "shed"
OUTCOME_EXPIRED = "expired"
OUTCOME_DEADLINE = "deadline"
OUTCOME_BREAKER = "breaker"
OUTCOME_FAILED = "failed"

#: Fixed per-request dispatch overhead added to engine service time,
#: so even cache-hit operations occupy the server for a nonzero
#: interval and shard capacity stays finite.
SERVICE_OVERHEAD_US = 2.0
#: Circuit breaker: completions kept in the sliding window, the number
#: that must be in view before it may open, the error fraction that
#: opens it, and the consecutive half-open successes that close it.
BREAKER_WINDOW = 32
BREAKER_MIN_SAMPLES = 8
BREAKER_ERROR_THRESHOLD = 0.5
BREAKER_HALF_OPEN_PROBES = 2


@dataclass
class GatewayConfig:
    """Tuning knobs for admission control, breakers and retry budgets.

    Defaults are sized for the smoke-scale experiment; see
    ``docs/OVERLOAD.md`` for how each knob moves the goodput curve.
    """

    #: Bounded FIFO depth per shard; arrivals beyond it are shed.
    queue_depth: int = 64
    #: Deadline assigned by helpers when a request doesn't carry one.
    default_deadline_us: float = 20_000.0
    #: Circuit breaker: disable to study pure queueing.
    breaker_enabled: bool = True
    breaker_cooldown_us: float = 100_000.0
    #: Retry budget: ``enabled=False`` is the retry-storm control arm
    #: (unlimited client retries, as a naive client would).
    retry_budget_enabled: bool = True
    retry_budget_ratio: float = 0.1
    retry_budget_burst: float = 10.0
    max_client_retries: int = 3

    def validate(self) -> None:
        """Reject inconsistent knobs with :class:`InvalidOptionError`."""
        if self.queue_depth < 1:
            raise InvalidOptionError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.default_deadline_us <= 0:
            raise InvalidOptionError("default_deadline_us must be > 0")
        if self.retry_budget_ratio < 0 or self.retry_budget_burst < 0:
            raise InvalidOptionError("retry budget parameters must be >= 0")
        if self.max_client_retries < 0:
            raise InvalidOptionError("max_client_retries must be >= 0")


class RetryBudget:
    """gRPC-style token bucket capping client retry amplification.

    Every admitted first-attempt request earns ``ratio`` tokens (up to
    ``burst``); every retry spends one whole token.  At a 10% ratio the
    fleet-wide retry rate can never exceed ~10% of successful traffic —
    the property that keeps a transient fault burst at saturation from
    amplifying into a metastable retry storm.  Disabled, the budget
    always grants (the experiment's control arm).
    """

    def __init__(self, enabled: bool, ratio: float, burst: float,
                 stats: Stats) -> None:
        self.enabled = enabled
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst
        self.stats = stats

    def on_request(self) -> None:
        """Earn ``ratio`` tokens for one admitted first attempt."""
        self.tokens = min(self.burst, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if not self.enabled:
            self.stats.add(RETRY_BUDGET_SPENT)
            return True
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.stats.add(RETRY_BUDGET_SPENT)
            return True
        self.stats.add(RETRY_BUDGET_DENIED)
        return False


class CircuitBreaker:
    """Per-shard breaker: CLOSED → OPEN → HALF_OPEN → CLOSED.

    Closed, it watches a sliding window of :data:`BREAKER_WINDOW`
    completions; once at least :data:`BREAKER_MIN_SAMPLES` are in view
    and the error fraction reaches :data:`BREAKER_ERROR_THRESHOLD`, it
    opens and every request fails fast with
    :class:`CircuitOpenError` — microseconds instead of queueing behind
    a sick shard.  After ``cooldown_us`` it goes half-open and admits
    probe requests; :data:`BREAKER_HALF_OPEN_PROBES` consecutive
    successes close it, any probe failure re-opens it.  A shard whose
    ``health()`` degrades to read-only force-opens the breaker for
    writes-at-fault reasons recorded in ``reason``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, shard: int, config: GatewayConfig,
                 stats: Stats) -> None:
        self.shard = shard
        self.config = config
        self.stats = stats
        self.state = self.CLOSED
        self.window: Deque[bool] = deque(maxlen=BREAKER_WINDOW)
        #: Failed completions in ``window``, kept as entries come and go.
        self._errors = 0
        self.opened_at_us = 0.0
        self.reason = ""
        self._probe_successes = 0

    def allow(self, now_us: float) -> bool:
        """May a request pass to this shard right now?"""
        if not self.config.breaker_enabled:
            return True
        if self.state == self.OPEN:
            if now_us - self.opened_at_us >= self.config.breaker_cooldown_us:
                self.state = self.HALF_OPEN
                self._probe_successes = 0
                self.stats.add(BREAKER_HALF_OPENS)
                return True
            return False
        return True

    def record(self, ok: bool, now_us: float) -> None:
        """Feed one completion outcome into the state machine."""
        if not self.config.breaker_enabled:
            return
        if self.state == self.HALF_OPEN:
            if ok:
                self._probe_successes += 1
                if self._probe_successes >= BREAKER_HALF_OPEN_PROBES:
                    self.state = self.CLOSED
                    self._clear_window()
                    self.reason = ""
                    self.stats.add(BREAKER_CLOSES)
            else:
                self._open(now_us, "half-open probe failed")
            return
        if self.state == self.OPEN:
            # A straggler completing after the breaker opened changes
            # nothing; the cooldown clock is already running.
            return
        window = self.window
        if len(window) == window.maxlen and not window[0]:
            self._errors -= 1  # the append below evicts that error
        window.append(ok)
        if not ok:
            self._errors += 1
        if len(window) >= BREAKER_MIN_SAMPLES:
            errors = self._errors
            if errors / len(window) >= BREAKER_ERROR_THRESHOLD:
                self._open(now_us, f"error rate {errors}/{len(window)}")

    def force_open(self, now_us: float, reason: str) -> None:
        """Open immediately (shard ``health()`` says it is sick)."""
        if self.config.breaker_enabled and self.state != self.OPEN:
            self._open(now_us, reason)

    def _open(self, now_us: float, reason: str) -> None:
        self.state = self.OPEN
        self.opened_at_us = now_us
        self.reason = reason
        self._clear_window()
        self.stats.add(BREAKER_OPENS)

    def _clear_window(self) -> None:
        self.window.clear()
        self._errors = 0


class Request:
    """One operation moving through the gateway simulation."""

    __slots__ = ("op", "key", "value", "arrival_us", "deadline_us",
                 "attempt", "seq", "shard", "enqueued_us", "start_us",
                 "finish_us", "outcome", "error", "result")

    def __init__(self, op: str, key: int, arrival_us: float,
                 deadline_us: float, value: bytes = b"",
                 attempt: int = 0) -> None:
        if op not in ("get", "put"):
            raise InvalidOptionError(f"unsupported gateway op: {op!r}")
        self.op = op
        self.key = key
        self.value = value
        self.arrival_us = arrival_us
        self.deadline_us = deadline_us
        self.attempt = attempt
        self.seq = -1
        self.shard = -1
        self.enqueued_us = arrival_us
        self.start_us = -1.0
        self.finish_us = -1.0
        self.outcome: Optional[str] = None
        self.error: Optional[ReproError] = None
        self.result: Optional[bytes] = None


class _ShardServer:
    """Single-server queueing state for one shard."""

    __slots__ = ("queue", "busy_until")

    def __init__(self) -> None:
        self.queue: Deque[Request] = deque()
        self.busy_until = -1.0

    def busy(self, now_us: float) -> bool:
        return self.busy_until > now_us


@dataclass
class GatewayReport:
    """Deterministic summary of one open-loop run."""

    horizon_us: float
    counters: Dict[str, float]
    outcomes: Dict[str, int]
    percentiles: Dict[str, Dict[str, float]]
    retry_tokens_left: float = 0.0

    def rate_per_sec(self, outcome: str) -> float:
        """Requests/s reaching ``outcome`` over the run horizon."""
        if self.horizon_us <= 0:
            return 0.0
        return self.outcomes.get(outcome, 0) * 1e6 / self.horizon_us

    @property
    def goodput_per_sec(self) -> float:
        """Completions *within deadline* per second — the honest rate."""
        return self.rate_per_sec(OUTCOME_OK)

    @property
    def requests(self) -> int:
        """First-attempt arrivals (retries are not new requests)."""
        return int(self.counters.get(OVERLOAD_REQUESTS, 0))

    def fraction(self, outcome: str) -> float:
        """Share of first-attempt requests ending in ``outcome``."""
        return (self.outcomes.get(outcome, 0) / self.requests
                if self.requests else 0.0)

    def to_json_dict(self) -> Dict[str, object]:
        """Canonical form: equal runs serialize byte-identically."""
        return {
            "horizon_us": self.horizon_us,
            "counters": dict(sorted(self.counters.items())),
            "outcomes": dict(sorted(self.outcomes.items())),
            "percentiles": {op: dict(sorted(row.items()))
                            for op, row in sorted(self.percentiles.items())},
            "retry_tokens_left": self.retry_tokens_left,
        }


#: Event-kind ordering: completions before arrivals at the same
#: instant, so a server freed at t can absorb the arrival at t;
#: heartbeat ticks come last so the failure detector sees the
#: instant's completed state.
_COMPLETE, _ARRIVAL, _TICK = 0, 1, 2


class Gateway:
    """Overload control in front of one :class:`ShardedDB`.

    One gateway owns its database's admission state: per-shard bounded
    queues, per-shard breakers, one shared retry budget, its own
    :class:`Stats` (``overload.*``/``queue.*``/``breaker.*``/
    ``retry.*`` counters) and its own metrics registry (queue-delay /
    service / end-to-end histograms).  Attaching the gateway registers
    it with the database so ``ShardedDB.health()`` reports breaker and
    queue state per shard.
    """

    def __init__(self, db: ShardedDB,
                 config: Optional[GatewayConfig] = None) -> None:
        self.db = db
        self.config = config if config is not None else GatewayConfig()
        self.config.validate()
        # The fleet's clock, which replica groups' failure detectors
        # also read: request scheduling and failover share one timeline.
        self.clock = db.clock
        self.stats = Stats()
        self.registry = MetricsRegistry()
        self.breakers = [CircuitBreaker(i, self.config, self.stats)
                         for i in range(db.num_shards)]
        self.budget = RetryBudget(self.config.retry_budget_enabled,
                                  self.config.retry_budget_ratio,
                                  self.config.retry_budget_burst,
                                  self.stats)
        self.servers = [_ShardServer() for _ in range(db.num_shards)]
        self.shard_counters: List[Dict[str, int]] = [
            {"shed": 0, "expired": 0, "deadline": 0}
            for _ in range(db.num_shards)]
        self._seq = 0
        db._gateway = self

    # -- synchronous (closed-loop) API ---------------------------------

    def get(self, key: int,
            deadline_us: Optional[float] = None) -> Optional[bytes]:
        """Point lookup with breaker check and deadline propagation."""
        shard = self.db.shard_for(key)
        now = self.clock.now_us
        rejected = self._admit(shard, now)
        if rejected is not None:
            raise rejected
        budget = (deadline_us if deadline_us is not None
                  else self.config.default_deadline_us)
        tree = self.db.shards[shard]
        try:
            value = self._scoped(tree, budget, now + budget, tree.get, key)
        except ReproError as exc:
            self._settle(shard, exc, now)
            raise
        self._settle(shard, None, now)
        return value

    def multi_get(self, keys: Sequence[int],
                  deadline_us: Optional[float] = None,
                  errors: Optional[Dict[int, ReproError]] = None,
                  ) -> List[Optional[bytes]]:
        """Batched lookup that degrades per key under deadline pressure.

        With an ``errors`` dict, a shard sub-batch that runs out of
        budget (or a shard behind an open breaker) surfaces per-key
        typed errors while every other shard's keys still resolve —
        the existing partial-result protocol extended to overload.
        Each sub-batch completes like one :meth:`get`: it ends in the
        error it raised, in a deadline miss when any of its keys ran out
        of budget, and in success otherwise (keys isolated in ``errors``
        for other reasons still let the shard answer).
        """
        budget = (deadline_us if deadline_us is not None
                  else self.config.default_deadline_us)
        now = self.clock.now_us
        resolved: Dict[int, Optional[bytes]] = {}
        for shard, part in enumerate(self.db.router.partition_keys(keys)):
            if not part:
                continue
            rejected = self._admit(shard, now, len(part))
            if rejected is not None:
                if errors is None:
                    raise rejected
                for key in part:
                    errors[key] = rejected
                    resolved[key] = None
                continue
            tree = self.db.shards[shard]
            try:
                values = self._scoped(
                    tree, budget, now + budget,
                    partial(tree.multi_get, part, errors=errors))
            except ReproError as exc:
                self._settle(shard, exc, now)
                raise
            resolved.update(zip(part, values))
            overdue = next(
                (errors[key] for key in part
                 if isinstance(errors.get(key), DeadlineExceededError)),
                None) if errors else None
            self._settle(shard, overdue, now)
        return [resolved[key] for key in keys]

    def write(self, batch: WriteBatch) -> int:
        """Apply ``batch`` only if *every* touched shard will accept it.

        Each touched shard's breaker must admit it, then
        :meth:`ShardedDB.write` pre-flights every shard before the first
        group commit: nothing is applied unless all of it is.  Only
        success is settled per shard, since a refusal from the fleet
        does not say which shard refused.
        """
        now = self.clock.now_us
        touched = sorted(self.db.router.split(batch))
        for shard in touched:
            self._refresh_breaker_from_health(shard, now)
            rejected = self._admit(shard, now)
            if rejected is not None:
                raise rejected
        applied = self.db.write(batch)
        for shard in touched:
            self._settle(shard, None, now)
        return applied

    # -- open-loop simulation ------------------------------------------

    def run(self, requests: Sequence[Request]) -> GatewayReport:
        """Drive an open-loop arrival plan to completion.

        Event-driven: a heap orders arrival and completion events by
        ``(time, kind, seq)`` — deterministic for a fixed plan, no
        wall clock.  Each shard is one server; service time is the
        simulated microseconds the engine charges for the operation
        plus :data:`SERVICE_OVERHEAD_US`.  Transient engine failures may
        be resubmitted (client retry) while the retry budget and
        ``max_client_retries`` allow.
        """
        heap: List[Tuple[float, int, int, Request]] = []
        for req in requests:
            self._push(heap, req.arrival_us, _ARRIVAL, req)
        tick_every = (self.db.replication.heartbeat_interval_us
                      if self.db.replication is not None else None)
        if tick_every is not None and heap:
            # Replicated fleet: interleave failure-detector ticks with
            # the request schedule, so failovers happen mid-load at
            # deterministic instants.
            self._push(heap, self.clock.now_us + tick_every, _TICK, None)
        outcomes: Dict[str, int] = {}
        horizon = 0.0
        while heap:
            t_us, kind, _, req = heappop(heap)
            self.clock.advance_to(t_us)
            if kind == _TICK:
                self.db.tick(t_us)
                if heap:
                    # Stop ticking once the last request resolved; the
                    # run ends when the workload does.
                    self._push(heap, t_us + tick_every, _TICK, None)
                continue
            horizon = max(horizon, t_us)
            if kind == _ARRIVAL:
                self._arrive(heap, req, t_us, outcomes)
            else:
                self._complete(heap, req, t_us, outcomes)
        return GatewayReport(
            horizon_us=horizon,
            counters=dict(self.stats.counters),
            outcomes=outcomes,
            percentiles={op: self.registry.histograms[op].percentiles()
                         for op in self.registry.ops()},
            retry_tokens_left=self.budget.tokens,
        )

    def _push(self, heap, t_us: float, kind: int, req: Request) -> None:
        self._seq += 1
        heappush(heap, (t_us, kind, self._seq, req))

    def _finish(self, req: Request, outcome: str, now_us: float,
                outcomes: Dict[str, int]) -> None:
        req.outcome = outcome
        req.finish_us = now_us
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        self.registry.record_op(REQUEST_OP, max(0.0, now_us - req.arrival_us))

    def _arrive(self, heap, req: Request, now_us: float,
                outcomes: Dict[str, int]) -> None:
        shard = self.db.shard_for(req.key)
        req.shard = shard
        if req.attempt == 0:
            self.stats.add(OVERLOAD_REQUESTS)
        self._refresh_breaker_from_health(shard, now_us)
        req.error = self._admit(shard, now_us)
        if req.error is not None:
            # Fail fast: a breaker rejection costs microseconds, not a
            # queue slot, and is terminal (retrying an open breaker is
            # exactly the amplification the breaker exists to stop).
            self._finish(req, OUTCOME_BREAKER, now_us, outcomes)
            return
        server = self.servers[shard]
        if server.busy(now_us) and \
                len(server.queue) >= self.config.queue_depth:
            self.stats.add(OVERLOAD_SHED)
            self.shard_counters[shard]["shed"] += 1
            req.error = ShedError(shard, self.config.queue_depth)
            self._finish(req, OUTCOME_SHED, now_us, outcomes)
            return
        self.stats.add(OVERLOAD_ADMITTED)
        if req.attempt == 0:
            self.budget.on_request()
        req.enqueued_us = now_us
        if server.busy(now_us):
            self.stats.add(QUEUE_ENQUEUES)
            server.queue.append(req)
        else:
            self._start_service(heap, shard, req, now_us, outcomes)

    def _start_service(self, heap, shard: int, req: Request,
                       now_us: float, outcomes: Dict[str, int]) -> None:
        """Put ``req`` on shard's server; assumes the server is idle."""
        delay_us = max(0.0, now_us - req.enqueued_us)
        self.stats.add(QUEUE_DELAY_US, delay_us)
        self.registry.record_op(QUEUE_DELAY_OP, delay_us)
        req.start_us = now_us
        tree = self.db.shards[shard]
        before = tree.stats.total_time()
        budget_us = req.deadline_us - now_us
        try:
            if req.op == "get":
                req.result = self._scoped(tree, budget_us, req.deadline_us,
                                          tree.get, req.key)
            else:
                self._scoped(tree, budget_us, req.deadline_us,
                             tree.put, req.key, req.value)
        except ReproError as exc:
            req.error = exc
        service_us = (tree.stats.total_time() - before
                      + SERVICE_OVERHEAD_US)
        self.registry.record_op(SERVICE_OP, service_us)
        self.servers[shard].busy_until = now_us + service_us
        self._push(heap, now_us + service_us, _COMPLETE, req)

    def _complete(self, heap, req: Request, now_us: float,
                  outcomes: Dict[str, int]) -> None:
        shard = req.shard
        error = req.error
        self._settle(shard, error, now_us)
        if error is None:
            if now_us <= req.deadline_us:
                self.stats.add(OVERLOAD_COMPLETED)
                self._finish(req, OUTCOME_OK, now_us, outcomes)
            else:
                # The work finished, but after the client stopped
                # waiting — throughput, not goodput.
                self.stats.add(OVERLOAD_COMPLETED_LATE)
                self._finish(req, OUTCOME_LATE, now_us, outcomes)
        elif isinstance(error, DeadlineExceededError):
            # Abandoned mid-operation by the engine's checkpoints; the
            # partial service time was already charged to the server.
            self._finish(req, OUTCOME_DEADLINE, now_us, outcomes)
        elif isinstance(error, TransientIOError) and \
                req.attempt < self.config.max_client_retries and \
                now_us < req.deadline_us and self.budget.try_spend():
            self.stats.add(RETRY_CLIENT_RESUBMITS)
            retry = Request(req.op, req.key, req.arrival_us,
                            req.deadline_us, value=req.value,
                            attempt=req.attempt + 1)
            retry.seq = req.seq
            self._push(heap, now_us, _ARRIVAL, retry)
        else:
            self.stats.add(OVERLOAD_FAILED)
            self._finish(req, OUTCOME_FAILED, now_us, outcomes)
        self._drain(heap, shard, now_us, outcomes)

    def _drain(self, heap, shard: int, now_us: float,
               outcomes: Dict[str, int]) -> None:
        """Pull queued work onto a freed server, dropping the expired."""
        server = self.servers[shard]
        while server.queue and not server.busy(now_us):
            nxt = server.queue.popleft()
            delay_us = max(0.0, now_us - nxt.enqueued_us)
            if now_us > nxt.deadline_us:
                # Expired at dequeue: the deadline passed while the
                # request sat in queue — drop it without charging the
                # server a single microsecond of service.
                self.stats.add(OVERLOAD_EXPIRED_AT_DEQUEUE)
                self.stats.add(QUEUE_DELAY_US, delay_us)
                self.registry.record_op(QUEUE_DELAY_OP, delay_us)
                self.shard_counters[shard]["expired"] += 1
                nxt.error = DeadlineExceededError(
                    nxt.deadline_us, now_us, where="queue")
                self._finish(nxt, OUTCOME_EXPIRED, now_us, outcomes)
                continue
            self._start_service(heap, shard, nxt, now_us, outcomes)

    # -- one request's guards: shared by the sync calls and the loop ---

    def _admit(self, shard: int, now_us: float,
               requests: int = 1) -> Optional[CircuitOpenError]:
        """Admission: None when ``shard``'s breaker lets ``requests``
        through, else their (counted) :class:`CircuitOpenError`."""
        breaker = self.breakers[shard]
        if breaker.allow(now_us):
            return None
        self.stats.add(BREAKER_REJECTED, requests)
        return CircuitOpenError(shard, breaker.reason)

    @staticmethod
    def _scoped(tree, budget_us: float, deadline_us: float, op, *args):
        """Deadline scope: run ``op`` with a token of ``budget_us``
        ending at absolute ``deadline_us`` attached to ``tree``."""
        tree.deadline = DeadlineToken(tree.stats, budget_us,
                                      deadline_us=deadline_us)
        try:
            return op(*args)
        finally:
            tree.deadline = None

    def _settle(self, shard: int, error: Optional[ReproError],
                now_us: float) -> None:
        """Completion rule: success and failure feed the breaker; a
        deadline miss is counted and leaves the breaker alone."""
        if error is None:
            self.breakers[shard].record(True, now_us)
        elif isinstance(error, DeadlineExceededError):
            self.stats.add(OVERLOAD_DEADLINE_EXCEEDED)
            self.shard_counters[shard]["deadline"] += 1
        else:
            self.breakers[shard].record(False, now_us)

    def _refresh_breaker_from_health(self, shard: int,
                                     now_us: float) -> None:
        """Force the breaker open when the shard itself reports sick."""
        tree = self.db.shards[shard]
        if tree.read_only:
            self.breakers[shard].force_open(
                now_us, f"shard read-only: {tree.read_only_reason}")

    def shard_health(self, shard: int) -> Dict[str, object]:
        """Overload-side health fields merged into ``ShardedDB.health()``.

        A replicated shard's roles and lag sit in the same entry, under
        the ``replication`` key its group's ``health()`` contributes.
        """
        counters = self.shard_counters[shard]
        return {
            "breaker": self.breakers[shard].state,
            "queue_depth": len(self.servers[shard].queue),
            "shed": counters["shed"],
            "expired": counters["expired"],
            "deadline_exceeded": counters["deadline"],
        }
