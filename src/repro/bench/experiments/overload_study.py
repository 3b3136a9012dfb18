"""Overload study — goodput vs. offered load under open-loop arrivals.

Beyond the paper: every experiment so far replays workloads
*closed-loop*, so the system is never offered more than it can serve
and queueing is invisible.  This experiment drives the serving tier
(:class:`~repro.service.gateway.Gateway` over a 2-shard
:class:`~repro.service.sharded.ShardedDB`) with deterministic *open
loop* Poisson arrivals and measures what the overload machinery
delivers:

* **Goodput vs. offered load x granularity** — a sweep of offered-load
  multipliers (fractions of the calibrated service capacity) for FILE
  and LEVEL index granularity.  Goodput (completions within deadline)
  must track offered load below the knee and plateau past saturation,
  while the shed fraction rises monotonically — bounded queues turn
  excess load into fast rejections, not unbounded latency.
* **Queueing vs. service tail** — the gateway's ``gw.queue_delay`` and
  ``gw.service`` histograms split p99: at low load service dominates;
  at/past saturation queueing does.  That split is the roadmap's
  queueing-delay-percentile deliverable.
* **Retry budget on/off** — transient read faults (with realistic
  detection *timeouts*, :attr:`FaultPlan.transient_timeout_us`) are
  injected at past-saturation load.  Unbudgeted client retries burn
  server time re-detecting expensive failures and strictly lower
  goodput; the token-bucket budget caps the amplification and keeps
  goodput higher — the metastable-retry-storm defense, quantified.
* **Determinism** — the same seed and arrival plan reproduce the
  byte-identical report; there is no wall clock anywhere in the
  scheduler.
"""

from __future__ import annotations

import json
import random
from typing import List, Optional, Tuple

from repro.bench.report import ExperimentResult, ResultTable
from repro.bench.runner import get_scale
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity
from repro.service.gateway import (
    Gateway,
    GatewayConfig,
    GatewayReport,
    OUTCOME_EXPIRED,
    OUTCOME_OK,
    OUTCOME_SHED,
    QUEUE_DELAY_OP,
    Request,
    SERVICE_OP,
    SERVICE_OVERHEAD_US,
)
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.retry import RetryPolicy
from repro.storage.stats import OVERLOAD_REQUESTS
from repro.workloads.arrivals import PoissonArrivals

EXPERIMENT_ID = "overload"
TITLE = "Overload: open-loop goodput, shedding, deadlines, retry budgets"

#: Shards in the simulated fleet (small, so smoke stays fast).
NUM_SHARDS = 2
#: Offered load as multiples of calibrated capacity.
LOAD_MULTIPLIERS = (0.25, 0.6, 1.0, 1.6, 2.4)
#: Bounded FIFO depth per shard during the sweep.
QUEUE_DEPTH = 32
#: Closed-loop probes used to calibrate mean service time.
CALIBRATION_OPS = 256

#: Retry-arm fault injection: flaky reads whose *detection* costs real
#: simulated time, the ingredient that makes unbudgeted retries burn
#: capacity at saturation.
FAULT_READ_RATE = 0.08
FAULT_FAIL_COUNT = 3
FAULT_TIMEOUT_US = 500.0


def _build_db(scale, kind: IndexKind, boundary: int,
              granularity: Granularity,
              plan: Optional[FaultPlan] = None,
              max_attempts: int = 3) -> ShardedDB:
    """A loaded 2-shard fleet with block caches off.

    Caches are disabled so per-operation service time is a stable
    function of the key alone — load points stay comparable and the
    determinism check is not hostage to cross-run cache warmth.
    """
    options = scale.config(kind, boundary,
                           granularity=granularity).with_changes(
        cache_bytes=0, data_cache_bytes=0,
        retry=RetryPolicy(max_attempts=max_attempts))
    devices = None
    if plan is not None:
        devices = [
            FaultyBlockDevice(MemoryBlockDevice(block_size=options.block_size),
                              FaultPlan(seed=plan.seed + i,
                                        transient_read_rate=plan.transient_read_rate,
                                        transient_fail_count=plan.transient_fail_count,
                                        transient_timeout_us=plan.transient_timeout_us))
            for i in range(NUM_SHARDS)]
    db = ShardedDB(num_shards=NUM_SHARDS, options=options, devices=devices,
                   observe=False)
    keys = list(range(100_000, 100_000 + scale.n_keys))
    db.bulk_ingest(keys, seed=scale.seed)
    return db


def _keys(scale) -> List[int]:
    return list(range(100_000, 100_000 + scale.n_keys))


def _calibrate(scale, kind, boundary, granularity) -> float:
    """Mean closed-loop service µs per get (a throwaway fleet)."""
    db = _build_db(scale, kind, boundary, granularity)
    keys = _keys(scale)
    rng = random.Random(scale.seed)
    before = db.stats.total_time()
    for _ in range(CALIBRATION_OPS):
        db.get(keys[rng.randrange(len(keys))])
    elapsed = db.stats.total_time() - before
    db.close()
    return elapsed / CALIBRATION_OPS + SERVICE_OVERHEAD_US


def _plan(scale, rate_per_sec: float, deadline_us: float,
          count: int) -> List[Request]:
    """A deterministic open-loop request plan: Poisson gets."""
    keys = _keys(scale)
    times = PoissonArrivals(rate_per_sec=rate_per_sec,
                            seed=scale.seed).times(count)
    rng = random.Random(scale.seed + 1)
    return [Request("get", keys[rng.randrange(len(keys))], t,
                    t + deadline_us) for t in times]


def _run_arm(scale, kind, boundary, granularity, rate_per_sec: float,
             deadline_us: float, *, plan: Optional[FaultPlan] = None,
             budget_on: bool = True, max_attempts: int = 3,
             breaker: bool = True) -> GatewayReport:
    """One fresh fleet + gateway driven through one arrival plan."""
    db = _build_db(scale, kind, boundary, granularity, plan=plan,
                   max_attempts=max_attempts)
    config = GatewayConfig(
        queue_depth=QUEUE_DEPTH,
        default_deadline_us=deadline_us,
        retry_budget_enabled=budget_on,
        retry_budget_ratio=0.02,
        retry_budget_burst=3.0,
        max_client_retries=6,
        breaker_enabled=breaker,
    )
    gateway = Gateway(db, config)
    report = gateway.run(_plan(scale, rate_per_sec, deadline_us,
                               scale.n_ops))
    db.close()
    return report


def _sweep(scale, result: ExperimentResult, kind, boundary,
           file_svc: float) -> None:
    table = ResultTable(columns=[
        "granularity", "load_x", "offered_per_sec", "goodput_per_sec",
        "shed_frac", "expired_frac", "deadline_hit_frac", "queue_p99_us",
        "service_p99_us"])
    knee_ok = True
    shed_monotone = True
    queue_split_ok = True
    conserved = True
    for granularity in (Granularity.FILE, Granularity.LEVEL):
        mean_svc = (file_svc if granularity is Granularity.FILE
                    else _calibrate(scale, kind, boundary, granularity))
        capacity = NUM_SHARDS * 1e6 / mean_svc
        # Deadline sized so a near-full queue can expire requests at
        # dequeue (the depth x service product exceeds it), yet ample
        # for unqueued service.
        deadline_us = max(60.0, 20.0 * mean_svc)
        curve: List[Tuple[float, GatewayReport]] = []
        for mult in LOAD_MULTIPLIERS:
            report = _run_arm(scale, kind, boundary, granularity,
                              capacity * mult, deadline_us)
            curve.append((mult, report))
            offered = report.requests * 1e6 / report.horizon_us
            deadline_frac = (report.fraction(OUTCOME_EXPIRED)
                             + report.fraction("deadline")
                             + report.fraction("late"))
            queue_p99 = report.percentiles[QUEUE_DELAY_OP]["p99"]
            service_p99 = report.percentiles[SERVICE_OP]["p99"]
            table.add_row(str(granularity), mult, round(offered, 1),
                          round(report.goodput_per_sec, 1),
                          round(report.fraction(OUTCOME_SHED), 4),
                          round(report.fraction(OUTCOME_EXPIRED), 4),
                          round(deadline_frac, 4),
                          round(queue_p99, 1), round(service_p99, 1))
            conserved = conserved and (
                sum(report.outcomes.values())
                == int(report.counters[OVERLOAD_REQUESTS]))
        # Saturation knee: the curve tracks offered load below the
        # knee and plateaus past it.
        low = curve[0][1]
        mid = curve[2][1]
        top = curve[-1][1]
        low_offered = low.requests * 1e6 / low.horizon_us
        knee_ok = knee_ok and (
            low.goodput_per_sec >= 0.85 * low_offered
            and top.goodput_per_sec <= 1.25 * mid.goodput_per_sec
            and top.fraction(OUTCOME_OK) < low.fraction(OUTCOME_OK))
        sheds = [report.fraction(OUTCOME_SHED) for _, report in curve]
        shed_monotone = shed_monotone and all(
            b >= a - 1e-9 for a, b in zip(sheds, sheds[1:]))
        # Queueing vs. service: negligible queueing below the knee
        # (mean queue delay under mean service), queueing-dominated
        # tail past it (queue p99 above service p99, and grown).
        low_q_mean = low.percentiles[QUEUE_DELAY_OP]["mean"]
        low_s_mean = low.percentiles[SERVICE_OP]["mean"]
        low_q_p99 = low.percentiles[QUEUE_DELAY_OP]["p99"]
        top_q = top.percentiles[QUEUE_DELAY_OP]["p99"]
        top_s = top.percentiles[SERVICE_OP]["p99"]
        queue_split_ok = queue_split_ok and (
            low_q_mean < low_s_mean and top_q > top_s
            and top_q > 3.0 * max(low_q_p99, 1.0))
    result.add_table("Goodput vs. offered load (open-loop Poisson)", table)
    result.check("goodput tracks offered load below the knee and plateaus "
                 "past saturation (both granularities)", knee_ok)
    result.check("shed fraction is monotonically non-decreasing in offered "
                 "load", shed_monotone)
    result.check("queueing is negligible at low load and dominates the "
                 "p99 tail past saturation", queue_split_ok)
    result.check("every request reaches exactly one terminal outcome",
                 conserved)


def _retry_arm(scale, result: ExperimentResult, kind, boundary,
               mean_svc: float) -> None:
    granularity = Granularity.FILE
    plan = FaultPlan(seed=scale.seed + 11,
                     transient_read_rate=FAULT_READ_RATE,
                     transient_fail_count=FAULT_FAIL_COUNT,
                     transient_timeout_us=FAULT_TIMEOUT_US)
    # Capacity under faults is far below the healthy calibration (each
    # fault burns its timeout); offering ~1.5x the *healthy* capacity
    # guarantees deep saturation for both arms.
    rate = 1.5 * NUM_SHARDS * 1e6 / (mean_svc + FAULT_READ_RATE
                                     * FAULT_TIMEOUT_US)
    deadline_us = max(4_000.0, 40.0 * mean_svc)
    table = ResultTable(columns=[
        "retry_budget", "goodput_per_sec", "ok", "failed", "shed",
        "client_resubmits", "budget_denied"])
    reports = {}
    for budget_on in (True, False):
        report = _run_arm(scale, kind, boundary, granularity, rate,
                          deadline_us, plan=plan, budget_on=budget_on,
                          max_attempts=1, breaker=False)
        reports[budget_on] = report
        table.add_row("on" if budget_on else "off",
                      round(report.goodput_per_sec, 1),
                      report.outcomes.get(OUTCOME_OK, 0),
                      report.outcomes.get("failed", 0),
                      report.outcomes.get(OUTCOME_SHED, 0),
                      int(report.counters.get("retry.client_resubmits", 0)),
                      int(report.counters.get("retry.budget_denied", 0)))
    result.add_table("Retry budget under transient faults at saturation "
                     f"(fault rate {FAULT_READ_RATE}, detection timeout "
                     f"{FAULT_TIMEOUT_US:.0f}us)", table)
    result.check("unbudgeted retries strictly lower goodput at saturation "
                 "(the budget prevents the retry storm)",
                 reports[False].goodput_per_sec
                 < reports[True].goodput_per_sec)
    result.check("the exhausted budget denied resubmits (the cap engaged)",
                 reports[True].counters.get("retry.budget_denied", 0) > 0
                 and reports[False].counters.get("retry.budget_denied",
                                                 0) == 0)


def _determinism_arm(scale, result: ExperimentResult, kind, boundary,
                     mean_svc: float) -> None:
    granularity = Granularity.FILE
    capacity = NUM_SHARDS * 1e6 / mean_svc
    deadline_us = max(60.0, 20.0 * mean_svc)
    dumps = []
    for _ in range(2):
        report = _run_arm(scale, kind, boundary, granularity,
                          capacity * 1.6, deadline_us)
        dumps.append(json.dumps(report.to_json_dict(), sort_keys=True))
    result.check("same seed + same arrival plan => byte-identical report "
                 "(no wall clock in the scheduler)", dumps[0] == dumps[1])


def run(scale="smoke", kind: IndexKind = IndexKind.PGM,
        boundary: int = 32) -> ExperimentResult:
    """Sweep offered load x granularity; see module docstring."""
    scale = get_scale(scale)
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    result.note(f"scale={scale.name}: {scale.n_keys} keys, "
                f"{scale.n_ops} requests/point, {NUM_SHARDS} shards, "
                f"kind={kind}, boundary={boundary}, queue depth "
                f"{QUEUE_DEPTH}")
    file_svc = _calibrate(scale, kind, boundary, Granularity.FILE)
    _sweep(scale, result, kind, boundary, file_svc)
    _retry_arm(scale, result, kind, boundary, file_svc)
    _determinism_arm(scale, result, kind, boundary, file_svc)
    return result
