"""The overload gateway: queues, deadlines, breakers, retry budgets."""

import json
import math
import random

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidOptionError,
    QuarantinedBlockError,
    ReadOnlyModeError,
    RequestRejectedError,
    ShedError,
    TransientIOError,
)
from repro.lsm.db import LSMTree
from repro.lsm.deadline import DeadlineToken
from repro.lsm.options import small_test_options
from repro.lsm.write_batch import WriteBatch
from repro.service.gateway import (
    BREAKER_ERROR_THRESHOLD,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_MIN_SAMPLES,
    CircuitBreaker,
    Gateway,
    GatewayConfig,
    OUTCOME_EXPIRED,
    OUTCOME_OK,
    OUTCOME_SHED,
    Request,
    RetryBudget,
)
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.retry import RetryPolicy
from repro.storage.stats import (
    OVERLOAD_DEADLINE_EXCEEDED,
    OVERLOAD_EXPIRED_AT_DEQUEUE,
    OVERLOAD_REQUESTS,
    OVERLOAD_SHED,
    RETRY_ATTEMPTS,
    RETRY_BUDGET_DENIED,
    RETRY_EXHAUSTED,
    Stats,
)
from repro.workloads.arrivals import PoissonArrivals

N_KEYS = 600


def build_db(num_shards=2, plan=None, **overrides):
    options = small_test_options(cache_bytes=0, data_cache_bytes=0,
                                 **overrides)
    devices = None
    if plan is not None:
        devices = [FaultyBlockDevice(
            MemoryBlockDevice(block_size=options.block_size),
            FaultPlan(seed=plan.seed + i,
                      transient_read_rate=plan.transient_read_rate,
                      transient_fail_count=plan.transient_fail_count,
                      transient_timeout_us=plan.transient_timeout_us))
            for i in range(num_shards)]
    db = ShardedDB(num_shards=num_shards, options=options, devices=devices,
                   observe=False)
    db.bulk_ingest(list(range(N_KEYS)), seed=1)
    return db


def uniform_plan(n, rate, deadline_us, seed=3):
    times = PoissonArrivals(rate_per_sec=rate, seed=seed).times(n)
    rng = random.Random(seed)
    return [Request("get", rng.randrange(N_KEYS), t, t + deadline_us)
            for t in times]


# -- config ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidOptionError):
        GatewayConfig(queue_depth=0).validate()
    with pytest.raises(InvalidOptionError):
        GatewayConfig(max_client_retries=-1).validate()
    GatewayConfig().validate()


def test_request_rejects_unknown_op():
    with pytest.raises(InvalidOptionError):
        Request("scan", 1, 0.0, 100.0)


# -- deadline token -----------------------------------------------------


def test_deadline_token_meters_simulated_time():
    stats = Stats()
    token = DeadlineToken(stats, budget_us=100.0)
    assert not token.expired()
    from repro.storage.stats import Stage
    stats.charge(Stage.IO, 60.0)
    assert token.elapsed_us() == pytest.approx(60.0)
    assert token.remaining_us() == pytest.approx(40.0)
    stats.charge(Stage.IO, 60.0)
    assert token.expired()
    with pytest.raises(DeadlineExceededError):
        token.check("test")


def test_lsm_read_path_aborts_on_expired_deadline():
    options = small_test_options(cache_bytes=0, data_cache_bytes=0)
    db = LSMTree(options)
    db.bulk_ingest(list(range(N_KEYS)), seed=1)
    db.deadline = DeadlineToken(db.stats, budget_us=0.0)
    with pytest.raises(DeadlineExceededError):
        db.get(5)
    db.deadline = None
    assert db.get(5) is not None
    db.close()


def test_lsm_multi_get_degrades_per_key_on_deadline():
    options = small_test_options(cache_bytes=0, data_cache_bytes=0)
    db = LSMTree(options)
    db.bulk_ingest(list(range(N_KEYS)), seed=1)
    keys = list(range(0, 40))
    db.deadline = DeadlineToken(db.stats, budget_us=0.0)
    errors = {}
    values = db.multi_get(keys, errors=errors)
    db.deadline = None
    assert errors, "an expired deadline must surface per-key errors"
    for key, value in zip(keys, values):
        if key in errors:
            assert isinstance(value, DeadlineExceededError)
    # Without the errors protocol the same state raises.
    db.deadline = DeadlineToken(db.stats, budget_us=0.0)
    with pytest.raises(DeadlineExceededError):
        db.multi_get(keys)
    db.deadline = None
    db.close()


# -- circuit breaker ----------------------------------------------------


def breaker(**overrides):
    config = GatewayConfig(breaker_cooldown_us=1_000.0, **overrides)
    return CircuitBreaker(0, config, Stats())


def test_breaker_opens_on_error_rate_and_recovers():
    # The error that brings the window to BREAKER_MIN_SAMPLES with an
    # error fraction of exactly BREAKER_ERROR_THRESHOLD opens it.
    errors = math.ceil(BREAKER_ERROR_THRESHOLD * BREAKER_MIN_SAMPLES)
    b = breaker()
    for _ in range(BREAKER_MIN_SAMPLES - errors):
        b.record(True, now_us=0.0)
    for _ in range(errors - 1):
        b.record(False, now_us=0.0)
    assert b.state == CircuitBreaker.CLOSED
    b.record(False, now_us=0.0)
    assert b.state == CircuitBreaker.OPEN
    assert not b.allow(100.0)
    # Cooldown elapses -> half-open probe allowed.
    assert b.allow(1_500.0)
    assert b.state == CircuitBreaker.HALF_OPEN
    for i in range(BREAKER_HALF_OPEN_PROBES - 1):
        b.record(True, 1_600.0 + i)
    assert b.state == CircuitBreaker.HALF_OPEN
    b.record(True, 1_700.0)
    assert b.state == CircuitBreaker.CLOSED


def test_breaker_stays_closed_below_threshold_or_min_samples():
    errors = math.ceil(BREAKER_ERROR_THRESHOLD * BREAKER_MIN_SAMPLES)
    # A full minimum window one error short of the threshold.
    below = breaker()
    for _ in range(BREAKER_MIN_SAMPLES - errors + 1):
        below.record(True, 0.0)
    for _ in range(errors - 1):
        below.record(False, 0.0)
    assert len(below.window) == BREAKER_MIN_SAMPLES
    assert below.state == CircuitBreaker.CLOSED
    # Every completion failed, but too few are in view.
    few = breaker()
    for _ in range(BREAKER_MIN_SAMPLES - 1):
        few.record(False, 0.0)
    assert few.state == CircuitBreaker.CLOSED
    few.record(False, 0.0)
    assert few.state == CircuitBreaker.OPEN


def test_breaker_error_count_follows_its_sliding_window():
    """The running error count is the window's: errors that slide out
    of it no longer count, so a breaker whose early errors scrolled away
    stays closed, and it opens exactly when a recount would say so."""
    from collections import deque

    rng = random.Random(17)
    b = breaker()
    window = deque(maxlen=b.window.maxlen)
    opened = 0
    for step in range(3_000):
        now = 50.0 * step
        b.allow(now)  # lets an open breaker cool down into half-open
        closed = b.state == CircuitBreaker.CLOSED
        ok = rng.random() > 0.42
        b.record(ok, now)
        if not closed:
            window.clear()
            continue
        window.append(ok)
        errors = sum(1 for entry in window if not entry)
        should_open = (len(window) >= BREAKER_MIN_SAMPLES
                       and errors / len(window) >= BREAKER_ERROR_THRESHOLD)
        assert (b.state == CircuitBreaker.OPEN) == should_open, step
        if should_open:
            assert b.reason == f"error rate {errors}/{len(window)}"
            opened += 1
            window.clear()
    assert opened > 3


def test_breaker_half_open_failure_reopens():
    b = breaker()
    for _ in range(BREAKER_MIN_SAMPLES):
        b.record(False, 0.0)
    assert b.allow(2_000.0)
    b.record(False, 2_100.0)
    assert b.state == CircuitBreaker.OPEN
    assert not b.allow(2_200.0)


def test_breaker_disabled_is_transparent():
    b = breaker(breaker_enabled=False)
    for _ in range(20):
        b.record(False, 0.0)
    assert b.allow(0.0)
    assert b.state == CircuitBreaker.CLOSED


def test_gateway_fails_fast_when_shard_read_only():
    db = build_db(num_shards=2)
    gw = Gateway(db, GatewayConfig())
    db.shards[0]._enter_read_only("test damage")
    batch = WriteBatch()
    for key in range(24):
        batch.put(key, b"x")
    with pytest.raises((CircuitOpenError, ReadOnlyModeError)):
        gw.write(batch)
    assert gw.breakers[0].state == CircuitBreaker.OPEN
    db.close()


# -- retry budget -------------------------------------------------------


def test_retry_budget_spends_and_denies():
    budget = RetryBudget(True, ratio=0.5, burst=2.0, stats=Stats())
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()
    for _ in range(2):
        budget.on_request()
    assert budget.try_spend()


def test_retry_budget_disabled_always_grants():
    budget = RetryBudget(False, ratio=0.0, burst=0.0, stats=Stats())
    assert all(budget.try_spend() for _ in range(100))


def test_retry_policy_budget_composition():
    """Exhausted budget surfaces the original TransientIOError with
    zero extra engine attempts, and retry.* counters stay consistent."""
    plan = FaultPlan(seed=11, transient_read_rate=1.0,
                     transient_fail_count=10 ** 6)
    db = build_db(num_shards=1, plan=plan,
                  retry=RetryPolicy(max_attempts=1))
    gw = Gateway(db, GatewayConfig(breaker_enabled=False,
                                   retry_budget_enabled=True,
                                   retry_budget_ratio=0.0,
                                   retry_budget_burst=2.0,
                                   max_client_retries=10,
                                   default_deadline_us=10 ** 9))
    reqs = uniform_plan(4, rate=1_000.0, deadline_us=10 ** 9)
    report = gw.run(reqs)
    # Every request ultimately fails (faults never clear); the two
    # budget tokens allow exactly two resubmits across the whole run.
    assert report.outcomes == {"failed": 4}
    assert report.counters["retry.client_resubmits"] == 2.0
    assert report.counters["retry.budget_spent"] == 2.0
    assert report.counters[RETRY_BUDGET_DENIED] > 0
    # Engine-level attempts: one per client attempt (max_attempts=1
    # means the engine never retried on its own), so total engine
    # attempts == first attempts + client resubmits.
    engine_attempts = db.stats.get(RETRY_ATTEMPTS)
    assert engine_attempts == 4 + 2
    assert db.stats.get(RETRY_EXHAUSTED) == engine_attempts
    db.close()


# -- open-loop simulation ----------------------------------------------


def test_low_load_all_requests_complete_in_deadline():
    db = build_db()
    gw = Gateway(db, GatewayConfig(queue_depth=8))
    reqs = uniform_plan(300, rate=2_000.0, deadline_us=50_000.0)
    report = gw.run(reqs)
    assert report.outcomes == {OUTCOME_OK: 300}
    assert report.counters[OVERLOAD_REQUESTS] == 300
    assert report.goodput_per_sec > 0
    db.close()


def test_overload_sheds_and_bounds_queue_delay():
    db = build_db()
    depth = 4
    gw = Gateway(db, GatewayConfig(queue_depth=depth))
    reqs = uniform_plan(2_000, rate=10 ** 6, deadline_us=50_000.0)
    report = gw.run(reqs)
    assert report.counters[OVERLOAD_SHED] > 0
    assert report.outcomes[OUTCOME_SHED] > 0
    # Bounded queues bound queueing delay: nothing can wait longer
    # than the whole queue ahead of it being served.
    max_service = report.percentiles["gw.service"]["max"]
    assert report.percentiles["gw.queue_delay"]["max"] \
        <= depth * max_service * 1.5
    first_shed = next(r for r in reqs if r.outcome == OUTCOME_SHED)
    assert isinstance(first_shed.error, ShedError)
    assert isinstance(first_shed.error, RequestRejectedError)
    db.close()


def test_expired_at_dequeue_drops_without_service():
    db = build_db()
    gw = Gateway(db, GatewayConfig(queue_depth=64))
    # Deadlines far shorter than the queueing delay at this arrival
    # rate: whatever queues must expire before reaching the server.
    reqs = uniform_plan(1_000, rate=10 ** 6, deadline_us=20.0)
    report = gw.run(reqs)
    assert report.counters[OVERLOAD_EXPIRED_AT_DEQUEUE] > 0
    assert report.outcomes[OUTCOME_EXPIRED] > 0
    expired = [r for r in reqs if r.outcome == OUTCOME_EXPIRED]
    assert all(isinstance(r.error, DeadlineExceededError) for r in expired)
    assert all(r.start_us < 0 for r in expired), \
        "expired requests must never have occupied the server"
    db.close()


def test_run_is_deterministic():
    def once():
        db = build_db()
        gw = Gateway(db, GatewayConfig(queue_depth=8))
        report = gw.run(uniform_plan(500, rate=200_000.0,
                                     deadline_us=2_000.0))
        db.close()
        return json.dumps(report.to_json_dict(), sort_keys=True)
    assert once() == once()


def test_outcome_conservation_under_stress():
    db = build_db(plan=FaultPlan(seed=5, transient_read_rate=0.1,
                                 transient_fail_count=2,
                                 transient_timeout_us=50.0),
                  retry=RetryPolicy(max_attempts=1))
    gw = Gateway(db, GatewayConfig(queue_depth=6,
                                   breaker_enabled=False,
                                   max_client_retries=3))
    reqs = uniform_plan(1_500, rate=400_000.0, deadline_us=1_500.0)
    report = gw.run(reqs)
    assert sum(report.outcomes.values()) \
        == report.counters[OVERLOAD_REQUESTS] == 1_500
    db.close()


def test_results_match_oracle_for_completed_requests():
    db = build_db()
    gw = Gateway(db, GatewayConfig(queue_depth=16))
    reqs = uniform_plan(400, rate=5_000.0, deadline_us=100_000.0)
    report = gw.run(reqs)
    assert report.outcomes[OUTCOME_OK] == 400
    oracle = build_db()
    for req in reqs:
        assert req.result == oracle.get(req.key)
    oracle.close()
    db.close()


# -- health plumbing ----------------------------------------------------


def test_health_reports_breaker_and_queue_state():
    db = build_db()
    gw = Gateway(db, GatewayConfig(queue_depth=4))
    gw.run(uniform_plan(1_000, rate=10 ** 6, deadline_us=50_000.0))
    health = db.health()
    for entry in health["shards"]:
        assert entry["breaker"] == CircuitBreaker.CLOSED
        assert entry["queue_depth"] == 0
        assert "expired" in entry and "deadline_exceeded" in entry
    assert sum(entry["shed"] for entry in health["shards"]) \
        == gw.stats.get(OVERLOAD_SHED) > 0
    db.close()


def test_health_without_gateway_is_unchanged():
    db = build_db()
    entry = db.health()["shards"][0]
    assert "breaker" not in entry
    db.close()


# -- synchronous API ----------------------------------------------------


def test_sync_get_and_multi_get_with_deadline():
    db = build_db()
    gw = Gateway(db)
    assert gw.get(5) == db.get(5)
    keys = list(range(30))
    assert gw.multi_get(keys) == db.multi_get(keys)
    # A zero deadline degrades multi_get per key, not wholesale.
    errors = {}
    values = gw.multi_get(keys, deadline_us=0.0, errors=errors)
    assert errors
    assert len(values) == len(keys)
    with pytest.raises(DeadlineExceededError):
        gw.get(5, deadline_us=0.0)
    db.close()


def test_sync_multi_get_deadline_miss_counts_like_get():
    db = build_db()
    gw = Gateway(db)
    errors = {}
    gw.multi_get(list(range(30)), deadline_us=0.0, errors=errors)
    assert errors
    missed = gw.stats.get(OVERLOAD_DEADLINE_EXCEEDED)
    assert missed >= 1
    assert sum(row["deadline"] for row in gw.shard_counters) == missed
    # A deadline miss is not a shard failure: the breakers saw nothing.
    assert all(not b.window for b in gw.breakers)
    db.close()


@pytest.mark.parametrize("call", ["get", "multi_get"])
def test_failing_sync_lookups_open_the_breaker_by_error_rate(call):
    db = build_db(plan=FaultPlan(seed=9))
    tree = db.shards[0]
    _, meta = tree.version.all_files()[0]
    tree.device.inject_rot(meta.table.name,
                           meta.table.handles[0][1] // tree.device.block_size)

    def fails(key):
        try:
            db.get(key)
        except QuarantinedBlockError:
            return True
        return False

    bad = next(key for key in range(N_KEYS)
               if db.shard_for(key) == 0 and fails(key))
    gw = Gateway(db, GatewayConfig())
    lookup = gw.get if call == "get" else (lambda key: gw.multi_get([key]))
    for _ in range(BREAKER_MIN_SAMPLES - 1):
        with pytest.raises(QuarantinedBlockError):
            lookup(bad)
    assert gw.breakers[0].state == CircuitBreaker.CLOSED
    with pytest.raises(QuarantinedBlockError):
        lookup(bad)
    assert gw.breakers[0].state == CircuitBreaker.OPEN
    with pytest.raises(CircuitOpenError):
        lookup(bad)
    db.close()
