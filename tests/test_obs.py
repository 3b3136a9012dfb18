"""Observability layer tests: histograms, tracer, registry, windows.

The two contracts the PR's acceptance criteria pin down get property
tests here:

* **Lossless merge** — per-shard histograms merged with
  :meth:`~repro.obs.histogram.Histogram.merge` have exactly the state
  (bucket occupancy, count, min, max — hence every percentile) of one
  histogram fed all samples, for any partition of any sample stream.
* **Pure observation** — a :class:`~repro.obs.trace.Tracer` attached
  to :class:`~repro.storage.stats.Stats` changes no counter and no
  stage time: a traced engine run produces stats identical to an
  untraced one.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.obs.histogram import Histogram, bucket_bounds, bucket_index
from repro.obs.registry import DEFAULT_EXEMPLARS, MetricsRegistry, MetricsWindow
from repro.obs.trace import OpType, Tracer
from repro.service.sharded import ShardedDB
from repro.storage.stats import BLOOM_PROBES, Stage, Stats


def _record(histogram, samples):
    """Feed every sample to ``histogram``."""
    for us in samples:
        histogram.record(us)


def _merged(histograms):
    """A fresh histogram with every input folded in."""
    total = Histogram()
    for histogram in histograms:
        total.merge(histogram)
    return total


# -- histogram buckets -----------------------------------------------------


def test_bucket_index_exact_below_subbucket_count():
    for ns in range(32):
        assert bucket_index(ns) == ns
        assert bucket_bounds(ns) == (ns, ns + 1)


def test_bucket_bounds_contain_value():
    for ns in [0, 1, 31, 32, 33, 100, 1023, 1024, 5_000, 10**9]:
        lo, hi = bucket_bounds(bucket_index(ns))
        assert lo <= ns < hi


def test_bucket_relative_error_bounded():
    for ns in [33, 100, 999, 12_345, 10**8]:
        lo, hi = bucket_bounds(bucket_index(ns))
        assert (hi - lo) / lo <= 1 / 32 + 1e-12


def test_histogram_basics():
    h = Histogram()
    assert h.percentile(0.5) == 0.0
    assert h.mean_us == 0.0
    _record(h, [1.0, 2.0, 3.0, 4.0])
    assert h.count == 4
    assert h.mean_us == pytest.approx(2.5)
    assert h.min_us == 1.0
    assert h.max_us == 4.0
    assert h.percentile(0.5) == pytest.approx(2.0, rel=0.04)
    assert h.percentile(1.0) == pytest.approx(4.0, rel=0.04)


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram().record(-0.5)
    with pytest.raises(ValueError):
        Histogram().percentile(0.0)


def test_percentiles_monotone_in_rank():
    rng = random.Random(7)
    h = Histogram()
    _record(h, (rng.expovariate(0.01) for _ in range(5_000)))
    values = [h.percentile(q) for q in (0.1, 0.5, 0.9, 0.99, 0.999, 1.0)]
    assert values == sorted(values)
    assert values[-1] == h.max_us


def test_percentile_relative_error_bound():
    rng = random.Random(11)
    samples = sorted(rng.uniform(0.5, 500.0) for _ in range(2_000))
    h = Histogram()
    _record(h, samples)
    for q in (0.5, 0.9, 0.99):
        exact = samples[max(0, int(round(q * len(samples))) - 1)]
        assert h.percentile(q) == pytest.approx(exact, rel=0.05)


def test_since_isolates_window():
    h = Histogram()
    _record(h, [1.0, 2.0])
    base = h.copy()
    _record(h, [100.0, 200.0])
    delta = h.since(base)
    assert delta.count == 2
    assert delta.percentile(0.5) == pytest.approx(100.0, rel=0.05)
    assert delta.percentile(1.0) == pytest.approx(200.0, rel=0.05)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e7,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=8),
       st.randoms(use_true_random=False))
def test_merged_shards_equal_single_histogram(samples, n_shards, rng):
    """The acceptance-criterion property: sharded merge is lossless."""
    single = Histogram()
    _record(single, samples)
    shards = [Histogram() for _ in range(n_shards)]
    for us in samples:
        shards[rng.randrange(n_shards)].record(us)
    merged = _merged(shards)
    assert merged.state() == single.state()
    for q in (0.5, 0.9, 0.99, 0.999):
        assert merged.percentile(q) == single.percentile(q)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200),
       st.data())
def test_merge_order_independent(samples, data):
    splits = sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=len(samples)), max_size=4)))
    parts = []
    prev = 0
    for cut in splits + [len(samples)]:
        parts.append(samples[prev:cut])
        prev = cut
    forward = Histogram()
    for part in parts:
        piece = Histogram()
        _record(piece, part)
        forward.merge(piece)
    backward = Histogram()
    for part in reversed(parts):
        piece = Histogram()
        _record(piece, part)
        backward.merge(piece)
    assert forward.state() == backward.state()


# -- tracer ----------------------------------------------------------------


def test_untraced_stats_hold_no_observer_state():
    """Disabled mode: Stats carries nothing for the obs layer."""
    plain = Stats()
    plain.charge(Stage.IO, 2.0)
    plain.add(BLOOM_PROBES, 3)
    assert plain.tracer is None
    # Attach/detach leaves the registry exactly as it was.
    detached = Stats()
    tracer = Tracer()
    detached.attach_tracer(tracer)
    detached.attach_tracer(None)
    detached.charge(Stage.IO, 2.0)
    detached.add(BLOOM_PROBES, 3)
    assert detached.tracer is None
    assert detached.counters == plain.counters
    assert detached.stage_us == plain.stage_us
    assert not tracer.registry.histograms


def test_tracer_is_pure_observer_on_stats():
    tracer = Tracer()
    traced = Stats()
    traced.attach_tracer(tracer)
    plain = Stats()
    span = tracer.begin(OpType.GET)
    for stats in (traced, plain):
        stats.charge(Stage.IO, 4.0)
        stats.add(BLOOM_PROBES)
    tracer.end(span)
    assert traced.counters == plain.counters
    assert traced.stage_us == plain.stage_us


def test_span_charges_route_to_whole_stack():
    tracer = Tracer()
    stats = Stats()
    stats.attach_tracer(tracer)
    put = tracer.begin(OpType.PUT)
    stats.charge(Stage.WRITE_PATH, 1.0)
    flush = tracer.begin(OpType.FLUSH)
    stats.charge(Stage.COMPACT_WRITE, 5.0)
    stats.add(BLOOM_PROBES, 2)
    tracer.end(flush)
    tracer.end(put)
    assert flush.total_us == pytest.approx(5.0)
    assert put.total_us == pytest.approx(6.0)  # parent includes child
    assert put.stage_us[Stage.COMPACT_WRITE.value] == pytest.approx(5.0)
    assert put.counters[BLOOM_PROBES] == 2
    assert put.children == [flush]
    # Both latencies recorded, each under its own op type.
    reg = tracer.registry
    assert reg.histogram("put").count == 1
    assert reg.histogram("flush").count == 1


def test_end_out_of_order_raises():
    tracer = Tracer()
    outer = tracer.begin(OpType.GET)
    tracer.begin(OpType.FLUSH)
    with pytest.raises(ValueError, match="span stack"):
        tracer.end(outer)


def test_sampling_keeps_exactly_one_in_n():
    tracer = Tracer(sample_every=3)
    for _ in range(10):
        tracer.end(tracer.begin(OpType.GET))
    # Root indices 0..9; kept: 0, 3, 6, 9.
    assert len(tracer.registry.sampled) == 4
    assert [span.index for span in tracer.registry.sampled] == [0, 3, 6, 9]


def test_sampling_disabled_keeps_none_but_histograms_full():
    tracer = Tracer(sample_every=0)
    stats = Stats()
    stats.attach_tracer(tracer)
    for i in range(20):
        span = tracer.begin(OpType.GET)
        stats.charge(Stage.IO, float(i))
        tracer.end(span)
    assert len(tracer.registry.sampled) == 0
    assert tracer.registry.histogram("get").count == 20


def test_exemplars_keep_top_k_slowest():
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    stats = Stats()
    stats.attach_tracer(tracer)

    def offer(us):
        span = tracer.begin(OpType.GET)
        stats.charge(Stage.IO, us)
        tracer.end(span)

    order = [float(us) for us in range(1, DEFAULT_EXEMPLARS + 1)]
    random.Random(5).shuffle(order)
    for us in order:
        offer(us)
    # Exactly at capacity: every span is kept.
    assert len(registry.exemplars()) == DEFAULT_EXEMPLARS
    offer(0.5)  # faster than every kept span: dropped
    offer(DEFAULT_EXEMPLARS + 1.0)  # slowest so far: evicts the fastest
    kept = [span.total_us for span in registry.exemplars()]
    assert kept == [float(us) for us in range(DEFAULT_EXEMPLARS + 1, 1, -1)]


def test_traced_engine_run_matches_untraced_exactly():
    """Acceptance criterion: byte-identical Stats totals."""
    def drive(tracer):
        db = LSMTree(small_test_options(), tracer=tracer)
        rng = random.Random(99)
        for _ in range(400):
            key = rng.randrange(1_000)
            roll = rng.random()
            if roll < 0.6:
                db.put(key, b"v%d" % key)
            elif roll < 0.8:
                db.get(key)
            elif roll < 0.9:
                db.delete(key)
            else:
                db.scan(key, 5)
        db.flush()
        counters = dict(db.stats.counters)
        stages = dict(db.stats.stage_us)
        db.close()
        return counters, stages

    untraced = drive(None)
    traced = drive(Tracer(sample_every=1))
    assert traced == untraced


# -- registry --------------------------------------------------------------


def test_registry_merge_is_lossless_and_rebounds_exemplars():
    a = MetricsRegistry()
    b = MetricsRegistry()
    tracer_a = Tracer(registry=a)
    tracer_b = Tracer(registry=b)
    stats_a, stats_b = Stats(), Stats()
    stats_a.attach_tracer(tracer_a)
    stats_b.attach_tracer(tracer_b)
    # Each side fills its own exemplar store: odd vs even latencies.
    odd = [float(2 * i + 1) for i in range(DEFAULT_EXEMPLARS)]
    even = [float(2 * i + 2) for i in range(DEFAULT_EXEMPLARS)]
    for us in odd:
        span = tracer_a.begin(OpType.GET)
        stats_a.charge(Stage.IO, us)
        tracer_a.end(span)
    for us in even:
        span = tracer_b.begin(OpType.GET)
        stats_b.charge(Stage.IO, us)
        tracer_b.end(span)
    merged = MetricsRegistry()
    merged.merge(a)
    merged.merge(b)
    single = Histogram()
    _record(single, odd + even)
    assert merged.histogram("get").state() == single.state()
    # The union is re-ranked down to the one bound.
    assert [s.total_us for s in merged.exemplars()] == \
        sorted(odd + even, reverse=True)[:DEFAULT_EXEMPLARS]


def test_registry_json_and_prometheus_exports():
    registry = MetricsRegistry()
    tracer = Tracer(sample_every=1, registry=registry)
    stats = Stats()
    stats.attach_tracer(tracer)
    span = tracer.begin(OpType.GET, "key=1")
    stats.charge(Stage.IO, 2.5)
    stats.add(BLOOM_PROBES)
    tracer.end(span)

    doc = registry.to_json_dict(stats)
    assert doc["histograms"]["get"]["count"] == 1.0
    assert doc["exemplars"][0]["op"] == "get"
    assert doc["exemplars"][0]["counters"][BLOOM_PROBES] == 1
    assert doc["counters"][BLOOM_PROBES] == 1
    assert doc["stage_us"][Stage.IO.value] == pytest.approx(2.5)
    json.loads(json.dumps(doc))  # round-trips as valid JSON

    text = registry.to_prometheus(stats)
    assert 'repro_op_latency_us{op="get",quantile="0.99"}' in text
    assert 'repro_op_latency_us_count{op="get"} 1' in text
    assert 'repro_counter_total{name="' in text
    assert text.endswith("\n")


def test_registry_reset_clears_everything():
    registry = MetricsRegistry()
    tracer = Tracer(sample_every=1, registry=registry)
    tracer.end(tracer.begin(OpType.GET))
    registry.windows.append({"window": 0.0})
    registry.reset()
    assert not registry.histograms
    assert not registry.exemplars()
    assert not registry.sampled
    assert not registry.windows


def test_metrics_window_rows():
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    stats = Stats()
    stats.attach_tracer(tracer)
    window = MetricsWindow(registry, stats.total_time, window_ops=2)
    for us in (1.0, 2.0, 3.0, 4.0, 5.0):
        span = tracer.begin(OpType.GET)
        stats.charge(Stage.IO, us)
        tracer.end(span)
        window.tick()
    window.finish()
    rows = registry.windows
    assert [row["ops"] for row in rows] == [2.0, 2.0, 1.0]
    assert rows[0]["sim_us"] == pytest.approx(3.0)
    assert rows[1]["sim_us"] == pytest.approx(7.0)
    assert rows[2]["sim_us"] == pytest.approx(5.0)
    assert rows[0]["ops_per_sim_sec"] == pytest.approx(2e6 / 3.0)
    assert "get_p99_us" in rows[0]
    with pytest.raises(ValueError):
        MetricsWindow(registry, stats.total_time, window_ops=0)


# -- sharded aggregation ---------------------------------------------------


def _drive_sharded(db, n_ops=300, seed=5):
    rng = random.Random(seed)
    for _ in range(n_ops):
        key = rng.randrange(2_000)
        if rng.random() < 0.5:
            db.put(key, b"s%d" % key)
        else:
            db.get(key)


def test_sharded_metrics_merge_is_lossless():
    db = ShardedDB(num_shards=4, options=small_test_options(),
                   metrics_sink=MetricsRegistry())
    _drive_sharded(db)
    merged = db.metrics()
    for op, histogram in merged.histograms.items():
        single = _merged(reg.histogram(op) for reg in db.registries)
        assert histogram.state() == single.state()
    total_ops = sum(reg.histogram("get").count + reg.histogram("put").count
                    for reg in db.registries)
    assert (merged.histogram("get").count
            + merged.histogram("put").count) == total_ops == 300
    db.close()


def test_sharded_close_folds_metrics_into_sink_once():
    sink = MetricsRegistry()
    db = ShardedDB(num_shards=2, options=small_test_options(),
                   metrics_sink=sink)
    _drive_sharded(db, n_ops=50)
    expected = db.metrics().histogram("put").state()
    db.close()
    db.close()  # idempotent: the second close must not double-count
    assert sink.histogram("put").state() == expected


def test_sharded_observe_off_attaches_nothing():
    db = ShardedDB(num_shards=2, options=small_test_options(),
                   observe=False)
    _drive_sharded(db, n_ops=20)
    assert db.registries == [] and db.tracers == []
    assert all(shard.stats.tracer is None for shard in db.shards)
    db.close()


def test_sharded_reopen_traces_recovery_per_shard():
    options = small_test_options()
    db = ShardedDB(num_shards=2, options=options,
                   metrics_sink=MetricsRegistry())
    for key in range(200):
        db.put(key, b"r%d" % key)
    db.flush()
    # Crash-style handoff: reopen from the live devices (close() would
    # release the tables, deleting their files).
    devices = [shard.device for shard in db.shards]
    sink = MetricsRegistry()
    recovered = ShardedDB.reopen(2, options, devices, metrics_sink=sink)
    assert all(reg.histogram("recovery").count == 1
               for reg in recovered.registries)
    for key in range(200):
        assert recovered.get(key) == b"r%d" % key
    recovered.close()
    assert sink.histogram("recovery").count == 2
