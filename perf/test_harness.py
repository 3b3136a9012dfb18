"""Checks on the benchmark harness itself, at ``tiny`` scale (seconds).

What a later reader must be able to rely on: the names printed are the
names in ``BENCHMARK.json``; the seed alone decides the inputs; the
tracing wrappers only watch, and are gone afterwards; span self times
account for the traced wall time.
"""

import importlib
import re

import pytest

import run
import tracing
from workloads import SCALES, WORKLOADS

TINY = SCALES["tiny"]
SEED = 11


@pytest.fixture(scope="module")
def untraced():
    return {name: run.measure(name, SEED, 0, TINY) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: run.measure_traced(name, SEED, TINY) for name in WORKLOADS}


REAL_TARGETS = tracing.TARGETS


def _targets():
    """The raw attribute behind every trace target, as it stands now."""
    found = []
    for _, owner_path, attr in REAL_TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        found.append(vars(owner)[attr])
    return found


def test_metric_names_are_the_benchmark_json_lists(untraced, traced):
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for name in WORKLOADS:
        assert list(untraced[name]["metrics"]) == list(run.END_TO_END)
        assert list(traced[name]["metrics"]) == list(run.PER_LAYER)
    for metric in list(run.END_TO_END) + list(run.PER_LAYER):
        assert name_ok.fullmatch(metric), metric
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)
    assert len(run.PER_LAYER) <= 128


def test_every_workload_is_correct_and_never_zero(untraced, traced):
    for name in WORKLOADS:
        for result in (untraced[name], traced[name]):
            assert result["correct"], name
            assert result["failed"] == 0 and result["attempted"] >= 1
        for metric, cell in untraced[name]["metrics"].items():
            assert cell["value"] > 0, (name, metric)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_alone_decides_the_inputs(name, untraced):
    same = WORKLOADS[name](SEED, TINY).digest()
    other = WORKLOADS[name](SEED + 1, TINY).digest()
    assert same == untraced[name]["info"]["digest"]
    assert other != same


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_metrics_repeat_and_tracing_only_watches(name, untraced,
                                                       traced):
    again = run.measure(name, SEED, 0, TINY)
    for metric in run.EXACT:
        assert (again["metrics"][metric]["value"]
                == untraced[name]["metrics"][metric]["value"]), metric
    # measure_traced compares the simulated clock and every counter of
    # its traced pass with its untraced one and reports it as "correct".
    assert traced[name]["correct"]
    assert traced[name]["info"]["digest"] == untraced[name]["info"]["digest"]


def test_trace_targets_are_restored():
    before = _targets()
    tracer = tracing.Tracer()
    tracer.install()
    during = _targets()
    tracer.remove()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _targets()))
    run.measure_traced("ycsb_hot", SEED, TINY)
    assert all(a is b for a, b in zip(before, _targets()))


def test_a_missing_target_leaves_nothing_patched(monkeypatch):
    before = _targets()
    monkeypatch.setattr(tracing, "TARGETS", REAL_TARGETS + (
        ("db.get", "repro.lsm.db:LSMTree", "no_such_method"),))
    with pytest.raises(AttributeError):
        tracing.Tracer().install()
    assert all(a is b for a, b in zip(before, _targets()))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_account_for_the_traced_wall(name, traced):
    info = traced[name]["info"]
    # Self times add up to the outermost spans' durations; what is left
    # of a timed call is one wrapper's entry and exit.
    assert info["span_self_ns"] <= info["traced_wall_ns"]
    assert info["span_self_ns"] >= 0.95 * info["traced_wall_ns"]


def test_layers_fire_only_where_they_should(traced):
    def calls(name, span):
        return traced[name]["metrics"][f"{span}.calls_per_op"]["value"]

    for span in ("compaction.run", "wal.append", "data_cache.get",
                 "block_cache.pread_cached", "gateway.run",
                 "replication.op", "sharded.dispatch"):
        assert calls("read_cold", span) == 0, span
    for span in ("gateway.run", "replication.op", "level_index.lookup",
                 "trace.on_charge"):
        assert calls("serve", span) > 0, span
        for name in ("read_cold", "ycsb_hot", "ingest"):
            assert calls(name, span) == 0, (name, span)
    for name in WORKLOADS:
        hit = traced[name]["metrics"]["block_cache.hit_ratio"]["value"]
        assert (hit > 0) == (name == "ycsb_hot"), name
