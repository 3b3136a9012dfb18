"""The run-level block fetch against the block-at-a-time reference.

``Table._read_blocks`` and ``Table._read_block`` look runs of data
blocks up in the decompressed-block cache with one call, count and
charge per run, and verify, decode and admit each pread run with
``Table._fill_run``.  Here seeded trees are built and read twice — once
on that path and once on ``read_reference`` (the path it replaced, one
block at a time) — over codecs, data-cache sizes (none, one small
enough to evict inside a run, a large one), the device block cache on
and off, ``get``, ``multi_get`` with coalescing on and off, scans, and
a rotten block in the middle of a table.  Both must agree on every
answer and error, every ``Stats`` counter and stage float (as exact
hex), the order stages were first charged in and every charge in
order, every device read, the data cache's entries in LRU order and its
byte count, and every traced root span.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import read_reference
from repro.errors import QuarantinedBlockError, ReproError
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity, small_test_options
from repro.lsm.record import entry_size
from repro.obs.trace import Tracer
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    CHECKSUM_FAILURES,
    DATA_CACHE_EVICTIONS,
    DATA_CACHE_HITS,
    DATA_CACHE_MISSES,
)

_UNIVERSE = 600
_STRIDE = 7919


class RecordingDevice(MemoryBlockDevice):
    """A memory device that logs every read it serves."""

    def __init__(self, log, **kwargs) -> None:
        super().__init__(**kwargs)
        self.log = log

    def pread(self, name, offset, length):
        self.log.append((name, offset, length))
        return super().pread(name, offset, length)


class RootTracer(Tracer):
    """A tracer that keeps every charge in order and every finished root
    span, floats as hex."""

    def __init__(self) -> None:
        super().__init__()
        self.charges = []
        self.roots = []

    def on_charge(self, stage, us) -> None:
        self.charges.append((stage.value, us.hex()))
        super().on_charge(stage, us)

    def end(self, span) -> None:
        root = len(self._stack) == 1
        super().end(span)
        if root:
            self.roots.append((
                span.op, span.total_us.hex(),
                sorted((name, us.hex()) for name, us in span.stage_us.items()),
                sorted(span.counters.items())))


def _options(codec, data_cache, block_cache, granularity):
    return small_test_options(
        index_kind=IndexKind.PGM, granularity=granularity,
        position_boundary=24, block_codec=codec,
        write_buffer_bytes=96 * entry_size(44),
        sstable_bytes=192 * entry_size(44),
        data_block_bytes=128,
        cache_bytes=block_cache, data_cache_bytes=data_cache)


def _build(db, seed):
    rng = random.Random(seed)
    for i in range(700):
        key = rng.randrange(_UNIVERSE) * _STRIDE
        if rng.random() < 0.15:
            db.delete(key)
        else:
            db.put(key, b"v%d" % i * rng.randrange(1, 4))
    db.flush()


def _rot_middle_block(db, device):
    """Flip a byte in a data block in the middle of the largest table."""
    meta = max((meta for _, meta in db.version.all_files()),
               key=lambda meta: len(meta.table.handles))
    handles = meta.table.handles
    _, offset, stored, _ = handles[len(handles) // 2]
    device.inject_rot(meta.name,
                      (offset + stored // 2) // device.block_size)


def _error(exc):
    return (type(exc).__name__, str(exc))


def _call(fn):
    try:
        result = fn()
    except ReproError as exc:
        return _error(exc)
    if isinstance(result, list):  # a multi_get's slots may hold errors
        return [_error(item) if isinstance(item, ReproError) else item
                for item in result]
    return result


def _observe(reference, options, seed, rot, ops):
    log = []
    tracer = RootTracer()
    device = FaultyBlockDevice(
        RecordingDevice(log, block_size=options.block_size),
        FaultPlan(seed=seed))
    with read_reference.patched() if reference else nullcontext():
        db = LSMTree(options, device=device, tracer=tracer)
        _build(db, seed)
        if rot:
            _rot_middle_block(db, device)
        results = []
        for op in ops:
            if op[0] == "get":
                results.append(_call(lambda: db.get(op[1])))
            elif op[0] == "multi_get":
                errors = {}
                got = _call(lambda: db.multi_get(op[1], coalesce=op[2],
                                                 errors=errors))
                results.append((got, sorted(
                    (key, _error(exc)) for key, exc in errors.items())))
            else:
                results.append(_call(lambda: db.scan(op[1], op[2])))
    stats = db.stats
    cache = db.data_cache
    return {
        "results": results,
        "counters": {name: value.hex()
                     for name, value in stats.counters.items()},
        "stage_us": [(stage.value, us.hex())
                     for stage, us in stats.stage_us.items()],
        "reads": log,
        "data_cache": None if cache is None else (
            list(cache._blocks), cache.used_bytes(),
            {name: sorted(indexes)
             for name, indexes in cache._by_file.items()},
            sorted(cache._blocked)),
        "charges": tracer.charges,
        "spans": tracer.roots,
    }


def _assert_same(options, seed, rot, ops):
    run = _observe(False, options, seed, rot, ops)
    reference = _observe(True, options, seed, rot, ops)
    for part in run:
        assert run[part] == reference[part], part
    return run


_KEY = st.one_of(st.integers(0, _UNIVERSE - 1).map(lambda i: i * _STRIDE),
                 st.integers(0, _UNIVERSE * _STRIDE))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _KEY),
        st.tuples(st.just("multi_get"), st.lists(_KEY, min_size=1,
                                                 max_size=16),
                  st.booleans()),
        st.tuples(st.just("scan"), _KEY, st.sampled_from([1, 9, 40]))),
    min_size=1, max_size=40)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codec=st.sampled_from(["none", "zlib-1"]),
       data_cache=st.sampled_from([0, 300, 1 << 16]),
       block_cache=st.sampled_from([0, 2048]),
       granularity=st.sampled_from(list(Granularity)),
       seed=st.integers(0, 1 << 16),
       rot=st.booleans(),
       ops=_OPS)
def test_run_fetch_is_the_block_fetch(codec, data_cache, block_cache,
                                      granularity, seed, rot, ops):
    _assert_same(_options(codec, data_cache, block_cache, granularity),
                 seed, rot, ops)


def _sweep():
    """Every key in order, in gets, batches and scans."""
    keys = [i * _STRIDE for i in range(_UNIVERSE)]
    return ([("get", key) for key in keys[::3]]
            + [("multi_get", keys[i:i + 16], i % 32 == 0)
               for i in range(0, _UNIVERSE, 16)]
            + [("scan", key, 40) for key in keys[::50]])


@pytest.mark.parametrize("codec", ["none", "zlib-1"])
@pytest.mark.parametrize("data_cache", [0, 300, 1 << 16])
def test_rot_mid_run_leaves_the_reference_state(codec, data_cache):
    """A ``ChecksumError`` inside a miss run leaves the charges, counters
    and admissions of the blocks before it, as block by block."""
    options = _options(codec, data_cache, 0, Granularity.FILE)
    run = _assert_same(options, 5, True, _sweep())
    counters = {name: float.fromhex(value)
                for name, value in run["counters"].items()}
    assert counters[CHECKSUM_FAILURES] == 1
    assert QuarantinedBlockError.__name__ in repr(run["results"])
    if data_cache:
        assert counters[DATA_CACHE_HITS] and counters[DATA_CACHE_MISSES]
    if data_cache == 300:
        assert counters[DATA_CACHE_EVICTIONS]
