"""The four benchmark workloads, their frozen sizes and their oracles.

Every workload is a class with the same life cycle, driven by
``run.py``::

    w = WORKLOADS[name](seed, scale)   # inputs from the seed, untimed
    w.build()                          # initial state (timed: setup_s)
    w.warm()                           # fill memos and caches, untimed
    result = w.run(tracer)             # ONE timed pass, oracle-checked
    w.close()

A workload that ``mutates`` its state repeats ``build`` + ``warm`` +
``run`` for every pass; a read-only one repeats only ``run``.  Either
way passes are identical down to the simulated microsecond.

Engine shape is the ``small`` preset of ``repro.bench.runner.SCALES`` as
it stood when this benchmark was defined, copied here so that editing
``SCALES`` (or an ``Options`` default) cannot shrink the load.  Op and
key counts are ISSUE 11's nominal numbers divided by one common factor
(:data:`COMMON_DIVISOR`) so that the 92 runs the acceptance driver makes
fit its time cap; pass count and op mix are not scaled.
"""

from __future__ import annotations

import hashlib
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    ALL_KINDS,
    Gateway,
    GatewayConfig,
    IndexKind,
    LSMTree,
    Options,
    ReproError,
    ShardedDB,
    Stats,
)
from repro.lsm.options import Granularity
from repro.obs.registry import MetricsRegistry
from repro.service.gateway import OUTCOME_LATE, OUTCOME_OK, Request
from repro.service.replication import AckPolicy, ReplicationConfig
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.datasets import KEY_SPACE, generate
from repro.workloads.distributions import make_picker

# -- frozen engine shape (today's ``small`` preset) -------------------------

VALUE_CAPACITY = 236            # entry = 20 + 236 = 256 B
DATA_BLOCK_BYTES = 1024         # 4 entries per data block
DEVICE_BLOCK_BYTES = 4096
WRITE_BUFFER_BYTES = 256 * 1024
SSTABLE_BYTES = 1024 * 1024
SIZE_RATIO = 10
POSITION_BOUNDARY = 32
DATASET = "random"

# -- frozen sizes -------------------------------------------------------------

#: ISSUE 11's nominal counts are divided by this so a run takes ~20 s.
COMMON_DIVISOR = 3

READ_COLD_KEYS = 60_000 // COMMON_DIVISOR          # per tree, 7 trees
READ_COLD_GETS_PER_KIND = 24_000 // COMMON_DIVISOR
READ_COLD_ABSENT_SHARE = 0.10

YCSB_KEYS = 60_000              # ~15 MiB of entries; not divided: the
YCSB_CACHE_BYTES = 2 << 20      # workload is defined by data vs. cache
YCSB_DATA_CACHE_BYTES = 8 << 20
YCSB_CODEC = "zlib-1"
YCSB_WARMUP_CALLS = 20_000 // COMMON_DIVISOR
YCSB_CALLS = 60_000 // COMMON_DIVISOR
#: Cumulative shares: 55 % get, 10 % multi_get, 25 % put, 5 % delete,
#: 5 % scan.
YCSB_MIX = ((0.55, "get"), (0.65, "multi_get"), (0.90, "put"),
            (0.95, "delete"), (1.00, "scan"))
YCSB_MGET_KEYS = 16
YCSB_SCAN_MAX = 100

INGEST_UNIVERSE = 100_000 // COMMON_DIVISOR
INGEST_LOADED = 40_000 // COMMON_DIVISOR
INGEST_OPS = 80_000 // COMMON_DIVISOR
INGEST_DELETE_SHARE = 0.10
INGEST_READBACK_GETS = 2_000

SERVE_KEYS = 60_000             # 15k per shard keeps two levels per shard
SERVE_SHARDS = 4
SERVE_REPLICAS = 2
SERVE_QUEUE_DEPTH = 32
SERVE_DEADLINE_US = 20_000.0
SERVE_PUT_SHARE = 0.20
SERVE_REQUESTS_PER_RATE = 25_000 // COMMON_DIVISOR
#: Offered load per segment, simulated requests/s: about 0.3, 0.5, 0.75
#: and 0.95 of the ~135k req/s mixed capacity measured when the
#: benchmark was defined.  Constants: nothing is calibrated at run time.
SERVE_RATES = (40_000, 70_000, 100_000, 130_000)
SERVE_SLO_P99_US = 1_000.0
SERVE_SLO_OK_FRAC = 0.99
#: Rates up to this index in SERVE_RATES are far enough under capacity
#: that a request not served in time counts as a failed operation.
SERVE_MUST_SUCCEED = 1

#: Every 1,000th timed call is a chunk boundary and a trace sample.
CHUNK_CALLS = 1_000

GET, PUT, DELETE, MGET, SCAN, FLUSH, SEGMENT = range(7)
OP_NAMES = ("get", "put", "delete", "multi_get", "scan", "flush", "segment")


@dataclass(frozen=True)
class Scale:
    """How much of the frozen sizes one run uses."""

    ops_div: int
    keys_div: int
    #: Identical timed passes a run makes at least.
    min_passes: int


SCALES = {
    "full": Scale(ops_div=1, keys_div=1, min_passes=3),
    # For perf/test_harness.py only: seconds, not a measurement.
    "tiny": Scale(ops_div=50, keys_div=10, min_passes=1),
}


def engine_options(kind: IndexKind,
                   granularity: Granularity = Granularity.FILE,
                   **overrides) -> Options:
    """The frozen engine shape with this workload's ``overrides``."""
    options = Options(
        index_kind=kind, position_boundary=POSITION_BOUNDARY,
        granularity=granularity, sstable_bytes=SSTABLE_BYTES,
        write_buffer_bytes=WRITE_BUFFER_BYTES,
        value_capacity=VALUE_CAPACITY, size_ratio=SIZE_RATIO,
        block_size=DEVICE_BLOCK_BYTES, data_block_bytes=DATA_BLOCK_BYTES,
        bloom_bits_per_key=10, l0_compaction_trigger=4, max_levels=7,
        **overrides)
    options.validate()
    return options


def loaded_value(key: int) -> bytes:
    """The 224-byte value set-up stores under ``key``."""
    return (b"%016x" % key) * 14


def written_value(call: int) -> bytes:
    """The 224-byte value the ``call``-th timed call writes."""
    return (b"%08x" % call) * 28


def user_bytes(value: Optional[bytes]) -> int:
    """Key plus value bytes of one user record (a delete has no value)."""
    return 8 + (len(value) if value is not None else 0)


@dataclass
class PassResult:
    """What one timed pass measured."""

    #: Wall nanoseconds of each timed call.
    lat_ns: np.ndarray
    #: Op code of each timed call (identical in every pass).
    kinds: np.ndarray
    #: Operations each timed call stands for (1, or a segment's requests).
    weights: np.ndarray
    attempted: int
    failed: int
    #: Simulated-clock and counter change over the timed calls.
    stage_us: Dict[str, float]
    counters: Dict[str, float]
    #: Exact values read off the end state.
    exact: Dict[str, float]
    #: Wall-clock extras outside the timed calls (``reopen_ms``).
    wall: Dict[str, float] = field(default_factory=dict)
    #: Traced passes only: ``{span: (calls, self ns, inclusive ns, arg
    #: bytes)}`` over the timed calls, and ``indexes.lookup``'s (calls,
    #: self ns) per index kind.
    spans: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    lookup_by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def _merged(stats_objs: Sequence[Stats]) -> Stats:
    """The sum of several registries (without calling into them: their
    methods may be under trace)."""
    total = Stats()
    for stats in stats_objs:
        for name, amount in stats.counters.items():
            total.counters[name] = total.counters.get(name, 0.0) + amount
        for stage, us in stats.stage_us.items():
            total.stage_us[stage] = total.stage_us.get(stage, 0.0) + us
    return total


def _spans_since(mark: Dict[str, tuple], tracer) -> Dict[str, tuple]:
    """Span totals accumulated since ``mark = tracer.totals()``."""
    return {name: tuple(now - then for now, then in zip(row, mark[name]))
            for name, row in tracer.totals().items()}


def _state_exact(trees: Sequence[LSMTree], stats_objs: Sequence[Stats],
                 devices: Sequence, accepted_bytes: int,
                 live_bytes: int) -> Dict[str, float]:
    """Write, space and memory cost of the stores as they stand now."""
    written = _merged(stats_objs).get("io.bytes_written")
    stored = sum(device.total_bytes() for device in devices)
    return {
        "write_amp": written / accepted_bytes,
        "space_amp": stored / live_bytes,
        "index_mem_bytes": float(sum(t.index_memory_bytes() for t in trees)),
        "bloom_mem_bytes": float(sum(t.bloom_memory_bytes() for t in trees)),
    }


class ClosedLoop:
    """One client calling ``LSMTree`` and waiting for each reply."""

    name = ""
    #: Do the timed calls change the state (so each pass needs a rebuild)?
    mutates = True
    #: Remarks printed with the results as ``info.<key>``.
    info: Dict[str, str] = {}

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        #: Keys set-up loads, and untimed calls issued before the pass.
        self.keys: List[int] = []
        self.warm_ops: List[tuple] = []
        #: ``(op code, a, b)`` per timed call.
        self.ops: List[tuple] = []
        #: The oracle's answer to each timed call.
        self.expected: List[object] = []
        #: User bytes set-up loads / the timed calls get acknowledged.
        self.loaded_bytes = 0
        self.acked_bytes = 0
        #: User bytes live after the timed calls (oracle end state).
        self.live_bytes = 0
        self.trees: List[LSMTree] = []

    # -- subclass hooks ------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work between set-up and the timed pass."""

    def phases(self) -> List[Tuple[LSMTree, int, int]]:
        """``(tree, first op, end op)`` runs of the op list."""
        return [(self.trees[0], 0, len(self.ops))]

    def after_timed(self) -> Dict[str, float]:
        """Traced but not per-call work after the op list: wall extras."""
        return {}

    def verify(self) -> Tuple[int, int]:
        """Checks beyond the replies: (attempted, failed)."""
        return 0, 0

    # -- shared machinery ----------------------------------------------

    def digest(self) -> str:
        """Fingerprint of everything the program is handed."""
        return hashlib.sha256(repr(
            (self.keys, self.warm_ops, self.ops, self.expected)
        ).encode()).hexdigest()

    def close(self) -> None:
        for tree in self.trees:
            tree.close()
        self.trees = []

    def run(self, tracer=None) -> PassResult:
        n = len(self.ops)
        lat = [0] * n
        out: List[object] = []
        stats_objs = [tree.stats for tree in self.trees]
        before = _merged(stats_objs).snapshot()
        start = tracer.totals() if tracer else {}
        lookup_by_kind: Dict[str, Tuple[int, int]] = {}
        for tree, lo, hi in self.phases():
            mark = tracer.totals() if tracer else {}
            _drive(tree, self.ops, lo, hi, lat, out, tracer)
            if tracer:
                calls, self_ns = _spans_since(mark, tracer)[
                    "indexes.lookup"][:2]
                kind = tree.options.index_kind.value
                had = lookup_by_kind.get(kind, (0, 0))
                lookup_by_kind[kind] = (had[0] + calls, had[1] + self_ns)
        wall = self.after_timed()
        spans = _spans_since(start, tracer) if tracer else {}
        delta = before.delta(_merged(stats_objs))
        failed = sum(1 for got, want in zip(out, self.expected)
                     if got != want)
        more_attempted, more_failed = self.verify()
        exact = _state_exact(
            self.trees, stats_objs, [tree.device for tree in self.trees],
            self.loaded_bytes + self.acked_bytes, self.live_bytes)
        exact["acked_bytes"] = float(self.acked_bytes)
        return PassResult(
            lat_ns=np.array(lat, dtype=np.int64),
            kinds=np.array([op[0] for op in self.ops], dtype=np.int8),
            weights=np.ones(n, dtype=np.int64),
            attempted=n + more_attempted,
            failed=failed + more_failed,
            stage_us={stage.value: us
                      for stage, us in delta.stage_us.items()},
            counters=dict(delta.counters), exact=exact, wall=wall,
            spans=spans, lookup_by_kind=lookup_by_kind)


def _drive(db: LSMTree, ops: List[tuple], lo: int, hi: int, lat: List[int],
           out: List[object], tracer) -> None:
    """Issue ``ops[lo:hi]`` against ``db``, timing each call by itself.

    Only the API call sits between the two clock reads; storing the
    reply and the trace sampling happen outside them.  A call that
    raises yields its exception as the reply, which no oracle answer
    equals.
    """
    now = time.perf_counter_ns
    get, put, delete = db.get, db.put, db.delete
    multi_get, scan = db.multi_get, db.scan
    flush, compact = db.flush, db.maybe_compact
    for i in range(lo, hi):
        code, a, b = ops[i]
        sampled = tracer is not None and i % CHUNK_CALLS == 0
        if sampled:
            tracer.begin_sample(i, OP_NAMES[code])
        try:
            if code == GET:
                t0 = now()
                reply = get(a)
                t1 = now()
            elif code == PUT:
                t0 = now()
                reply = put(a, b)
                t1 = now()
            elif code == DELETE:
                t0 = now()
                reply = delete(a)
                t1 = now()
            elif code == MGET:
                t0 = now()
                reply = multi_get(a)
                t1 = now()
            elif code == SCAN:
                t0 = now()
                reply = scan(a, b)
                t1 = now()
            else:
                t0 = now()
                flush()
                compact()
                t1 = now()
                reply = None
        except ReproError as exc:
            t1 = now()
            reply = exc
        if sampled:
            tracer.end_sample()
        lat[i] = t1 - t0
        out.append(reply)


class ReadCold(ClosedLoop):
    """Point lookups on seven uncached trees, one per index kind."""

    name = "read_cold"
    mutates = False

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        n_keys = READ_COLD_KEYS // scale.keys_div
        per_kind = READ_COLD_GETS_PER_KIND // scale.ops_div
        self.keys = generate(DATASET, n_keys, seed=seed)
        present = set(self.keys)
        rng = random.Random(seed)
        for _ in ALL_KINDS:
            for _ in range(per_kind):
                if rng.random() < READ_COLD_ABSENT_SHARE:
                    key = rng.randrange(KEY_SPACE)
                    while key in present:
                        key = rng.randrange(KEY_SPACE)
                    self.expected.append(None)
                else:
                    key = self.keys[rng.randrange(n_keys)]
                    self.expected.append(loaded_value(key))
                self.ops.append((GET, key, None))
        self.per_kind = per_kind
        self.loaded_bytes = self.live_bytes = len(ALL_KINDS) * sum(
            user_bytes(loaded_value(key)) for key in self.keys)

    def build(self) -> None:
        self.trees = []
        for kind in ALL_KINDS:
            tree = LSMTree(engine_options(kind))
            tree.bulk_ingest(self.keys, value_for=loaded_value,
                             seed=self.seed)
            self.trees.append(tree)

    def warm(self) -> None:
        # Reads every data block once, which fills each table's
        # verify-once CRC memo: the timed gets then never checksum.
        for tree in self.trees:
            tree.scan(0, len(self.keys))

    def phases(self) -> List[Tuple[LSMTree, int, int]]:
        return [(tree, i * self.per_kind, (i + 1) * self.per_kind)
                for i, tree in enumerate(self.trees)]


class YcsbHot(ClosedLoop):
    """Zipfian reads, batches, scans and writes on one cached tree."""

    name = "ycsb_hot"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        n_keys = YCSB_KEYS // scale.keys_div
        self.keys = generate(DATASET, n_keys, seed=seed)
        self.loaded_bytes = sum(user_bytes(loaded_value(key))
                                for key in self.keys)
        picker = make_picker("zipfian", n_keys, seed=seed)
        rng = random.Random(seed + 1)
        oracle: Dict[int, Optional[bytes]] = {
            key: loaded_value(key) for key in self.keys}
        warm_calls = YCSB_WARMUP_CALLS // scale.ops_div
        self.warm_ops, warm_acked = self._generate(
            warm_calls, picker, rng, oracle, [], first_call=-warm_calls)
        self.ops, self.acked_bytes = self._generate(
            YCSB_CALLS // scale.ops_div, picker, rng, oracle, self.expected,
            first_call=0)
        # Warm-up writes are accepted user data too, just not timed.
        self.loaded_bytes += warm_acked
        self.live_bytes = sum(user_bytes(value)
                              for value in oracle.values()
                              if value is not None)

    def _generate(self, count: int, picker, rng: random.Random,
                  oracle: Dict[int, Optional[bytes]], expected: List[object],
                  first_call: int) -> Tuple[List[tuple], int]:
        """``count`` calls from the mix: (ops, user bytes they write)."""
        keys = self.keys
        ops: List[tuple] = []
        acked = 0
        for call in range(first_call, first_call + count):
            draw = rng.random()
            op = next(name for share, name in YCSB_MIX if draw < share)
            key = keys[picker.pick()]
            if op == "get":
                ops.append((GET, key, None))
                expected.append(oracle[key])
            elif op == "multi_get":
                batch = [key] + [keys[picker.pick()]
                                 for _ in range(YCSB_MGET_KEYS - 1)]
                ops.append((MGET, batch, None))
                expected.append([oracle[k] for k in batch])
            elif op == "put":
                value = written_value(call & 0xFFFFFFFF)
                ops.append((PUT, key, value))
                expected.append(None)
                oracle[key] = value
                acked += user_bytes(value)
            elif op == "delete":
                ops.append((DELETE, key, None))
                expected.append(None)
                oracle[key] = None
                acked += user_bytes(None)
            else:
                count_wanted = rng.randint(1, YCSB_SCAN_MAX)
                ops.append((SCAN, key, count_wanted))
                found: List[Tuple[int, bytes]] = []
                at = bisect_left(keys, key)
                while at < len(keys) and len(found) < count_wanted:
                    value = oracle[keys[at]]
                    if value is not None:
                        found.append((keys[at], value))
                    at += 1
                expected.append(found)
        return ops, acked

    def build(self) -> None:
        tree = LSMTree(engine_options(
            IndexKind.PGM, enable_wal=True, block_codec=YCSB_CODEC,
            cache_bytes=YCSB_CACHE_BYTES,
            data_cache_bytes=YCSB_DATA_CACHE_BYTES))
        tree.bulk_ingest(self.keys, value_for=loaded_value, seed=self.seed)
        self.trees = [tree]

    def warm(self) -> None:
        sink = [0] * len(self.warm_ops)
        _drive(self.trees[0], self.warm_ops, 0, len(self.warm_ops), sink,
               [], None)


class Ingest(ClosedLoop):
    """Puts and deletes through flush and compaction, then a reopen."""

    name = "ingest"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        universe = generate(DATASET, INGEST_UNIVERSE // scale.keys_div,
                            seed=seed)
        rng = random.Random(seed)
        self.keys = sorted(rng.sample(
            universe, INGEST_LOADED // scale.keys_div))
        self.loaded_bytes = sum(user_bytes(loaded_value(key))
                                for key in self.keys)
        oracle: Dict[int, Optional[bytes]] = {
            key: loaded_value(key) for key in self.keys}
        for call in range(INGEST_OPS // scale.ops_div):
            key = universe[rng.randrange(len(universe))]
            if rng.random() < INGEST_DELETE_SHARE:
                self.ops.append((DELETE, key, None))
                oracle[key] = None
                self.acked_bytes += user_bytes(None)
            else:
                value = written_value(call)
                self.ops.append((PUT, key, value))
                oracle[key] = value
                self.acked_bytes += user_bytes(value)
            self.expected.append(None)
        self.ops.append((FLUSH, None, None))
        self.expected.append(None)
        self.live = sorted((key, value) for key, value in oracle.items()
                           if value is not None)
        self.live_bytes = sum(user_bytes(value) for _, value in self.live)
        probe = rng.sample(universe, min(len(universe),
                                         INGEST_READBACK_GETS))
        self.readback = [(key, oracle.get(key)) for key in probe]
        self.options = engine_options(IndexKind.PGM, enable_wal=True)

    def build(self) -> None:
        tree = LSMTree(self.options)
        tree.bulk_ingest(self.keys, value_for=loaded_value,
                         seed=self.seed)
        self.trees = [tree]

    def after_timed(self) -> Dict[str, float]:
        # Durability: reopen from the live device WITHOUT close(), which
        # would delete the table files.
        old = self.trees[0]
        t0 = time.perf_counter_ns()
        tree = LSMTree.reopen(self.options, old.device, stats=old.stats)
        reopen_ns = time.perf_counter_ns() - t0
        self.trees = [tree]
        return {"reopen_ms": reopen_ns / 1e6}

    def verify(self) -> Tuple[int, int]:
        # Read everything back from the reopened tree: one full scan for
        # every live key's value and every deleted key's absence, plus
        # point gets through the recovered blooms and indexes.
        tree = self.trees[0]
        failed = 0 if tree.scan(0, len(self.live) + 1) == self.live else 1
        failed += sum(1 for key, want in self.readback
                      if tree.get(key) != want)
        return 1 + len(self.readback), failed


class Serve:
    """Open-loop Poisson load through gateway, shards and replicas."""

    name = "serve"
    mutates = True
    info = {"generator_lateness_us":
            "0 (arrivals are scheduled on the virtual clock)"}

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        n_keys = SERVE_KEYS // scale.keys_div
        per_rate = SERVE_REQUESTS_PER_RATE // scale.ops_div
        self.keys = generate(DATASET, n_keys, seed=seed)
        self.loaded_bytes = sum(user_bytes(loaded_value(key))
                                for key in self.keys)
        rng = random.Random(seed)
        #: Per segment: ``(op, key, value, offset µs)`` per request.
        self.plan: List[List[tuple]] = []
        call = 0
        for i, rate in enumerate(SERVE_RATES):
            times = PoissonArrivals(rate, seed=seed * 31 + i).times(per_rate)
            segment = []
            for at_us in times:
                key = self.keys[rng.randrange(n_keys)]
                if rng.random() < SERVE_PUT_SHARE:
                    segment.append(("put", key, written_value(call), at_us))
                else:
                    segment.append(("get", key, b"", at_us))
                call += 1
            self.plan.append(segment)
        self.options = engine_options(IndexKind.PGM, Granularity.LEVEL)
        self.db: Optional[ShardedDB] = None
        self.gateway: Optional[Gateway] = None

    def digest(self) -> str:
        return hashlib.sha256(
            repr((self.keys, self.plan)).encode()).hexdigest()

    def build(self) -> None:
        # A private sink: closing must not fold shard metrics into the
        # process-wide registry of whoever imported this module.
        self.db = ShardedDB(
            SERVE_SHARDS, self.options, metrics_sink=MetricsRegistry(),
            replication=ReplicationConfig(
                replication_factor=SERVE_REPLICAS, ack=AckPolicy.QUORUM))
        self.db.bulk_ingest(self.keys, value_for=loaded_value,
                            seed=self.seed)
        self.gateway = Gateway(
            self.db, GatewayConfig(queue_depth=SERVE_QUEUE_DEPTH))

    def warm(self) -> None:
        # As in read_cold: verify every block once before timing.
        self.db.scan(0, len(self.keys))

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
        self.db = self.gateway = None

    def run(self, tracer=None) -> PassResult:
        db, gateway = self.db, self.gateway
        groups = db.shards
        before = _merged([g.stats for g in groups]).snapshot()
        start = tracer.totals() if tracer else {}
        oracle: Dict[int, Optional[bytes]] = {}
        lat: List[int] = []
        weights: List[int] = []
        exact: Dict[str, float] = {}
        attempted = failed = 0
        acked_bytes = 0
        max_rate_ok = 0.0
        slo_held = True
        for i, segment in enumerate(self.plan):
            # Arrival times are offsets from the clock as the previous
            # segment left it, so segments never overlap and a segment's
            # horizon is its own (GatewayReport.horizon_us is absolute).
            base = gateway.clock.now_us
            requests = [Request(op, key, base + at_us,
                                base + at_us + SERVE_DEADLINE_US, value=value)
                        for op, key, value, at_us in segment]
            if tracer is not None:
                tracer.begin_sample(i, f"r{i + 1}")
            t0 = time.perf_counter_ns()
            gateway.run(requests)
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_sample()
            lat.append(t1 - t0)
            weights.append(len(requests))
            done = [r for r in requests
                    if r.outcome in (OUTCOME_OK, OUTCOME_LATE)]
            sim_lat = np.array([r.finish_us - r.arrival_us for r in done])
            ok = sum(1 for r in requests if r.outcome == OUTCOME_OK)
            wrong = 0
            # One FIFO server per shard and one shard per key, so each
            # key's requests execute in arrival order.
            for r in requests:
                if r.error is not None:
                    continue
                if r.op == "put":
                    oracle[r.key] = r.value
                    acked_bytes += user_bytes(r.value)
                elif r.result != oracle.get(r.key, loaded_value(r.key)):
                    wrong += 1
            attempted += len(requests)
            failed += wrong
            if i <= SERVE_MUST_SUCCEED:
                failed += len(requests) - ok
            p99 = float(np.percentile(sim_lat, 99)) if len(sim_lat) else 0.0
            ok_frac = ok / len(requests)
            exact[f"p99_us.r{i + 1}"] = p99
            exact[f"ok_frac.r{i + 1}"] = ok_frac
            slo_held = (slo_held and p99 <= SERVE_SLO_P99_US
                        and ok_frac >= SERVE_SLO_OK_FRAC)
            if slo_held:
                max_rate_ok = float(SERVE_RATES[i])
        spans = _spans_since(start, tracer) if tracer else {}
        exact["max_rate_ok"] = max_rate_ok
        for op, label in (("gw.queue_delay", "queue_p99_us"),
                          ("gw.service", "service_p99_us")):
            exact[label] = gateway.registry.histogram(op).percentile(0.99)
        delta = before.delta(_merged([g.stats for g in groups]))
        live_bytes = self.loaded_bytes + sum(
            user_bytes(value) - user_bytes(loaded_value(key))
            for key, value in oracle.items())
        trees = [replica.tree for g in groups for replica in g.replicas]
        exact.update(_state_exact(
            trees, [g.stats for g in groups],
            [replica.device for g in groups for replica in g.replicas],
            self.loaded_bytes + acked_bytes, live_bytes))
        exact["acked_bytes"] = float(acked_bytes)
        lookup_by_kind = {}
        if tracer is not None:
            lookup_by_kind[self.options.index_kind.value] = spans[
                "indexes.lookup"][:2]
        return PassResult(
            lat_ns=np.array(lat, dtype=np.int64),
            kinds=np.full(len(lat), SEGMENT, dtype=np.int8),
            weights=np.array(weights, dtype=np.int64),
            attempted=attempted, failed=failed,
            stage_us={stage.value: us
                      for stage, us in delta.stage_us.items()},
            counters=dict(delta.counters), exact=exact, spans=spans,
            lookup_by_kind=lookup_by_kind)


WORKLOADS = {cls.name: cls for cls in (ReadCold, YcsbHot, Ingest, Serve)}
