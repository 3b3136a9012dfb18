"""The point-read path against references that search the slow way.

``Table.get_in_bound`` and ``Table.multi_get_in_bounds`` binary-search
the fetched blocks in place.  Here they are checked against references
that materialise the entries with ``read_entries`` and scan them
linearly: same answers, and the same counters and simulated charges to
the last bit, over codecs, data cache on and off and both index
granularities.  Rot must still be caught before a block is searched in
place, and PGM's one-bisect leaf lookup must land on the leaf its
recursive descent finds.
"""

from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QuarantinedBlockError
from repro.indexes.base import SearchBound, segments_to_bound
from repro.indexes.pgm import PGMIndex
from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity, small_test_options
from repro.lsm.record import decode_entry, make_value
from repro.lsm.sstable import Table, TableBuilder
from repro.storage.block_cache import DataBlockCache
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    MULTIGET_COALESCED,
    MULTIGET_SEEKS_SAVED,
    SEEKS,
    SEGMENTS_FETCHED,
    Stage,
    Stats,
)
from repro.workloads.datasets import generate

_CODECS = ["none", "zlib-1"]


# -- references: read_entries, then a linear scan ----------------------------


def _scan(table, data, start, count, key):
    """Linear scan of ``count`` entries of ``data`` from entry ``start``."""
    entry_bytes = table.footer.entry_bytes
    for i in range(start, start + count):
        record = decode_entry(data, i * entry_bytes,
                              table.footer.value_capacity)
        if record.key == key:
            return record
    return None


def _reference_get_in_bound(self, key, bound):
    bound = bound.clamped(self.entry_count)
    if bound.width <= 0:
        return None
    bound = self.block_bound(bound)
    data = self.read_entries(bound.lo, bound.hi, Stage.IO)
    self.stats.add(SEGMENTS_FETCHED)
    self.stats.charge(Stage.SEARCH, self.cost.segment_search_us(bound.width))
    return _scan(self, data, 0, bound.width, key)


def _reference_multi_get_in_bounds(self, items, coalesce=True, errors=None):
    n = self.entry_count
    clamped = sorted(
        ((key, self.block_bound(bound.clamped(n))) for key, bound in items
         if bound.clamped(n).width > 0),
        key=lambda item: (item[1].lo, item[1].hi))
    gap = self._coalesce_gap_entries()
    runs = []
    for key, bound in clamped:
        if coalesce and runs and bound.lo <= runs[-1][1] + gap:
            runs[-1][1] = max(runs[-1][1], bound.hi)
            runs[-1][2].append((key, bound))
        else:
            runs.append([bound.lo, bound.hi, [(key, bound)]])
    found = {}
    for run_lo, run_hi, members in runs:
        seeks_before = self.stats.get(SEEKS)
        data = self.read_entries(run_lo, run_hi, Stage.IO)
        self.stats.add(SEGMENTS_FETCHED)
        if len(members) > 1 and self.stats.get(SEEKS) > seeks_before:
            self.stats.add(MULTIGET_COALESCED)
            self.stats.add(MULTIGET_SEEKS_SAVED, len(members) - 1)
        for key, bound in members:
            record = _scan(self, data, bound.lo - run_lo, bound.width, key)
            self.stats.charge(Stage.SEARCH,
                              self.cost.segment_search_us(bound.width))
            if record is not None:
                found[key] = record
    return found


def _ledger(stats):
    """Counters and stage charges, floats as exact hex strings."""
    return ({name: value.hex() for name, value in stats.counters.items()},
            {stage: us.hex() for stage, us in stats.stage_us.items()})


def _tree(codec, cached, granularity, keys):
    options = small_test_options(
        index_kind=IndexKind.PGM, granularity=granularity,
        block_codec=codec, data_cache_bytes=2048 if cached else 0)
    tree = LSMTree(options)
    tree.bulk_ingest(keys, value_for=lambda key: b"b%d" % key)
    # Newer versions and tombstones in overlapping level-0 files.
    for key in keys[::7]:
        tree.put(key, b"n%d" % key)
    for key in keys[3::11]:
        tree.delete(key)
    tree.flush()
    return tree


def _run(tree, ops):
    out = []
    for op, arg in ops:
        out.append(tree.get(arg) if op == "get" else tree.multi_get(arg))
    return out


_KEYS = sorted(set(generate("random", 400, seed=3)))
_PROBE = st.one_of(st.sampled_from(_KEYS), st.integers(0, _KEYS[-1] + 10))
_OPS = st.lists(
    st.one_of(st.tuples(st.just("get"), _PROBE),
              st.tuples(st.just("multi_get"),
                        st.lists(_PROBE, min_size=1, max_size=12))),
    min_size=1, max_size=25)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codec=st.sampled_from(_CODECS), cached=st.booleans(),
       granularity=st.sampled_from([Granularity.FILE, Granularity.LEVEL]),
       ops=_OPS)
def test_point_reads_match_the_scanning_reference(codec, cached,
                                                  granularity, ops):
    tree = _tree(codec, cached, granularity, _KEYS)
    reference = _tree(codec, cached, granularity, _KEYS)
    assert _ledger(tree.stats) == _ledger(reference.stats)
    got = _run(tree, ops)
    with mock.patch.object(Table, "get_in_bound", _reference_get_in_bound), \
            mock.patch.object(Table, "multi_get_in_bounds",
                              _reference_multi_get_in_bounds):
        want = _run(reference, ops)
    assert got == want
    assert _ledger(tree.stats) == _ledger(reference.stats)


# -- rot before first touch ---------------------------------------------------


def _cold_table(codec, cached):
    """A 40-entry, 10-block table on a faulty device, reopened cold."""
    options = small_test_options(block_codec=codec)
    stats = Stats()
    device = FaultyBlockDevice(
        MemoryBlockDevice(block_size=options.block_size, stats=stats),
        FaultPlan(seed=9))
    cost = CostModel(block_size=options.block_size)
    records = [make_value(1000 + 7 * i, i + 1, b"v%d" % i) for i in range(40)]
    builder = TableBuilder(device, "t1", options,
                           IndexFactory(IndexKind.FP, 8), stats, cost)
    for record in records:
        builder.add(record)
    builder.finish()
    table = Table.open(device, "t1", options, stats, cost,
                       data_cache=DataBlockCache(1 << 12) if cached else None)
    return table, device, records


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("codec", _CODECS)
def test_rot_before_first_touch_is_never_searched_in_place(codec, cached):
    table, device, records = _cold_table(codec, cached)
    per = table.footer.entries_per_block
    device.inject_rot("t1", table.handles[5][1] // device.block_size)
    size = device.size("t1")
    clean = device.inner.pread("t1", 0, size)
    rotten = device.pread("t1", 0, size)
    (flipped,) = [i for i in range(size) if clean[i] != rotten[i]]
    (victim,) = [no for no, (_, offset, stored, _) in enumerate(table.handles)
                 if offset <= flipped < offset + stored]
    assert 0 < victim < 9
    # Verify both neighbours first, so the run below is verified at both
    # ends and rotten (unverified) in the middle.
    for block_no in (victim - 1, victim + 1):
        record = records[block_no * per]
        assert table.get_in_bound(
            record.key, SearchBound(block_no * per, block_no * per + 1)) \
            == record
    run = SearchBound((victim - 1) * per, (victim + 2) * per)
    with pytest.raises(QuarantinedBlockError) as excinfo:
        table.get_in_bound(records[victim * per].key, run)
    assert excinfo.value.block == victim
    assert table.quarantined_blocks == {victim}
    # The batch path fails only the keys whose own bound covers the
    # victim; its neighbours keep serving.
    lo, hi = (victim - 1) * per, (victim + 2) * per
    items = [(records[position].key, SearchBound(position, position + 1))
             for position in range(lo, hi)]
    errors = {}
    found = table.multi_get_in_bounds(items, errors=errors)
    victims = {record.key
               for record in records[victim * per:(victim + 1) * per]}
    assert set(errors) == victims
    assert found == {record.key: record for record in records[lo:hi]
                     if record.key not in victims}


# -- PGM: the leaf bisect against the recursive descent ------------------------


def _windowed_floor(firsts, key, bound):
    """Floor search restricted to ``bound``, with the safety fix-up."""
    lo = max(0, min(bound.lo, len(firsts) - 1))
    hi = max(lo + 1, min(bound.hi, len(firsts)))
    idx = bisect_right(firsts, key, lo, hi) - 1
    if idx < lo:
        idx = lo
    while idx > 0 and firsts[idx] > key:
        idx -= 1
    while idx + 1 < len(firsts) and firsts[idx + 1] <= key:
        idx += 1
    return idx


def _descent_bound(index, key):
    """PGM's recursive descent: from the root, one windowed search of
    each level's first keys, guided by the level above's model."""
    levels = index._levels
    firsts = [[segment.first_key for segment in level] for level in levels]
    top = len(levels) - 1
    if len(levels[top]) == 1:
        seg_idx = 0
    else:  # unrooted top level: plain binary search over its first keys
        seg_idx = max(0, bisect_right(firsts[top], key) - 1)
    for level in range(top, 0, -1):
        bound = segments_to_bound(levels[level][seg_idx], key,
                                  index.epsilon_recursive)
        seg_idx = _windowed_floor(firsts[level - 1], key, bound)
    return segments_to_bound(levels[0][seg_idx], key, index.epsilon)


def _probes(keys):
    return (keys + [key + 1 for key in keys] + [key - 1 for key in keys]
            + [0, keys[-1] + 1000])


@pytest.mark.parametrize("dataset", ["random", "segment", "longlat", "fb"])
@pytest.mark.parametrize("epsilon", [2, 8, 32])
@pytest.mark.parametrize("epsilon_recursive", [1, 2, 4])
def test_pgm_leaf_bisect_matches_the_descent(dataset, epsilon,
                                             epsilon_recursive):
    keys = sorted(set(generate(dataset, 3000, seed=7)))
    index = PGMIndex(epsilon, epsilon_recursive)
    index.build(keys)
    assert index.level_count() >= 2 or epsilon == 32
    for key in _probes(keys):
        assert index._predict(key) == _descent_bound(index, key)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=600,
                     unique=True),
       epsilon=st.integers(1, 16), epsilon_recursive=st.integers(1, 4))
def test_pgm_leaf_bisect_matches_the_descent_on_any_keys(keys, epsilon,
                                                         epsilon_recursive):
    keys.sort()
    index = PGMIndex(epsilon, epsilon_recursive)
    index.build(keys)
    for key in _probes(keys):
        assert index._predict(key) == _descent_bound(index, key)
