"""The block-at-a-time point-read path, kept as the reference for the
run-level one.

``Table._read_blocks`` looks a whole run of data blocks up in the
decompressed-block cache with one call, counts and charges its hits once
per run, and verifies, decodes and admits each pread run with
``Table._fill_run``; point lookups search the one block they bisect to
in the run's block list.  The functions here are the path it replaced:
one cache ``get`` per block with its own ``Stats.add`` and
``Stats.charge``, one verify/decode/admit per missed block
(``decode_stored``, ``decode_run``), one cache ``put`` per block with
its own eviction loop, and a ``b"".join`` of the whole segment that
lookups then search at byte offsets.  :func:`patched` installs them on
:class:`~repro.lsm.sstable.Table`, and the tests require the two paths
to agree in every answer, error, counter, charge, cache entry and span.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from contextlib import ExitStack, contextmanager
from operator import itemgetter
from unittest import mock

from repro.errors import ChecksumError, CorruptionError, QuarantinedBlockError
from repro.lsm import sstable
from repro.lsm.record import decode_entry
from repro.lsm.sstable import BLOCK_TRAILER_BYTES, Table
from repro.storage.checksum import crc32c
from repro.storage.compression import decode_block
from repro.storage.stats import (
    BLOCKS_VERIFIED,
    CHECKSUM_FAILURES,
    DATA_CACHE_EVICTIONS,
    DATA_CACHE_HITS,
    DATA_CACHE_MISSES,
    DECOMPRESS_BYTES,
    MULTIGET_COALESCED,
    MULTIGET_SEEKS_SAVED,
    SEEKS,
    SEGMENTS_FETCHED,
    Stage,
)

_FIRST_KEY = itemgetter(0)
_KEY = struct.Struct("<Q")


def cache_put(cache, name, block_no, payload):
    """``DataBlockCache.put``: admit one decoded block, then evict until
    the rest fit; returns how many blocks were evicted."""
    if len(payload) > cache.capacity_bytes:
        return 0
    key = (name, block_no)
    if key in cache._blocked:
        return 0
    old = cache._blocks.get(key)
    if old is not None:
        cache._used_bytes -= len(old)
    cache._blocks[key] = payload
    cache._blocks.move_to_end(key)
    cache._used_bytes += len(payload)
    cache._by_file.setdefault(name, set()).add(block_no)
    evicted = 0
    while cache._used_bytes > cache.capacity_bytes:
        (old_name, old_no), old_payload = cache._blocks.popitem(last=False)
        cache._used_bytes -= len(old_payload)
        indexes = cache._by_file.get(old_name)
        if indexes is not None:
            indexes.discard(old_no)
            if not indexes:
                del cache._by_file[old_name]
        evicted += 1
    return evicted


def decode_stored(self, block_no, data, raw_len, stage):
    """Verify, decode and admit one stored data block (trailer included)."""
    payload = data[:-BLOCK_TRAILER_BYTES]
    codec_id, stored_crc = sstable._BLOCK_TRAILER.unpack(
        data[-BLOCK_TRAILER_BYTES:])
    if self._block_state[block_no] == sstable._UNVERIFIED:
        if crc32c(data[:-4]) != stored_crc:
            self.stats.add(CHECKSUM_FAILURES)
            raise ChecksumError(self.name, "data", block=block_no)
        self._block_state[block_no] = (
            sstable._VERIFIED_RAW if codec_id == 0 and len(payload) == raw_len
            else sstable._VERIFIED_CODED)
        self.stats.add(BLOCKS_VERIFIED)
        self.stats.charge(stage, self.cost.checksum_us(len(data)))
    if codec_id == 0:
        if len(payload) != raw_len:
            raise ChecksumError(
                self.name, "data", block=block_no,
                detail=f"{len(payload)} stored bytes, expected {raw_len} raw")
        raw = payload
    else:
        raw = decode_block(codec_id, payload, raw_len,
                           file=self.name, block=block_no)
        decompress_stage = (Stage.DECOMPRESS
                            if stage in (Stage.IO, Stage.SCAN) else stage)
        self.stats.charge(decompress_stage, self.cost.decompress_us(raw_len))
        self.stats.add(DECOMPRESS_BYTES, raw_len)
    if self.data_cache is not None:
        evicted = cache_put(self.data_cache, self.name, block_no, raw)
        if evicted:
            self.stats.add(DATA_CACHE_EVICTIONS, evicted)
    return raw


def decode_run(self, data, first_no, last_no, stage):
    """:func:`decode_stored` of every block of a pread run buffer."""
    offset = self.handles[first_no][1]
    return [decode_stored(self, block_no,
                          data[blk_off - offset:
                               blk_off - offset + stored_len],
                          raw_len, stage)
            for block_no, (_, blk_off, stored_len, raw_len)
            in enumerate(self.handles[first_no:last_no + 1], first_no)]


def _hit(self, payload, stage):
    self.stats.add(DATA_CACHE_HITS)
    self.stats.charge(stage, self.cost.cache_block_us * max(
        1, self.cost.blocks_spanned(0, len(payload))))


def read_blocks(self, first, last, stage, *, seeks=1):
    """Data blocks [first, last] in one buffer: ``(buf, base)``."""
    if sstable._QUARANTINED in self._block_state:
        poisoned = self._block_state.find(sstable._QUARANTINED, first,
                                          last + 1)
        if poisoned >= 0:
            raise QuarantinedBlockError(self.name, poisoned)
    cache = self.data_cache
    try:
        if cache is None:
            data = self._pread_run(first, last, stage, seeks=seeks)
            if last - first + 1 == self._block_state.count(
                    sstable._VERIFIED_RAW, first, last + 1):
                return data, self.handles[first][1]
            payloads = decode_run(self, data, first, last, stage)
        else:
            payloads = [None] * (last - first + 1)
            pending = []
            for block_no in range(first, last + 1):
                payload = cache.get(self.name, block_no)
                if payload is not None:
                    _hit(self, payload, stage)
                    payloads[block_no - first] = payload
                    continue
                self.stats.add(DATA_CACHE_MISSES)
                pending.append(block_no)
            seek_budget = seeks
            run = []
            for block_no in pending + [-1]:
                if run and block_no != run[-1] + 1:
                    payloads[run[0] - first:run[-1] - first + 1] = (
                        decode_run(self,
                                   self._pread_run(run[0], run[-1], stage,
                                                   seeks=seek_budget),
                                   run[0], run[-1], stage))
                    seek_budget = 0
                    run = []
                if block_no >= 0:
                    run.append(block_no)
    except ChecksumError as exc:
        raise self._quarantine_block(exc) from exc
    return b"".join(payloads), None


def read_block(self, block_no, stage, seeks):
    """Data block ``block_no``, raw: one cache ``get``, one pread."""
    state = self._block_state[block_no]
    if state == sstable._QUARANTINED:
        raise QuarantinedBlockError(self.name, block_no)
    cache = self.data_cache
    try:
        if cache is not None:
            payload = cache.get(self.name, block_no)
            if payload is not None:
                _hit(self, payload, stage)
                return payload
            self.stats.add(DATA_CACHE_MISSES)
        data = self._pread_run(block_no, block_no, stage, seeks=seeks)
        if state == sstable._VERIFIED_RAW and cache is None:
            return data
        return decode_stored(self, block_no, data, self.handles[block_no][3],
                             stage)
    except ChecksumError as exc:
        raise self._quarantine_block(exc) from exc


def read_entries(self, lo, hi, stage, *, seeks=1):
    """Entries [lo, hi) as one contiguous buffer."""
    if hi <= lo:
        return b""
    per = self.footer.entries_per_block
    first = lo // per
    last = (hi - 1) // per
    if first == last:
        data = read_block(self, first, stage, seeks)
    else:
        data, base = read_blocks(self, first, last, stage, seeks=seeks)
        if base is not None:
            data = b"".join([data[blk_off - base:blk_off - base + raw_len]
                             for _, blk_off, _, raw_len
                             in self.handles[first:last + 1]])
    entry_bytes = self.footer.entry_bytes
    start = (lo - first * per) * entry_bytes
    return data[start:start + (hi - lo) * entry_bytes]


def search(self, buf, first, base, lo, hi, key):
    """Byte offset of ``key`` among entries [lo, hi) of a
    :func:`read_blocks` buffer, or None."""
    per = self.footer.entries_per_block
    block_no = bisect_right(self.handles, key, lo // per,
                            (hi - 1) // per + 1, key=_FIRST_KEY) - 1
    if block_no < lo // per:
        return None
    entry_bytes = self.footer.entry_bytes
    if base is not None:
        at = self.handles[block_no][1] - base
    else:
        at = (block_no - first) * per * entry_bytes
    lo = 0
    hi = min(per, hi - block_no * per)
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            probe = _KEY.unpack_from(buf, at + mid * entry_bytes)[0]
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return at + mid * entry_bytes
    except struct.error as exc:
        raise CorruptionError(
            f"table {self.name}: entry {block_no * per + mid} lies "
            f"outside the {len(buf)} bytes fetched for it") from exc
    return None


def get_in_bound(self, key, bound):
    """Point lookup: fetch the block-aligned bound, search the joined
    segment."""
    footer = self.footer
    n = footer.entry_count
    lo = max(0, min(bound.lo, n))
    hi = min(bound.hi, n)
    if hi <= lo:
        return None
    per = footer.entries_per_block
    first = lo // per
    last = (hi - 1) // per
    buf, base = read_blocks(self, first, last, Stage.IO)
    self.stats.add(SEGMENTS_FETCHED)
    lo = first * per
    hi = min(last * per + per, n)
    at = search(self, buf, first, base, lo, hi, key)
    self.stats.charge(Stage.SEARCH, self.cost.segment_search_us(hi - lo))
    if at is None:
        return None
    return decode_entry(buf, at, footer.value_capacity)


def multi_get_in_bounds(self, items, coalesce=True, errors=None):
    """Batched lookups over ``SearchBound`` objects, one joined buffer
    per coalesced run."""
    n = self.footer.entry_count
    clamped = []
    for key, bound in items:
        bound = bound.clamped(n)
        if bound.width > 0:
            clamped.append((key, self.block_bound(bound)))
    if not clamped:
        return {}
    clamped.sort(key=lambda item: (item[1].lo, item[1].hi))
    blocks = int(self.cost.seek_us // max(self.cost.block_read_us, 1e-9))
    gap = blocks * (self.device.block_size // self.footer.entry_bytes)
    runs = []
    for key, bound in clamped:
        if coalesce and runs and bound.lo <= runs[-1][1] + gap:
            runs[-1][1] = max(runs[-1][1], bound.hi)
            runs[-1][2].append((key, bound))
        else:
            runs.append([bound.lo, bound.hi, [(key, bound)]])
    found = {}
    per = self.footer.entries_per_block
    value_capacity = self.footer.value_capacity
    todo = [(run_lo, run_hi, members, False)
            for run_lo, run_hi, members in reversed(runs)]
    while todo:
        run_lo, run_hi, members, retried = todo.pop()
        seeks_before = self.stats.get(SEEKS)
        try:
            buf, base = read_blocks(self, run_lo // per, (run_hi - 1) // per,
                                    Stage.IO)
        except QuarantinedBlockError as exc:
            if not retried:
                todo.extend((bound.lo, bound.hi, [(key, bound)], True)
                            for key, bound in reversed(members))
                continue
            if errors is None:
                raise
            errors[members[0][0]] = exc
            continue
        self.stats.add(SEGMENTS_FETCHED)
        if len(members) > 1 and self.stats.get(SEEKS) > seeks_before:
            self.stats.add(MULTIGET_COALESCED)
            self.stats.add(MULTIGET_SEEKS_SAVED, len(members) - 1)
        for key, bound in members:
            at = search(self, buf, run_lo // per, base, bound.lo, bound.hi,
                        key)
            self.stats.charge(Stage.SEARCH,
                              self.cost.segment_search_us(bound.width))
            if at is not None:
                found[key] = decode_entry(buf, at, value_capacity)
    return found


#: Every ``Table`` read method the run-level path changed.
REFERENCE = {
    "_read_blocks": read_blocks,
    "_read_block": read_block,
    "read_entries": read_entries,
    "get_in_bound": get_in_bound,
    "multi_get_in_bounds": multi_get_in_bounds,
}


@contextmanager
def patched():
    """Serve every table read through the block-at-a-time reference."""
    with ExitStack() as stack:
        for attr, fn in REFERENCE.items():
            stack.enter_context(mock.patch.object(Table, attr, fn))
        yield

