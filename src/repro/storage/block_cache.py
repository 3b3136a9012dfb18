"""LRU block cache: a memory tier in front of ``BlockDevice.pread``.

LevelDB and RocksDB put a block cache between the table reader and the
disk; the paper's testbed omits one so that every segment fetch pays
for real I/O, which is the right choice for isolating index quality but
the wrong one for a serving layer, where skewed (Zipfian) traffic
re-reads a small hot set of blocks.  This module adds that tier:

* :class:`LRUBlockCache` — a bounded map of ``(file, block_index)`` to
  block payloads with least-recently-used eviction;
* :class:`CachedBlockDevice` — a :class:`~repro.storage.block_device.BlockDevice`
  decorator that serves ``pread`` block-by-block from the cache,
  fetching only the missing runs from the wrapped device.

Accounting follows the repo's split between counters and time: the
wrapped device keeps recording raw I/O counters for the blocks it
actually fetches (so ``io.blocks_read`` now means *device* reads, with
hits visible under ``cache.block_hits``), while simulated time stays a
call-site concern — cache-aware readers use
:meth:`CachedBlockDevice.pread_cached` to learn what fraction of a read
was served from memory and charge
:attr:`~repro.storage.cost_model.CostModel.cache_block_us` for it
instead of seek + transfer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.storage.block_device import BlockDevice
from repro.storage.stats import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    Stats,
)


class LRUBlockCache:
    """A bounded ``(file, block_index) -> bytes`` map with LRU eviction.

    Capacity is expressed in bytes and converted to whole blocks; a
    capacity below one block disables admission entirely (every ``put``
    is dropped), which keeps a misconfigured cache harmless.
    """

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(
                f"cache capacity must be >= 0, got {capacity_bytes}")
        if block_size <= 0:
            raise StorageError(
                f"cache block size must be positive, got {block_size}")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.capacity_blocks = capacity_bytes // block_size
        self._blocks: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._by_file: Dict[str, Set[int]] = {}
        self._blocked: Set[Tuple[str, int]] = set()

    # -- core map ------------------------------------------------------

    def get(self, name: str, index: int) -> Optional[bytes]:
        """The cached payload of block ``index`` of ``name``, or None.

        A hit moves the block to the most-recently-used position.
        """
        block = self._blocks.get((name, index))
        if block is not None:
            self._blocks.move_to_end((name, index))
        return block

    def put(self, name: str, index: int, payload: bytes) -> int:
        """Admit one block; returns how many blocks were evicted."""
        if self.capacity_blocks <= 0:
            return 0
        key = (name, index)
        if key in self._blocked:
            return 0  # quarantined blocks are never re-admitted
        self._blocks[key] = payload
        self._blocks.move_to_end(key)
        self._by_file.setdefault(name, set()).add(index)
        evicted = 0
        while len(self._blocks) > self.capacity_blocks:
            (old_name, old_index), _ = self._blocks.popitem(last=False)
            self._discard_index(old_name, old_index)
            evicted += 1
        return evicted

    def _discard_index(self, name: str, index: int) -> None:
        indexes = self._by_file.get(name)
        if indexes is not None:
            indexes.discard(index)
            if not indexes:
                del self._by_file[name]

    # -- invalidation --------------------------------------------------

    def invalidate_block(self, name: str, index: int) -> None:
        """Drop one block (the mutable tail of an appended file)."""
        if self._blocks.pop((name, index), None) is not None:
            self._discard_index(name, index)

    def invalidate_file(self, name: str) -> int:
        """Drop every cached block of ``name``; returns blocks dropped.

        Also lifts any quarantine on the name: invalidation happens when
        the file identity changes (create/delete/rename), and a new file
        under an old name must not inherit its predecessor's poison
        list.
        """
        self._blocked = {key for key in self._blocked if key[0] != name}
        indexes = self._by_file.pop(name, None)
        if not indexes:
            return 0
        for index in indexes:
            self._blocks.pop((name, index), None)
        return len(indexes)

    def quarantine(self, name: str, index: int) -> None:
        """Evict one block and refuse to ever re-admit it.

        Called when a read of this block failed its checksum: the copy
        in cache (and any future copy read from the device) is poison.
        """
        self.invalidate_block(name, index)
        self._blocked.add((name, index))

    def is_quarantined(self, name: str, index: int) -> bool:
        """True when ``(name, index)`` is barred from admission."""
        return (name, index) in self._blocked

    def clear(self) -> None:
        """Drop everything."""
        self._blocks.clear()
        self._by_file.clear()
        self._blocked.clear()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def used_bytes(self) -> int:
        """Bytes of cached payload currently held."""
        return sum(len(block) for block in self._blocks.values())


class DataBlockCache:
    """The second cache tier: *decompressed* SSTable data blocks.

    Where :class:`LRUBlockCache` holds raw device blocks (post-codec
    bytes at device-block granularity), this tier holds whole decoded
    data blocks keyed by ``(file, block_no)`` — a hit skips simulated
    I/O, checksum verification *and* decompression.  Capacity is in
    bytes because decompressed blocks vary in size (the tail block of a
    table is short).

    Tables look up and admit whole runs of consecutive blocks
    (:meth:`get_run`, :meth:`put_run`) — one-block refills use
    :meth:`get` — and account hits and misses themselves; eviction
    counts are returned from :meth:`put_run` like
    :meth:`LRUBlockCache.put` does, so all ``cache.data_*`` counters
    land in one :class:`~repro.storage.stats.Stats` registry.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(
                f"data cache capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._by_file: Dict[str, Set[int]] = {}
        self._used_bytes = 0
        self._blocked: Set[Tuple[str, int]] = set()

    def get(self, name: str, block_no: int) -> Optional[bytes]:
        """The decoded payload of ``block_no`` of ``name``, or None."""
        payload = self._blocks.get((name, block_no))
        if payload is not None:
            self._blocks.move_to_end((name, block_no))
        return payload

    def get_run(self, name: str, first: int,
                last: int) -> List[Optional[bytes]]:
        """The decoded payloads of blocks ``[first, last]`` of ``name``,
        None for each one not held; the hits become most recently used
        in block order, as :meth:`get` block by block would leave them."""
        get = self._blocks.get
        move_to_end = self._blocks.move_to_end
        payloads = []
        for block_no in range(first, last + 1):
            key = (name, block_no)
            payload = get(key)
            if payload is not None:
                move_to_end(key)
            payloads.append(payload)
        return payloads

    def put_run(self, name: str, first: int, payloads: List[bytes]) -> int:
        """Admit decoded blocks ``first, first + 1, ...`` in order;
        returns how many blocks were evicted.

        Evicting once after the whole run leaves the same blocks, in the
        same order, as evicting after each admission: both drop the
        least recently used blocks until the rest fit.  (Tables admit
        blocks that just missed; a block already held has its payload
        replaced and becomes most recently used.)
        """
        blocks = self._blocks
        blocked = self._blocked
        capacity = self.capacity_bytes
        by_file = self._by_file
        indexes = by_file.setdefault(name, set())
        used = self._used_bytes
        for block_no, payload in enumerate(payloads, first):
            if len(payload) > capacity:
                continue  # an oversized block would evict the whole cache
            key = (name, block_no)
            if blocked and key in blocked:
                continue  # quarantined blocks are never re-admitted
            old = blocks.pop(key, None)
            if old is not None:
                used -= len(old)
            blocks[key] = payload
            used += len(payload)
            indexes.add(block_no)
        if not indexes:
            del by_file[name]
        evicted = 0
        popitem = blocks.popitem
        while used > capacity:
            (old_name, old_no), old_payload = popitem(last=False)
            used -= len(old_payload)
            indexes = by_file.get(old_name)
            if indexes is not None:
                indexes.discard(old_no)
                if not indexes:
                    del by_file[old_name]
            evicted += 1
        self._used_bytes = used
        return evicted

    def invalidate_file(self, name: str) -> int:
        """Drop every cached block of ``name``; returns blocks dropped.

        Lifts any quarantine on the name (the file identity changed),
        mirroring :meth:`LRUBlockCache.invalidate_file`.
        """
        self._blocked = {key for key in self._blocked if key[0] != name}
        indexes = self._by_file.pop(name, None)
        if not indexes:
            return 0
        for block_no in indexes:
            payload = self._blocks.pop((name, block_no), None)
            if payload is not None:
                self._used_bytes -= len(payload)
        return len(indexes)

    def quarantine(self, name: str, block_no: int) -> None:
        """Evict one decoded block and refuse to ever re-admit it."""
        payload = self._blocks.pop((name, block_no), None)
        if payload is not None:
            self._used_bytes -= len(payload)
            indexes = self._by_file.get(name)
            if indexes is not None:
                indexes.discard(block_no)
                if not indexes:
                    del self._by_file[name]
        self._blocked.add((name, block_no))

    def is_quarantined(self, name: str, block_no: int) -> bool:
        """True when ``(name, block_no)`` is barred from admission."""
        return (name, block_no) in self._blocked

    def clear(self) -> None:
        """Drop everything."""
        self._blocks.clear()
        self._by_file.clear()
        self._used_bytes = 0
        self._blocked.clear()

    def __len__(self) -> int:
        return len(self._blocks)

    def used_bytes(self) -> int:
        """Bytes of decoded payload currently held."""
        return self._used_bytes


class CachedBlockDevice(BlockDevice):
    """A block device decorator that serves reads through an LRU cache.

    Wraps any :class:`~repro.storage.block_device.BlockDevice`; reads
    are assembled block-by-block, fetching only cache misses (in
    contiguous runs) from the wrapped device.  Writes pass through and
    invalidate affected blocks — appends drop only the previously
    partial tail block, since earlier blocks of an append-only file are
    immutable.

    The shared :class:`~repro.storage.stats.Stats` registry is
    propagated to the wrapped device, so raw I/O counters keep flowing
    to one place and ``cache.*`` counters land beside them.
    """

    def __init__(self, inner: BlockDevice, capacity_bytes: int,
                 stats: Optional[Stats] = None) -> None:
        self.inner = inner
        self.cache = LRUBlockCache(capacity_bytes, inner.block_size)
        super().__init__(block_size=inner.block_size,
                         stats=stats if stats is not None else inner.stats)

    # Propagate stats reassignment (LSMTree sets ``device.stats``) to
    # the wrapped device so both layers account into the same registry.
    @property
    def stats(self) -> Stats:
        return self._stats

    @stats.setter
    def stats(self, value: Stats) -> None:
        self._stats = value
        self.inner.stats = value

    # -- reads ---------------------------------------------------------

    def pread(self, name: str, offset: int, length: int) -> bytes:
        data, _ = self.pread_cached(name, offset, length)
        return data

    def pread_uncached(self, name: str, offset: int, length: int) -> bytes:
        """Read straight from the wrapped device, admitting nothing."""
        return self.inner.pread(name, offset, length)

    def pread_cached(self, name: str, offset: int,
                     length: int) -> Tuple[bytes, float]:
        """Cache-aware read: ``(data, fraction of blocks served hot)``."""
        if offset < 0 or length < 0:
            raise StorageError(
                f"invalid pread range offset={offset} length={length}")
        size = self.inner.size(name)  # raises for missing files
        avail = min(length, max(0, size - offset))
        if avail <= 0:
            return b"", 0.0
        block_size = self.block_size
        first = offset // block_size
        last = (offset + avail - 1) // block_size
        blocks: List[Optional[bytes]] = []
        missing: List[int] = []
        for index in range(first, last + 1):
            block = self.cache.get(name, index)
            blocks.append(block)
            if block is None:
                missing.append(index)
        hits = len(blocks) - len(missing)
        if hits:
            self.stats.add(CACHE_HITS, hits)
        if missing:
            self.stats.add(CACHE_MISSES, len(missing))
            self._fetch_missing(name, size, first, blocks, missing)
        data = b"".join(blocks)[offset - first * block_size:]
        return data[:avail], hits / len(blocks)

    def _fetch_missing(self, name: str, size: int, first: int,
                       blocks: List[Optional[bytes]],
                       missing: List[int]) -> None:
        """Fetch contiguous miss runs from the wrapped device."""
        block_size = self.block_size
        run_start = 0
        while run_start < len(missing):
            run_end = run_start
            while (run_end + 1 < len(missing)
                   and missing[run_end + 1] == missing[run_end] + 1):
                run_end += 1
            lo = missing[run_start]
            hi = missing[run_end]
            payload = self.inner.pread(name, lo * block_size,
                                       (hi - lo + 1) * block_size)
            for index in range(lo, hi + 1):
                chunk = payload[(index - lo) * block_size:
                                (index - lo + 1) * block_size]
                blocks[index - first] = chunk
                # Only full blocks (or the file's final block) are
                # admissible; both are stable until an append arrives,
                # and appends invalidate the tail block below.
                evicted = self.cache.put(name, index, chunk)
                if evicted:
                    self.stats.add(CACHE_EVICTIONS, evicted)
            run_start = run_end + 1

    def quarantine(self, name: str, index: int) -> None:
        """Evict one device block and bar it from re-admission.

        Used by the table reader when the data decoded from this span
        failed its checksum: the cached raw bytes are poison, and so is
        anything the device would return for them again.
        """
        self.cache.quarantine(name, index)

    # -- writes and namespace ops (pass-through + invalidation) --------

    def create(self, name: str) -> None:
        self.cache.invalidate_file(name)
        self.inner.create(name)

    def append(self, name: str, data: bytes) -> None:
        old_size = self.inner.size(name) if self.inner.exists(name) else 0
        if old_size % self.block_size:
            # The tail block was partial and is about to change.
            self.cache.invalidate_block(name, old_size // self.block_size)
        self.inner.append(name, data)

    def delete(self, name: str) -> None:
        self.cache.invalidate_file(name)
        self.inner.delete(name)

    def rename(self, src: str, dst: str) -> None:
        self.cache.invalidate_file(src)
        self.cache.invalidate_file(dst)
        self.inner.rename(src, dst)

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def list_files(self) -> List[str]:
        return self.inner.list_files()
