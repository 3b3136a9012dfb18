"""Block devices: the simulated disks SSTables live on.

The paper's implementation reads segments "from disk using the Linux
pread interface" (Section 4.2).  This module reproduces that interface
behind a :class:`BlockDevice` abstraction.
:class:`MemoryBlockDevice` keeps file contents in ``bytearray``s: reads
are instant in wall-clock terms, but every call records how many 4 KiB
blocks it touched, and the cost model converts those counts into
simulated latency.

Devices record raw I/O counters into a shared
:class:`~repro.storage.stats.Stats` registry.  *Time* is deliberately
not charged here: the caller knows whether a read belongs to the lookup
path or to a compaction, so stage attribution happens at the call site.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional

from repro.errors import FileNotFoundInDeviceError, StorageError
from repro.storage.stats import (
    BLOCKS_READ,
    BLOCKS_WRITTEN,
    BYTES_READ,
    BYTES_WRITTEN,
    READ_CALLS,
    WRITE_CALLS,
    Stats,
)

DEFAULT_BLOCK_SIZE = 4096


def _blocks_spanned(offset: int, length: int, block_size: int) -> int:
    """Number of ``block_size`` blocks covered by ``(offset, length)``."""
    if length <= 0:
        return 0
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return last - first + 1


class BlockDevice(ABC):
    """Abstract flat-namespace file store with block-level accounting.

    Files are identified by string names.  Writers append sequentially
    (`append`), readers use positional reads (`pread`) exactly like the
    paper's testbed.  Every device carries a :class:`Stats` registry
    that accumulates raw I/O counters.
    """

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE,
                 stats: Optional[Stats] = None) -> None:
        if block_size <= 0:
            raise StorageError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        self.stats = stats if stats is not None else Stats()

    # -- abstract primitive operations ---------------------------------

    @abstractmethod
    def create(self, name: str) -> None:
        """Create an empty file, truncating any existing one."""

    @abstractmethod
    def append(self, name: str, data: bytes) -> None:
        """Append ``data`` to the end of ``name``."""

    @abstractmethod
    def pread(self, name: str, offset: int, length: int) -> bytes:
        """Positional read of ``length`` bytes at ``offset``.

        Short reads past end-of-file return the available suffix, like
        POSIX ``pread``.
        """

    @abstractmethod
    def size(self, name: str) -> int:
        """Current length of ``name`` in bytes."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove ``name``; missing files raise."""

    @abstractmethod
    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` over ``dst`` (replacing it).

        The atomic-replace semantics (POSIX ``rename``) are what the
        manifest rewrite relies on for crash safety: observers see
        either the old ``dst`` or the complete new one, never a
        partial file.
        """

    @abstractmethod
    def exists(self, name: str) -> bool:
        """True when ``name`` is present on the device."""

    @abstractmethod
    def list_files(self) -> List[str]:
        """All file names on the device, sorted."""

    # -- cache-aware reads ---------------------------------------------

    def pread_cached(self, name: str, offset: int,
                     length: int) -> "tuple[bytes, float]":
        """Read like :meth:`pread`, also reporting the cache-hit fraction.

        The base devices have no cache tier, so the fraction is always
        0.0; :class:`~repro.storage.block_cache.CachedBlockDevice`
        overrides this so cache-aware call sites (the SSTable reader)
        can charge memory-copy instead of I/O time for hot blocks.
        """
        return self.pread(name, offset, length), 0.0

    def pread_uncached(self, name: str, offset: int, length: int) -> bytes:
        """Read like :meth:`pread`, bypassing any cache tier.

        For one-shot sequential reads of data that will never be read
        again (WAL replay), where admitting blocks would only evict
        hot SSTable blocks.  Identical to :meth:`pread` on the base
        devices.
        """
        return self.pread(name, offset, length)

    # -- shared accounting ---------------------------------------------

    def record_read(self, offset: int, length: int) -> int:
        """Record counters for one pread; returns blocks touched."""
        nblocks = _blocks_spanned(offset, length, self.block_size)
        self.stats.add(READ_CALLS)
        self.stats.add(BYTES_READ, length)
        self.stats.add(BLOCKS_READ, nblocks)
        return nblocks

    def record_write(self, length: int) -> int:
        """Record counters for one append; returns whole blocks written.

        Appends are sequential, so the block count is simply the payload
        size rounded up — callers charging write cost per block get the
        same totals the paper's sequential compaction writes produce.
        """
        nblocks = (length + self.block_size - 1) // self.block_size
        self.stats.add(WRITE_CALLS)
        self.stats.add(BYTES_WRITTEN, length)
        self.stats.add(BLOCKS_WRITTEN, nblocks)
        return nblocks

    def total_bytes(self) -> int:
        """Sum of all file sizes (the simulated disk footprint)."""
        return sum(self.size(name) for name in self.list_files())


class MemoryBlockDevice(BlockDevice):
    """An in-RAM block device; the default substrate for experiments.

    Contents live in per-file ``bytearray``s.  All I/O is counted but
    costs no wall-clock time, which keeps large parameter sweeps fast
    while the cost model supplies simulated latency.
    """

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE,
                 stats: Optional[Stats] = None) -> None:
        super().__init__(block_size=block_size, stats=stats)
        self._files: Dict[str, bytearray] = {}

    def create(self, name: str) -> None:
        self._files[name] = bytearray()

    def append(self, name: str, data: bytes) -> None:
        try:
            self._files[name].extend(data)
        except KeyError:
            raise FileNotFoundInDeviceError(name) from None
        self.record_write(len(data))

    def pread(self, name: str, offset: int, length: int) -> bytes:
        try:
            buf = self._files[name]
        except KeyError:
            raise FileNotFoundInDeviceError(name) from None
        if offset < 0 or length < 0:
            raise StorageError(
                f"invalid pread range offset={offset} length={length}")
        # One copy: slicing the bytearray itself would make a second.
        data = bytes(memoryview(buf)[offset:offset + length])
        self.record_read(offset, len(data))
        return data

    def size(self, name: str) -> int:
        try:
            return len(self._files[name])
        except KeyError:
            raise FileNotFoundInDeviceError(name) from None

    def delete(self, name: str) -> None:
        try:
            del self._files[name]
        except KeyError:
            raise FileNotFoundInDeviceError(name) from None

    def rename(self, src: str, dst: str) -> None:
        try:
            self._files[dst] = self._files.pop(src)
        except KeyError:
            raise FileNotFoundInDeviceError(src) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)
