"""Request distributions for lookup workloads (the YCSB set).

These choose *which* of the currently-inserted records an operation
touches.  All pickers are deterministic given their seed and implement
the same ``pick()`` protocol; Zipfian follows the Gray et al.
construction YCSB uses (with the incremental recomputation shortcut
for a growing record count), and "latest" composes Zipfian with
recency, exactly as in the YCSB core package.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import WorkloadError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes (YCSB's scramble)."""
    acc = _FNV_OFFSET
    for _ in range(8):
        acc ^= value & 0xFF
        acc = (acc * _FNV_PRIME) & _MASK64
        value >>= 8
    return acc


class KeyPicker(ABC):
    """Chooses an index in ``[0, count)`` per operation."""

    def __init__(self, count: int, seed: int = 0) -> None:
        if count < 1:
            raise WorkloadError(f"picker needs at least 1 item, got {count}")
        self.count = count
        self.rng = random.Random(seed)

    @abstractmethod
    def pick(self) -> int:
        """Next chosen index."""

    def grow(self, new_count: int) -> None:
        """Inform the picker that the record count grew (inserts)."""
        if new_count < self.count:
            raise WorkloadError("record count cannot shrink")
        self.count = new_count


class UniformPicker(KeyPicker):
    """Every record equally likely."""

    def pick(self) -> int:
        return self.rng.randrange(self.count)


class ZipfianPicker(KeyPicker):
    """YCSB's Zipfian generator (theta = 0.99 by default).

    Popular items are the low ranks; use :class:`ScrambledZipfianPicker`
    to spread popularity over the key space.
    """

    def __init__(self, count: int, seed: int = 0,
                 theta: float = 0.99) -> None:
        super().__init__(count, seed)
        if not 0 < theta < 1:
            raise WorkloadError(f"zipfian theta must be in (0,1), got {theta}")
        self.theta = theta
        self._items = count
        self._zeta = self._zeta_static(count, theta)
        self._recompute()

    @staticmethod
    def _zeta_static(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def _recompute(self) -> None:
        theta = self.theta
        self._alpha = 1.0 / (1.0 - theta)
        self._zeta2 = self._zeta_static(2, theta)
        self._eta = ((1.0 - (2.0 / self._items) ** (1.0 - theta))
                     / (1.0 - self._zeta2 / self._zeta))

    def grow(self, new_count: int) -> None:
        if new_count == self._items:
            return
        # Incremental zeta extension (YCSB's allow_item_count_decrease=False
        # path): extend the harmonic sum instead of recomputing.
        for i in range(self._items + 1, new_count + 1):
            self._zeta += 1.0 / (i ** self.theta)
        self._items = new_count
        super().grow(new_count)
        self._recompute()

    def pick(self) -> int:
        u = self.rng.random()
        uz = u * self._zeta
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self._items * ((self._eta * u - self._eta + 1.0)
                                  ** self._alpha))
        return min(rank, self._items - 1)


class ScrambledZipfianPicker(ZipfianPicker):
    """Zipfian ranks scattered across the key space via FNV hashing."""

    def pick(self) -> int:
        rank = super().pick()
        return fnv1a_64(rank) % self.count


class LatestPicker(ZipfianPicker):
    """Most recently inserted records are the most popular (YCSB-D)."""

    def pick(self) -> int:
        rank = super().pick()
        return self.count - 1 - rank


class HotspotPicker(KeyPicker):
    """A hot fraction of the key space receives most operations."""

    def __init__(self, count: int, seed: int = 0, hot_fraction: float = 0.2,
                 hot_op_fraction: float = 0.8) -> None:
        super().__init__(count, seed)
        if not 0 < hot_fraction <= 1:
            raise WorkloadError(
                f"hot_fraction must be in (0,1], got {hot_fraction}")
        if not 0 <= hot_op_fraction <= 1:
            raise WorkloadError(
                f"hot_op_fraction must be in [0,1], got {hot_op_fraction}")
        self.hot_fraction = hot_fraction
        self.hot_op_fraction = hot_op_fraction

    def pick(self) -> int:
        hot_count = max(1, int(self.count * self.hot_fraction))
        if self.rng.random() < self.hot_op_fraction:
            return self.rng.randrange(hot_count)
        if hot_count >= self.count:
            return self.rng.randrange(self.count)
        return hot_count + self.rng.randrange(self.count - hot_count)


def make_picker(name: str, count: int, seed: int = 0) -> KeyPicker:
    """Construct a picker by its YCSB name."""
    lowered = name.lower()
    if lowered == "uniform":
        return UniformPicker(count, seed)
    if lowered == "zipfian":
        return ScrambledZipfianPicker(count, seed)
    if lowered == "latest":
        return LatestPicker(count, seed)
    if lowered == "hotspot":
        return HotspotPicker(count, seed)
    raise WorkloadError(f"unknown request distribution: {name!r}")
