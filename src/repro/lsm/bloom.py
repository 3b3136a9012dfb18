"""LevelDB-style bloom filter with double hashing.

Each SSTable carries one filter over its user keys (the paper's
testbed uses 10 bits per key).  The filter uses the standard
Kirsch-Mitzenmacher construction: two independent 32-bit hashes are
derived from one 64-bit mix of the key, and probe ``k = bits_per_key *
ln 2`` slots.  No false negatives, ever — a property the test suite
checks with hypothesis.

A lookup mixes its key once (:func:`key_hashes`) and hands the
``(h1, h2)`` pair to every filter it probes, so a key that reaches
several tables pays for one mix, not one per table.

Two ways in, one bit layout.  :meth:`BloomFilter.add` is the
incremental API: one key, ``nprobes`` interpreted probes.
:meth:`BloomFilter.build` — what every table build calls — is a numpy
kernel: it mixes all keys at once as ``uint64`` arrays (the wrap-around
multiply is SplitMix64's ``& 2**64 - 1``), walks the same probe sequence
one vectorised step per probe, and packs the touched slots little-endian
into the exact ``bytearray`` a loop of ``add`` calls produces.  The tests
hold the two byte-for-byte equal, so ``may_contain`` and the on-disk
payload cannot tell them apart.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptionError

_MASK64 = (1 << 64) - 1
_U64 = np.uint64


def key_hashes(key: int) -> Tuple[int, int]:
    """``(h1, h2)`` of ``key``: the probe start and the odd probe stride,
    the low and high halves of one SplitMix64 mix."""
    value = (key + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value & 0xFFFFFFFF, (value >> 32) | 1  # odd: no short cycles


class BloomFilter:
    """A fixed-size bloom filter over integer keys."""

    def __init__(self, nbits: int, nprobes: int) -> None:
        if nbits < 8:
            nbits = 8
        if nprobes < 1:
            nprobes = 1
        self.nbits = nbits
        self.nprobes = min(nprobes, 30)
        self._bits = bytearray((nbits + 7) // 8)

    @classmethod
    def build(cls, keys: Sequence[int] | Iterable[int],
              bits_per_key: int) -> "BloomFilter":
        """Size and populate a filter for ``keys``.

        ``bits_per_key == 0`` produces a degenerate always-maybe filter
        (bloom disabled), matching LevelDB's behaviour when the filter
        policy is absent.
        """
        if bits_per_key <= 0:
            empty = cls(8, 1)
            empty._bits = bytearray(b"\xff")  # always "maybe"
            return empty
        if not isinstance(keys, (Sequence, np.ndarray)):
            keys = list(keys)
        nbits = max(64, bits_per_key * len(keys))
        nprobes = max(1, int(round(bits_per_key * math.log(2))))
        bloom = cls(nbits, nprobes)
        # ``add`` for every key at once: same mix, same probe walk.
        mixed = np.asarray(keys, dtype=_U64)
        with np.errstate(over="ignore"):
            mixed = mixed + _U64(0x9E3779B97F4A7C15)
            mixed = (mixed ^ (mixed >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
            mixed = (mixed ^ (mixed >> _U64(27))) * _U64(0x94D049BB133111EB)
        mixed ^= mixed >> _U64(31)
        h1 = mixed & _U64(0xFFFFFFFF)
        h2 = (mixed >> _U64(32)) | _U64(1)
        flags = np.zeros(len(bloom._bits) * 8, dtype=np.uint8)
        for _ in range(bloom.nprobes):
            flags[h1 % _U64(bloom.nbits)] = 1
            h1 = (h1 + h2) & _U64(0xFFFFFFFF)
        bloom._bits = bytearray(np.packbits(flags, bitorder="little"))
        return bloom

    def add(self, key: int) -> None:
        """Insert ``key``."""
        h1, h2 = key_hashes(key)
        bits = self._bits
        nbits = self.nbits
        for _ in range(self.nprobes):
            slot = h1 % nbits
            bits[slot >> 3] |= 1 << (slot & 7)
            h1 = (h1 + h2) & 0xFFFFFFFF

    def may_contain(self, key: int,
                    hashes: Optional[Tuple[int, int]] = None) -> bool:
        """False means definitely absent; True means possibly present.
        Pass ``hashes=key_hashes(key)`` when the caller mixed it already."""
        h1, h2 = key_hashes(key) if hashes is None else hashes
        bits = self._bits
        nbits = self.nbits
        for _ in range(self.nprobes):
            slot = h1 % nbits
            if not bits[slot >> 3] & (1 << (slot & 7)):
                return False
            h1 = (h1 + h2) & 0xFFFFFFFF
        return True

    def size_bytes(self) -> int:
        """In-memory footprint of the bit array."""
        return len(self._bits)

    # -- serialisation ----------------------------------------------------

    def serialize(self) -> bytes:
        """``nbits, nprobes, bits`` with a fixed 9-byte header."""
        return struct.pack("<IB", self.nbits, self.nprobes) + bytes(self._bits)

    @classmethod
    def deserialize(cls, data: bytes) -> "BloomFilter":
        """Inverse of :meth:`serialize`."""
        if len(data) < 5:
            raise CorruptionError("bloom filter payload too short")
        nbits, nprobes = struct.unpack_from("<IB", data, 0)
        # ``__init__`` clamps; a header it would clamp was never written
        # by ``serialize`` and must not load as a different filter.
        if nbits < 8 or not 1 <= nprobes <= 30:
            raise CorruptionError(
                f"bloom filter header out of range: nbits {nbits}, "
                f"nprobes {nprobes}")
        bloom = cls(nbits, nprobes)
        expected = (nbits + 7) // 8
        body = data[5:]
        if len(body) != expected:
            raise CorruptionError(
                f"bloom filter bit array length {len(body)} != {expected}")
        bloom._bits = bytearray(body)
        return bloom
