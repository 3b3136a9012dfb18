"""Compact binary serialisation helpers for learned indexes.

Every index in this package serialises to a compact, struct-packed byte
string — the same representation the paper's C++ structures occupy in
memory.  The serialised length therefore doubles as the index's memory
footprint (`size_bytes`), which keeps the memory axis of every
experiment honest: Python object overhead never leaks into reported
numbers.

The format is little-endian throughout.  Each index type prepends a
one-byte type tag (see :mod:`repro.indexes.registry`) so a table file
can be deserialised without out-of-band information.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.errors import CorruptionError

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


class Writer:
    """An append-only binary buffer with typed put methods."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def put_u8(self, value: int) -> None:
        """Append one unsigned byte."""
        self._parts.append(_U8.pack(value))

    def put_u32(self, value: int) -> None:
        """Append one little-endian uint32."""
        self._parts.append(_U32.pack(value))

    def put_u64(self, value: int) -> None:
        """Append one little-endian uint64."""
        self._parts.append(_U64.pack(value))

    def put_f64(self, value: float) -> None:
        """Append one IEEE-754 double."""
        self._parts.append(_F64.pack(value))

    def put_u64_array(self, values: Sequence[int]) -> None:
        """Append a length-prefixed array of uint64."""
        self.put_u32(len(values))
        self._parts.append(struct.pack(f"<{len(values)}Q", *values))

    def put_u32_array(self, values: Sequence[int]) -> None:
        """Append a length-prefixed array of uint32."""
        self.put_u32(len(values))
        self._parts.append(struct.pack(f"<{len(values)}I", *values))

    def put_f64_array(self, values: Sequence[float]) -> None:
        """Append a length-prefixed array of doubles."""
        self.put_u32(len(values))
        self._parts.append(struct.pack(f"<{len(values)}d", *values))

    def put_bytes(self, data: bytes) -> None:
        """Append a length-prefixed opaque byte string."""
        self.put_u32(len(data))
        self._parts.append(data)

    def getvalue(self) -> bytes:
        """Return the accumulated buffer."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class Reader:
    """A sequential reader over a buffer produced by :class:`Writer`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, nbytes: int) -> bytes:
        end = self._pos + nbytes
        if end > len(self._data):
            raise CorruptionError(
                f"truncated index payload: wanted {nbytes} bytes at "
                f"{self._pos}, have {len(self._data)}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def get_u8(self) -> int:
        """Read one unsigned byte."""
        return _U8.unpack(self._take(1))[0]

    def get_u32(self) -> int:
        """Read one uint32."""
        return _U32.unpack(self._take(4))[0]

    def get_u64(self) -> int:
        """Read one uint64."""
        return _U64.unpack(self._take(8))[0]

    def get_f64(self) -> float:
        """Read one double."""
        return _F64.unpack(self._take(8))[0]

    def get_u64_array(self) -> List[int]:
        """Read a length-prefixed uint64 array."""
        count = self.get_u32()
        return list(struct.unpack(f"<{count}Q", self._take(8 * count)))

    def get_u32_array(self) -> List[int]:
        """Read a length-prefixed uint32 array."""
        count = self.get_u32()
        return list(struct.unpack(f"<{count}I", self._take(4 * count)))

    def get_f64_array(self) -> List[float]:
        """Read a length-prefixed double array."""
        count = self.get_u32()
        return list(struct.unpack(f"<{count}d", self._take(8 * count)))

    def get_bytes(self) -> bytes:
        """Read a length-prefixed opaque byte string."""
        count = self.get_u32()
        return self._take(count)

    def exhausted(self) -> bool:
        """True when every byte has been consumed."""
        return self._pos == len(self._data)
