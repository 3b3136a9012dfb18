"""The SSTable checksum: CRC-32 (IEEE 802.3) as computed by ``zlib``.

Every table region and data block is sealed with this function.  It is
CRC-32, not CRC-32C: the name ``crc32c`` is what ``perf/`` binds its
``checksum.crc32c`` span to, and stays until a ``benchmark`` issue
renames the span.  WAL, manifest and sidecar frames
(:mod:`repro.storage.framing`) call ``zlib.crc32`` themselves, so that
span times table checksums only.
"""

import zlib


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32 of ``data``; ``value`` chains a previous result."""
    return zlib.crc32(data, value)


def backend() -> str:
    """Which implementation computes the checksum (for diagnostics)."""
    return "zlib"
