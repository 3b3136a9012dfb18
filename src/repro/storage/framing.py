"""CRC32 record framing shared by every durable log on the device.

The WAL, the MANIFEST version log and the ``mdl-*`` model sidecars all
persist byte payloads with the same armor::

    frame := crc32(u32 LE) | payload_len(u32 LE) | payload

and all recover with the same rule: a frame whose length runs past the
data or whose CRC fails ends the parse — the *torn tail* of a crashed
append is dropped, never half-applied.  Centralising the pack/verify
logic here keeps those semantics identical across the three logs.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

FRAME_HEADER = struct.Struct("<II")  # crc32, payload length


def frame(payload: bytes) -> bytes:
    """Wrap one payload in a CRC frame (the unit of atomic append)."""
    return FRAME_HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def parse_frames(data: bytes) -> Tuple[List[bytes], bool]:
    """Every intact payload in ``data``, plus whether a tail was torn.

    Parsing stops silently at the first short frame, CRC mismatch or
    trailing fragment shorter than a header; ``torn`` reports whether
    any such bytes were left behind.  The WAL and the manifest rewrite
    their log without them before appending again, since a frame
    appended behind torn bytes would be invisible to every later parse.
    """
    payloads: List[bytes] = []
    offset = 0
    while offset + FRAME_HEADER.size <= len(data):
        crc, length = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if end > len(data):
            return payloads, True  # torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return payloads, True  # corrupt tail
        payloads.append(bytes(payload))
        offset = end
    return payloads, offset < len(data)


def parse_single_frame(data: bytes) -> Optional[bytes]:
    """The payload of a file holding exactly one frame; None otherwise."""
    payloads, torn = parse_frames(data)
    if torn or len(payloads) != 1:
        return None
    return payloads[0]
