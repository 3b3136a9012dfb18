"""Operation traces: record a workload once, replay it anywhere.

A benchmark comparing many configurations must feed each one the *same*
operation stream.  Generators are deterministic given a seed, but a
trace file decouples reproduction from generator code entirely: record
YCSB (or any operation sequence) once, then replay the identical
stream against every configuration — or in another process, or after
generator internals change.  :func:`repro.workloads.ycsb.replay` runs a
read-back trace against a database.

The format is a line-oriented text file (easy to diff and version):

::

    # repro-trace v1
    read 42
    update 42
    insert 77
    scan 42 100
    rmw 42
    delete 42
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from repro.errors import WorkloadError
from repro.workloads.ycsb import Operation, OpKind

_HEADER = "# repro-trace v1"

_KIND_TO_NAME = {
    OpKind.READ: "read",
    OpKind.UPDATE: "update",
    OpKind.INSERT: "insert",
    OpKind.SCAN: "scan",
    OpKind.READ_MODIFY_WRITE: "rmw",
}
_NAME_TO_KIND = {name: kind for kind, name in _KIND_TO_NAME.items()}
#: Extra verb not produced by YCSB but useful in hand-written traces.
_DELETE = "delete"


def write_trace(operations: Iterable[Operation], sink: TextIO) -> int:
    """Serialise ``operations`` to ``sink``; returns the count written."""
    sink.write(_HEADER + "\n")
    count = 0
    for op in operations:
        name = _KIND_TO_NAME.get(op.kind)
        if name is None:
            raise WorkloadError(f"cannot serialise operation kind {op.kind}")
        if op.kind is OpKind.SCAN:
            sink.write(f"{name} {op.key} {op.scan_length}\n")
        else:
            sink.write(f"{name} {op.key}\n")
        count += 1
    return count


def read_trace(source: TextIO) -> Iterator[Operation]:
    """Parse a trace; yields :class:`Operation` values lazily."""
    header = source.readline().rstrip("\n")
    if header != _HEADER:
        raise WorkloadError(
            f"not a repro trace (header {header!r}, expected {_HEADER!r})")
    for line_no, raw in enumerate(source, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        name = parts[0]
        if name == _DELETE:
            # Deletes replay as an update with an empty value marker; the
            # runner maps them to LSMTree.delete.
            if len(parts) != 2:
                raise WorkloadError(f"line {line_no}: delete takes one key")
            yield Operation(OpKind.UPDATE, _parse_key(parts[1], line_no),
                            scan_length=-1)
            continue
        kind = _NAME_TO_KIND.get(name)
        if kind is None:
            raise WorkloadError(f"line {line_no}: unknown op {name!r}")
        if kind is OpKind.SCAN:
            if len(parts) != 3:
                raise WorkloadError(
                    f"line {line_no}: scan takes key and length")
            yield Operation(kind, _parse_key(parts[1], line_no),
                            scan_length=_parse_key(parts[2], line_no))
        else:
            if len(parts) != 2:
                raise WorkloadError(f"line {line_no}: {name} takes one key")
            yield Operation(kind, _parse_key(parts[1], line_no))


def _parse_key(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise WorkloadError(
            f"line {line_no}: expected an integer, got {token!r}") from None
    if value < 0:
        raise WorkloadError(f"line {line_no}: negative value {value}")
    return value


def record_ycsb(workload, n_ops: int, sink: TextIO) -> int:
    """Record ``n_ops`` operations of a YCSB workload into ``sink``."""
    return write_trace(workload.operations(n_ops), sink)
