"""YCSB core workloads A-F as operation streams (the paper's Section 5.6).

The paper evaluates mixed workloads with the six standard YCSB mixes:

====  ==========================  =======================
Name  Mix                         Request distribution
====  ==========================  =======================
A     50% read / 50% update       zipfian
B     95% read / 5% update        zipfian
C     100% read                   zipfian
D     95% read / 5% insert        latest
E     95% scan / 5% insert        zipfian (ranges < 100)
F     50% read / 50% RMW          zipfian
====  ==========================  =======================

A workload instance owns the insertion-ordered key list (so "latest"
can favour recent inserts) and yields :class:`Operation` values; the
testbed executes them against a database.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.workloads.distributions import make_picker


class OpKind(str, enum.Enum):
    """YCSB operation kinds."""

    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    READ_MODIFY_WRITE = "rmw"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Operation:
    """One workload operation against a concrete key."""

    kind: OpKind
    key: int
    scan_length: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix plus request distribution."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"
    max_scan_length: int = 100

    def validate(self) -> None:
        """Proportions must sum to 1."""
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(
                f"workload {self.name}: proportions sum to {total}, not 1")


#: The six mixes of the paper's Figure 12.
CORE_WORKLOADS: Dict[str, WorkloadSpec] = {
    "A": WorkloadSpec(name="A", read=0.5, update=0.5),
    "B": WorkloadSpec(name="B", read=0.95, update=0.05),
    "C": WorkloadSpec(name="C", read=1.0),
    "D": WorkloadSpec(name="D", read=0.95, insert=0.05,
                      distribution="latest"),
    "E": WorkloadSpec(name="E", scan=0.95, insert=0.05),
    "F": WorkloadSpec(name="F", read=0.5, rmw=0.5),
}


@dataclass
class YCSBWorkload:
    """A reproducible stream of YCSB operations over a key set.

    ``loaded_keys`` are the records present before the run (insertion
    order matters for the "latest" distribution); ``insert_reserve``
    supplies keys for INSERT operations.
    """

    spec: WorkloadSpec
    loaded_keys: Sequence[int]
    insert_reserve: Sequence[int] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.spec.validate()
        if not self.loaded_keys:
            raise WorkloadError("YCSB workload needs at least one loaded key")
        self._insertion_order: List[int] = list(self.loaded_keys)
        self._reserve_pos = 0

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations."""
        rng = random.Random(self.seed)
        picker = make_picker(self.spec.distribution,
                             len(self._insertion_order), seed=self.seed + 1)
        thresholds = self._thresholds()
        for _ in range(count):
            roll = rng.random()
            kind = self._kind_for(roll, thresholds)
            if kind is OpKind.INSERT:
                key = self._next_insert_key()
                self._insertion_order.append(key)
                picker.grow(len(self._insertion_order))
                yield Operation(OpKind.INSERT, key)
                continue
            key = self._insertion_order[picker.pick()]
            if kind is OpKind.SCAN:
                length = rng.randint(1, self.spec.max_scan_length)
                yield Operation(OpKind.SCAN, key, scan_length=length)
            else:
                yield Operation(kind, key)

    def _thresholds(self) -> List[tuple]:
        spec = self.spec
        table = []
        acc = 0.0
        for fraction, kind in ((spec.read, OpKind.READ),
                               (spec.update, OpKind.UPDATE),
                               (spec.insert, OpKind.INSERT),
                               (spec.scan, OpKind.SCAN),
                               (spec.rmw, OpKind.READ_MODIFY_WRITE)):
            if fraction > 0:
                acc += fraction
                table.append((acc, kind))
        return table

    @staticmethod
    def _kind_for(roll: float, thresholds: List[tuple]) -> OpKind:
        for limit, kind in thresholds:
            if roll <= limit:
                return kind
        return thresholds[-1][1]

    def _next_insert_key(self) -> int:
        if self._reserve_pos < len(self.insert_reserve):
            key = self.insert_reserve[self._reserve_pos]
            self._reserve_pos += 1
            return key
        # Reserve exhausted: synthesise fresh keys above the max seen.
        top = max(self._insertion_order[-1],
                  self.insert_reserve[-1] if self.insert_reserve else 0)
        return top + 1 + self._reserve_pos


def replay(db, operations: Iterable[Operation],
           value_for: Optional[Callable[[int], bytes]] = None,
           window: Optional[object] = None) -> Dict[str, int]:
    """Execute an operation stream against ``db``; returns op counts.

    ``db`` is anything with the engine surface — an
    :class:`~repro.lsm.db.LSMTree` or a
    :class:`~repro.service.sharded.ShardedDB`.  ``value_for(key)``
    supplies write payloads (defaults to a compact deterministic
    value).  An UPDATE with ``scan_length == -1`` is the trace
    encoding of a delete (see :mod:`repro.workloads.trace`).
    Operations run one at a time, in program order.

    ``window`` (a :class:`~repro.obs.registry.MetricsWindow`) is
    ticked once per workload operation, so windowed throughput/
    percentile snapshots line up with the operation stream.
    """
    if value_for is None:
        def value_for(key: int) -> bytes:  # noqa: ANN001 - local default
            return b"t%x" % key
    counts: Dict[str, int] = {}
    for op in operations:
        if op.kind is OpKind.READ:
            db.get(op.key)
        elif op.kind is OpKind.UPDATE and op.scan_length == -1:
            db.delete(op.key)
            counts["delete"] = counts.get("delete", 0) + 1
            if window is not None:
                window.tick()
            continue
        elif op.kind in (OpKind.UPDATE, OpKind.INSERT):
            db.put(op.key, value_for(op.key))
        elif op.kind is OpKind.SCAN:
            db.scan(op.key, op.scan_length)
        elif op.kind is OpKind.READ_MODIFY_WRITE:
            db.get(op.key)
            db.put(op.key, value_for(op.key))
        counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
        if window is not None:
            window.tick()
    return counts


def workload(name: str, loaded_keys: Sequence[int],
             insert_reserve: Optional[Sequence[int]] = None,
             seed: int = 0) -> YCSBWorkload:
    """Construct one of the six core workloads by letter."""
    spec = CORE_WORKLOADS.get(name.upper())
    if spec is None:
        valid = ", ".join(sorted(CORE_WORKLOADS))
        raise WorkloadError(
            f"unknown YCSB workload {name!r}; expected one of: {valid}")
    return YCSBWorkload(spec=spec, loaded_keys=loaded_keys,
                        insert_reserve=insert_reserve or [], seed=seed)
