"""The serving tier's key-value contract, stated once.

:class:`~repro.lsm.db.LSMTree`,
:class:`~repro.service.replication.ReplicaGroup` and
:class:`~repro.service.sharded.ShardedDB` implement :class:`KVStore`;
:class:`~repro.service.gateway.Gateway` fronts its ``get``/
``multi_get``/``write``.  Every implementation keeps read-your-writes
(``None`` after a delete), applies nothing from a refused ``write``,
scans in ascending key order, isolates failing keys in
``multi_get(keys, errors={})``, reports a ``health()["status"]`` from
:data:`HEALTH_STATUSES`, and raises only the :data:`RAISES` errors of
each method.  After ``close()`` (idempotent) every other method raises
:class:`~repro.errors.DatabaseClosedError`.  ``tests/test_kv_contract.py``
is the conformance suite.
"""

from __future__ import annotations

from typing import (Dict, List, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

from repro.errors import (
    CorruptionError,
    DatabaseClosedError,
    HintQueueFullError,
    InvalidOptionError,
    QuorumLostError,
    ReadOnlyModeError,
    ReplicaUnavailableError,
    ReproError,
    RequestRejectedError,
    StorageError,
)


@runtime_checkable
class KVStore(Protocol):
    """The calls every serving-tier store answers."""

    def put(self, key: int, value: bytes) -> None: ...
    def get(self, key: int) -> Optional[bytes]: ...
    def delete(self, key: int) -> None: ...
    def multi_get(self, keys: Sequence[int], *,
                  coalesce: bool = True,
                  errors: Optional[Dict[int, ReproError]] = None) -> List: ...
    def write(self, batch) -> int: ...
    def scan(self, start_key: int, count: int) -> List[Tuple[int, bytes]]: ...
    def flush(self) -> object: ...
    def health(self) -> Dict[str, object]: ...
    def close(self) -> None: ...


#: ``health()["status"]`` values, best to worst.
HEALTH_STATUSES = ("ok", "degraded", "read_only", "down")

#: Any call may meet a closed store, a device fault that outlived its
#: retries, or a gateway's breaker or deadline.
_ANY = (DatabaseClosedError, StorageError, RequestRejectedError)
#: Reads also meet damaged data and replica groups with nobody to serve;
#: writes meet refusals, and damaged data too (a write can trigger a
#: flush whose compaction reads tables).
_READ = _ANY + (CorruptionError, ReplicaUnavailableError)
_WRITE = _ANY + (CorruptionError, ReadOnlyModeError, InvalidOptionError,
                 QuorumLostError, HintQueueFullError)

#: The :mod:`repro.errors` classes each :class:`KVStore` method may raise;
#: ``close`` touches no device and raises nothing.
RAISES: Dict[str, Tuple[type, ...]] = {
    "put": _WRITE, "get": _READ, "delete": _WRITE, "multi_get": _READ,
    "write": _WRITE, "scan": _READ, "flush": _WRITE,
    "health": (DatabaseClosedError,), "close": (),
}


class VirtualClock:
    """Monotone simulated-microsecond clock; the only time source here.

    Shared between the gateway's event loop and every replica group's
    failure detector, so "when did the failure become observable" and
    "when did promotion complete" live on one timeline.
    """

    def __init__(self, now_us: float = 0.0) -> None:
        self.now_us = now_us

    def advance_to(self, t_us: float) -> None:
        """Move time forward (never backward) to ``t_us``."""
        if t_us > self.now_us:
            self.now_us = t_us
