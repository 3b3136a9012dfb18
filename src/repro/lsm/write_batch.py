"""Write batches: multi-key updates applied through one group commit.

A :class:`WriteBatch` buffers puts and deletes in application order and
is applied atomically by :meth:`repro.lsm.db.LSMTree.write` (or fanned
out shard-by-shard by :meth:`repro.service.sharded.ShardedDB.write`).
Batching matters for the serving layer the same way it does in LevelDB
and RocksDB: the write-ahead log absorbs one CRC-framed *group commit*
per batch instead of one frame per key, so durable multi-key updates
amortize both the per-commit WAL overhead and the log's block traffic.

Atomicity is frame-granular: a batch is encoded into a single WAL frame,
so crash recovery replays either every record of the batch or none of
them (a torn frame is discarded whole — see
:meth:`repro.lsm.wal.WriteAheadLog.replay`).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.lsm.record import KIND_TOMBSTONE, KIND_VALUE

#: One staged operation: (kind, key, value).  ``kind`` uses the record
#: kinds (KIND_VALUE / KIND_TOMBSTONE); deletes carry an empty value.
BatchOp = Tuple[int, int, bytes]


class WriteBatch:
    """An ordered collection of puts/deletes applied as one commit.

    Operations are replayed in insertion order, so a later ``put`` (or
    ``delete``) of the same key inside one batch supersedes an earlier
    one, exactly as if the calls had been issued individually.
    """

    def __init__(self) -> None:
        self._ops: List[BatchOp] = []

    # -- staging -------------------------------------------------------

    def put(self, key: int, value: bytes) -> "WriteBatch":
        """Stage an insert/overwrite of ``key``; returns self (chaining)."""
        self._ops.append((KIND_VALUE, key, value))
        return self

    def delete(self, key: int) -> "WriteBatch":
        """Stage a tombstone for ``key``; returns self (chaining)."""
        self._ops.append((KIND_TOMBSTONE, key, b""))
        return self

    def clear(self) -> None:
        """Drop every staged operation (the batch is reusable)."""
        self._ops.clear()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __iter__(self) -> Iterator[BatchOp]:
        """Yield ``(kind, key, value)`` in application order."""
        return iter(self._ops)

    def keys(self) -> List[int]:
        """The staged keys, in application order (with duplicates)."""
        return [key for _, key, _ in self._ops]
