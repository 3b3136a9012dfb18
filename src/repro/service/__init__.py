"""The serving layer: scale-out plumbing above the single LSM-tree.

The paper evaluates learned indexes inside one LSM-tree; this package
adds the system-level tier a production deployment puts on top:

* :class:`~repro.service.sharded.ShardedDB` — hash-partitions the key
  space over N independent :class:`~repro.lsm.db.LSMTree` shards (or
  replica groups) with merged cross-shard scans and aggregated stats;
* :class:`~repro.service.gateway.Gateway` — overload control in front
  of the shards: open-loop arrivals on a virtual clock, bounded
  per-shard queues with shedding, deadline propagation, per-shard
  circuit breakers and a client retry budget;
* :class:`~repro.service.replication.ReplicaGroup` — per-shard
  replication: primary/follower log shipping with configurable ack
  policy, deterministic heartbeat failover, hinted handoff,
  bounded-staleness follower reads and anti-entropy repair;
* :class:`~repro.lsm.write_batch.WriteBatch` (re-exported) — multi-key
  updates applied through one WAL group commit per shard;
* the LRU block cache (``Options.cache_bytes`` +
  :class:`~repro.storage.block_cache.CachedBlockDevice`) each shard
  places in front of its device.

``ShardedDB``, ``ReplicaGroup`` and the tree beneath them all implement
:class:`repro.kv.KVStore`, the one key-value contract (``VirtualClock``
lives there too and is re-exported here).  Together these open the
benchmark scenarios a single tree cannot express: cache-size sweeps under Zipfian skew, shard scaling curves and
write-batching amortization (``repro-bench service``).
"""

from repro.kv import VirtualClock
from repro.lsm.write_batch import WriteBatch
from repro.service.gateway import (
    CircuitBreaker,
    Gateway,
    GatewayConfig,
    GatewayReport,
    Request,
    RetryBudget,
)
from repro.service.replication import (
    AckPolicy,
    ReplicaGroup,
    ReplicationConfig,
)
from repro.service.router import HashRouter, mix64
from repro.service.sharded import ShardedDB

__all__ = [
    "ShardedDB",
    "HashRouter",
    "WriteBatch",
    "mix64",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "CircuitBreaker",
    "RetryBudget",
    "Request",
    "VirtualClock",
    "AckPolicy",
    "ReplicaGroup",
    "ReplicationConfig",
]
