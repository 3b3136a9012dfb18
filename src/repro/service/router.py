"""Key routing: deterministic hash partitioning of the key space.

A shard router decides which of N independent LSM-trees owns a key.
Routing must be (a) deterministic across processes and Python versions
— ``hash()`` is neither stable for ``str`` nor well-mixed for ``int``,
whose hash is the identity — and (b) well-mixed, so sequential or
clustered key spaces (the paper's ``books``/``osm`` CDFs are heavily
clustered) still spread evenly over shards.  We use the splitmix64
finalizer, the same bijective mixer SOSD-style benchmarks use for
shuffling, then reduce modulo the shard count.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import InvalidOptionError
from repro.lsm.record import KIND_TOMBSTONE
from repro.lsm.write_batch import WriteBatch

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche mixer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class HashRouter:
    """Hash-partitions 64-bit keys over ``num_shards`` buckets."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise InvalidOptionError(
                f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def shard_for(self, key: int) -> int:
        """The shard index owning ``key`` (stable across runs)."""
        return mix64(key) % self.num_shards

    def split(self, batch: WriteBatch) -> Dict[int, WriteBatch]:
        """Partition a batch into per-shard sub-batches.

        Application order is preserved within each shard, which is all
        the engine needs: operations on one key always land on one
        shard, so later-supersedes-earlier semantics survive the split.
        """
        parts: Dict[int, WriteBatch] = {}
        for kind, key, value in batch:
            shard = self.shard_for(key)
            part = parts.get(shard)
            if part is None:
                part = parts[shard] = WriteBatch()
            if kind == KIND_TOMBSTONE:
                part.delete(key)
            else:
                part.put(key, value)
        return parts

    def partition_keys(self, keys) -> List[List[int]]:
        """Group ``keys`` by owning shard, keeping their order."""
        parts: List[List[int]] = [[] for _ in range(self.num_shards)]
        for key in keys:
            parts[self.shard_for(key)].append(key)
        return parts
