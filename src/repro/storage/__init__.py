"""Simulated storage substrate: block devices, cost model and stats.

This package is the reproduction's stand-in for the paper's NVMe SSD:
block-granular devices with pread semantics, raw I/O counters, and a
deterministic cost model calibrated against the paper's Table 1 that
turns those counters into simulated microseconds.
"""

from repro.storage.block_cache import CachedBlockDevice, LRUBlockCache
from repro.storage.block_device import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    MemoryBlockDevice,
)
from repro.storage.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.profiles import PROFILES, io_cpu_ratio
from repro.storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.storage.stats import (
    COMPACTION_STAGES,
    READ_STAGES,
    Stage,
    Stats,
    StatsDelta,
    StatsSnapshot,
)

__all__ = [
    "BlockDevice",
    "MemoryBlockDevice",
    "CachedBlockDevice",
    "LRUBlockCache",
    "FaultPlan",
    "FaultyBlockDevice",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_BLOCK_SIZE",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PROFILES",
    "io_cpu_ratio",
    "Stats",
    "StatsSnapshot",
    "StatsDelta",
    "Stage",
    "READ_STAGES",
    "COMPACTION_STAGES",
]
