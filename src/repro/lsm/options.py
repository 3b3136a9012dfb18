"""Database options: the paper's configuration space plus engine knobs.

The three axes of the paper's Section 4 map onto:

* ``index_kind`` — which of the seven index types tables are built with;
* ``position_boundary`` — the final search range the table fetches from
  disk (2x the error bound of the learned models);
* ``granularity`` + ``sstable_bytes`` — whether indexes are built per
  SSTable (and how large SSTables are) or per level (Dai et al.'s
  LevelModel).

The remaining fields configure the LevelDB-style engine itself: the
paper's defaults are a size ratio of 10, 4 KiB blocks, 10-bit bloom
filters and ~1 KiB fixed-size entries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import InvalidOptionError
from repro.indexes.pgm import DEFAULT_EPSILON_RECURSIVE, MIN_EPSILON_RECURSIVE
from repro.indexes.radix_spline import MAX_RADIX_BITS, MIN_RADIX_BITS
from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.record import entry_size
from repro.storage.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.storage.retry import RetryPolicy


class Granularity(str, enum.Enum):
    """Index granularity: one model per SSTable or per level."""

    FILE = "file"
    LEVEL = "level"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CompactionPolicy(str, enum.Enum):
    """Merge policy: leveling (the paper's testbed) or tiering.

    Tiering is the Section 6.2 extension point ("incorporating learned
    indexes into the broader optimization of the LSM-tree design
    space"): each level accumulates up to ``size_ratio`` sorted runs
    before they all merge into one new run at the next level — fewer
    write passes, more runs to probe per read.
    """

    LEVELING = "leveling"
    TIERING = "tiering"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Options:
    """Immutable configuration for one :class:`~repro.lsm.db.LSMTree`."""

    # -- configuration-space axes (Section 4.1) ------------------------
    #: Index type built for every table.
    index_kind: IndexKind = IndexKind.FP
    #: Final on-disk search range in entries (2x the model error bound).
    position_boundary: int = 32
    #: Per-file or per-level (LevelModel) index construction.
    granularity: Granularity = Granularity.FILE
    #: Target SSTable payload size in bytes (the granularity axis).
    sstable_bytes: int = 2 * 1024 * 1024
    #: Merge policy: leveling (default, the paper's testbed) or tiering.
    compaction_policy: CompactionPolicy = CompactionPolicy.LEVELING

    # -- engine shape ----------------------------------------------------
    #: Level capacity multiplier (the paper uses T = 10).
    size_ratio: int = 10
    #: Write buffer (memtable) capacity in bytes.
    write_buffer_bytes: int = 512 * 1024
    #: Value slot size; entries are fixed at 20 + value_capacity bytes.
    value_capacity: int = 1004
    #: Device/IO block size (4 KiB, like the paper's testbed).
    block_size: int = 4096
    #: Target *uncompressed* size of one SSTable data block.  Entries
    #: are grouped into blocks of ``max(1, data_block_bytes //
    #: entry_bytes)`` entries; each block is independently compressed
    #: and checksummed.
    data_block_bytes: int = 4096
    #: Per-block codec by name (``none``, ``zlib-1``, ``zlib-6``,
    #: ``zlib-9`` — see :mod:`repro.storage.compression`).  Advisory:
    #: blocks a codec cannot shrink are stored raw.
    block_codec: str = "none"
    #: Decompressed-data-block cache capacity in bytes (0 disables the
    #: second cache tier).  Keyed by ``(file, block_no)``; sits above
    #: the raw device cache (``cache_bytes``), so hot blocks skip both
    #: the simulated I/O and the decompress + verify work.
    data_cache_bytes: int = 0
    #: Bloom filter bits per key (the paper uses 10).
    bloom_bits_per_key: int = 10
    #: Number of L0 files that triggers an L0 -> L1 compaction.
    l0_compaction_trigger: int = 4
    #: Hard cap on level count.
    max_levels: int = 7
    #: Write-ahead logging (off by default: benchmarks measure the
    #: paper's pipeline, which does not fsync a WAL per write).
    enable_wal: bool = False
    #: LRU block-cache capacity in bytes (0 disables caching).  When
    #: positive the database wraps its device in a
    #: :class:`~repro.storage.block_cache.CachedBlockDevice`, so hot
    #: segment blocks are served from memory instead of simulated disk;
    #: hit/miss counters land in :class:`~repro.storage.stats.Stats`.
    cache_bytes: int = 0

    # -- index parameters -------------------------------------------------
    #: PGM internal error bound (the paper keeps the default 4).
    epsilon_recursive: int = DEFAULT_EPSILON_RECURSIVE
    #: RadixSpline radix table bits (the paper tunes 1 for LSM use).
    radix_bits: int = 1

    #: Simulated hardware profile.
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    #: Bounded-retry policy for transient read faults (see
    #: :mod:`repro.storage.retry`); backoff is charged to the cost model.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    # -- derived -----------------------------------------------------------

    @property
    def entry_bytes(self) -> int:
        """On-disk bytes per entry."""
        return entry_size(self.value_capacity)

    @property
    def entries_per_sstable(self) -> int:
        """How many entries a full SSTable holds."""
        return max(1, self.sstable_bytes // self.entry_bytes)

    @property
    def entries_per_buffer(self) -> int:
        """How many entries fill the write buffer."""
        return max(1, self.write_buffer_bytes // self.entry_bytes)

    def level_capacity_bytes(self, level: int) -> int:
        """Byte capacity of ``level`` (level 0 is governed by file count)."""
        if level <= 0:
            return self.l0_compaction_trigger * self.write_buffer_bytes
        return self.write_buffer_bytes * (self.size_ratio ** level)

    def make_index_factory(self) -> IndexFactory:
        """The shared per-database index factory for this configuration."""
        return IndexFactory(
            self.index_kind,
            self.position_boundary,
            epsilon_recursive=self.epsilon_recursive,
            radix_bits=self.radix_bits,
        )

    def validate(self) -> None:
        """Raise :class:`InvalidOptionError` on inconsistent settings."""
        if self.position_boundary < 2:
            raise InvalidOptionError(
                f"position_boundary must be >= 2, got {self.position_boundary}")
        if self.size_ratio < 2:
            raise InvalidOptionError(
                f"size_ratio must be >= 2, got {self.size_ratio}")
        if self.value_capacity < 0:
            raise InvalidOptionError(
                f"value_capacity must be >= 0, got {self.value_capacity}")
        if self.block_size < 64:
            raise InvalidOptionError(
                f"block_size must be >= 64, got {self.block_size}")
        if self.sstable_bytes < self.entry_bytes:
            raise InvalidOptionError(
                "sstable_bytes must hold at least one entry "
                f"({self.entry_bytes} bytes)")
        if self.write_buffer_bytes < self.entry_bytes:
            raise InvalidOptionError(
                "write_buffer_bytes must hold at least one entry "
                f"({self.entry_bytes} bytes)")
        if self.bloom_bits_per_key < 0:
            raise InvalidOptionError(
                f"bloom_bits_per_key must be >= 0, got "
                f"{self.bloom_bits_per_key}")
        if self.max_levels < 2:
            raise InvalidOptionError(
                f"max_levels must be >= 2, got {self.max_levels}")
        if self.l0_compaction_trigger < 1:
            raise InvalidOptionError(
                f"l0_compaction_trigger must be >= 1, got "
                f"{self.l0_compaction_trigger}")
        if self.cache_bytes < 0:
            raise InvalidOptionError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.data_cache_bytes < 0:
            raise InvalidOptionError(
                f"data_cache_bytes must be >= 0, got {self.data_cache_bytes}")
        if self.data_block_bytes < 1:
            raise InvalidOptionError(
                f"data_block_bytes must be >= 1, got {self.data_block_bytes}")
        if self.epsilon_recursive < MIN_EPSILON_RECURSIVE:
            raise InvalidOptionError(
                f"epsilon_recursive must be >= {MIN_EPSILON_RECURSIVE}, got "
                f"{self.epsilon_recursive}")
        if not MIN_RADIX_BITS <= self.radix_bits <= MAX_RADIX_BITS:
            raise InvalidOptionError(
                f"radix_bits must be in [{MIN_RADIX_BITS}, {MAX_RADIX_BITS}], "
                f"got {self.radix_bits}")
        from repro.storage.compression import codec_names
        if self.block_codec not in codec_names():
            raise InvalidOptionError(
                f"unknown block_codec {self.block_codec!r}; "
                f"registered: {codec_names()}")
        self.retry.validate()
        if (self.compaction_policy is CompactionPolicy.TIERING
                and self.granularity is Granularity.LEVEL):
            raise InvalidOptionError(
                "level-granularity models require a single sorted run per "
                "level; tiering keeps several — use FILE granularity")

    def with_changes(self, **changes) -> "Options":
        """A copy with the given fields replaced (dataclasses.replace)."""
        return replace(self, **changes)


def small_test_options(index_kind: IndexKind = IndexKind.FP,
                       position_boundary: int = 8,
                       value_capacity: int = 44,
                       granularity: Granularity = Granularity.FILE,
                       **overrides) -> Options:
    """Compact options for unit tests: tiny buffers, small values.

    Entry size is 64 bytes, a buffer holds 64 entries and an SSTable 128,
    so a few hundred puts exercise flushes and multi-level compactions
    in milliseconds.
    """
    defaults = dict(
        index_kind=index_kind,
        position_boundary=position_boundary,
        granularity=granularity,
        value_capacity=value_capacity,
        write_buffer_bytes=64 * entry_size(value_capacity),
        sstable_bytes=128 * entry_size(value_capacity),
        size_ratio=4,
        block_size=256,
        data_block_bytes=256,
        l0_compaction_trigger=2,
    )
    defaults.update(overrides)
    options = Options(**defaults)
    options.validate()
    return options
