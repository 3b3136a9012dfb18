"""Experiment scales and shared run helpers.

The paper runs 6.4 M x ~1 KiB entries with 1 M operations per
experiment on an NVMe testbed.  A Python reproduction keeps every
*ratio* (SSTable/buffer, level fan-out, boundary sweep, ops/keys) while
scaling absolute volume down.  A :class:`Scale` preset bundles the
scaled parameters; :meth:`Scale.config` turns one point of the paper's
configuration space into the engine :class:`~repro.lsm.options.Options`
at that scale, and ``paper_sstable_bytes`` maps the paper's "8 MiB ..
128 MiB SSTable" axis onto the preset's proportional sizes.

Presets:

* ``smoke`` — seconds-level runs; the committed ``results/`` reports;
* ``small`` — the default for CLI runs (a few minutes for the full
  figure set);
* ``medium`` — closer to paper-shaped entry sizes (1 KiB entries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.testbed import Testbed
from repro.errors import BenchmarkError
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity, Options


@dataclass(frozen=True)
class Scale:
    """One scaled-down rendition of the paper's experimental setup."""

    name: str
    #: Keys loaded before measured phases.
    n_keys: int
    #: Operations per measured phase.
    n_ops: int
    #: Value slot bytes (entry = 20 + this).
    value_capacity: int
    #: Write buffer bytes.
    write_buffer_bytes: int
    #: Bytes standing in for one paper-MiB of SSTable.
    sstable_unit_bytes: int
    #: Default SSTable size (the paper's 64 MiB default, scaled).
    default_sstable_bytes: int
    #: Level size ratio.
    size_ratio: int = 10
    seed: int = 42

    @property
    def entry_bytes(self) -> int:
        """On-disk entry size at this scale."""
        return 20 + self.value_capacity

    def paper_sstable_bytes(self, paper_mib: int) -> int:
        """Scaled SSTable size equivalent to ``paper_mib`` MiB."""
        return paper_mib * self.sstable_unit_bytes

    def config(self, kind: IndexKind, boundary: int,
               granularity: Granularity = Granularity.FILE,
               sstable_bytes: Optional[int] = None,
               size_ratio: Optional[int] = None) -> Options:
        """Validated engine options for one configuration point here.

        Data blocks hold four entries at every scale: the paper's
        1 KiB-entry / 4 KiB-block ratio.
        """
        options = Options(
            index_kind=kind,
            position_boundary=boundary,
            granularity=granularity,
            sstable_bytes=(sstable_bytes if sstable_bytes is not None
                           else self.default_sstable_bytes),
            write_buffer_bytes=self.write_buffer_bytes,
            value_capacity=self.value_capacity,
            size_ratio=size_ratio if size_ratio is not None
            else self.size_ratio,
            data_block_bytes=4 * self.entry_bytes,
        )
        options.validate()
        return options


SCALES: Dict[str, Scale] = {
    # Data blocks scale with the entry (4 entries/block, the paper's
    # 1 KiB-entry / 4 KiB-block ratio) — see Scale.config.
    # entry 128 B -> 512 B blocks.
    "smoke": Scale(name="smoke", n_keys=12_000, n_ops=1_500,
                   value_capacity=108, write_buffer_bytes=32 * 1024,
                   sstable_unit_bytes=2 * 1024,
                   default_sstable_bytes=128 * 1024, size_ratio=6),
    # entry 256 B -> 1 KiB blocks.
    "small": Scale(name="small", n_keys=80_000, n_ops=8_000,
                   value_capacity=236, write_buffer_bytes=256 * 1024,
                   sstable_unit_bytes=16 * 1024,
                   default_sstable_bytes=1024 * 1024, size_ratio=10),
    # entry 1 KiB, the paper's entry size -> the real 4 KiB block.
    "medium": Scale(name="medium", n_keys=200_000, n_ops=15_000,
                    value_capacity=1004, write_buffer_bytes=2 * 1024 * 1024,
                    sstable_unit_bytes=128 * 1024,
                    default_sstable_bytes=8 * 1024 * 1024, size_ratio=10),
}


def get_scale(name_or_scale) -> Scale:
    """Resolve a scale by name (or pass a Scale through)."""
    if isinstance(name_or_scale, Scale):
        return name_or_scale
    try:
        return SCALES[str(name_or_scale)]
    except KeyError:
        valid = ", ".join(sorted(SCALES))
        raise BenchmarkError(
            f"unknown scale {name_or_scale!r}; expected one of: {valid}"
        ) from None


def sample_queries(keys: Sequence[int], n_ops: int,
                   seed: int = 7) -> List[int]:
    """Uniform with-replacement query sample from existing keys."""
    rng = random.Random(seed)
    return [keys[rng.randrange(len(keys))] for _ in range(n_ops)]


def loaded_testbed(options: Options, keys: Sequence[int], seed: int,
                   observe: bool = True, sample_every: int = 0,
                   registry=None) -> Testbed:
    """A testbed on ``options`` with ``keys`` bulk-loaded.

    ``seed`` drives the fill's key-to-level assignment.
    ``observe``/``sample_every``/``registry`` pass through to
    :class:`~repro.core.testbed.Testbed` (the default feeds the
    process-wide metrics registry).
    """
    bed = Testbed(options, seed=seed, observe=observe,
                  sample_every=sample_every, registry=registry)
    bed.bulk_load(keys)
    return bed


def with_paper_entries(scale: Scale, options: Options) -> Options:
    """``options`` with the paper's ~1 KiB entries at this scale.

    Entry *counts* per buffer/SSTable stay the scale's, so flush and
    compaction cadence is unchanged; only byte volumes grow.  Needed
    whenever a result depends on the KV-byte-to-CPU ratio (compaction
    training shares, range-scan byte costs).
    """
    entry_scale = max(1, 1024 // scale.entry_bytes)
    return options.with_changes(
        value_capacity=1004,
        write_buffer_bytes=scale.write_buffer_bytes * entry_scale,
        sstable_bytes=options.sstable_bytes * entry_scale,
        data_block_bytes=4 * 1024)
