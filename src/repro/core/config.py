"""The paper's sweep axes over the Section 4.1 configuration space.

One point of that space (index type x position boundary x granularity)
is an :class:`~repro.lsm.options.Options`; experiments build it with
:meth:`repro.bench.runner.Scale.config`.  This module holds the values
the paper sweeps each axis over.
"""

from __future__ import annotations

from typing import Tuple

#: The boundary sweep of the paper's Figure 6.
PAPER_BOUNDARIES: Tuple[int, ...] = (256, 128, 64, 32, 16, 8)

#: The SSTable sizes of the paper's Figure 8 (MiB).
PAPER_SSTABLE_MIB: Tuple[int, ...] = (8, 16, 32, 64, 128)
