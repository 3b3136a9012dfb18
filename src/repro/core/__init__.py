"""The paper's core contribution: sweep axes, testbed, cost model.

* :mod:`repro.core.config` — the values the paper sweeps the Section 4.1
  axes over (one point of that space is an
  :class:`~repro.lsm.options.Options`).
* :mod:`repro.core.testbed` — the unified measurement platform of
  Section 4.2.
* :mod:`repro.core.cost_analysis` — the analytic cost model of
  Section 4.
"""

from repro.core.config import PAPER_BOUNDARIES, PAPER_SSTABLE_MIB
from repro.core.cost_analysis import (
    expected_io_blocks,
    expected_io_us,
    expected_point_lookup_us,
    expected_search_us,
    inner_index_cost_us,
    plateau_boundary,
)
from repro.core.testbed import PhaseMetrics, Testbed

__all__ = [
    "PAPER_BOUNDARIES",
    "PAPER_SSTABLE_MIB",
    "Testbed",
    "PhaseMetrics",
    "expected_io_blocks",
    "expected_io_us",
    "expected_search_us",
    "expected_point_lookup_us",
    "plateau_boundary",
    "inner_index_cost_us",
]
