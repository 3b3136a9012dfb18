"""The paper's Section 4 analytic cost model.

Data-clustered indexes answer a lookup in three steps whose costs the
paper derives:

1. *inner index access* — depends on the index type (segment-array
   binary search, B+-tree walk, recursive models, ...);
2. *segment fetch* — I/O bounded by ``O(2 epsilon / B)`` blocks, where
   ``B`` is the I/O block size;
3. *in-segment binary search* — ``O(log 2 epsilon)`` probes.

The functions here evaluate those formulas against a
:class:`~repro.storage.cost_model.CostModel`; ``fig6`` reads
:func:`plateau_boundary`, and tests validate the latency formulas
against testbed measurements.
"""

from __future__ import annotations

import math

from repro.indexes import btree
from repro.indexes.registry import IndexKind
from repro.storage.cost_model import CostModel


def expected_io_blocks(boundary: int, entry_bytes: int,
                       block_size: int) -> float:
    """Blocks fetched for one segment read (the paper's 2e/B bound).

    Adds the expected extra straddled block (a segment rarely starts
    block-aligned): ceil(segment_bytes / block) + segment's chance of
    crossing one more boundary.
    """
    segment_bytes = boundary * entry_bytes
    whole = segment_bytes / block_size
    return whole + 1.0 - (1.0 / max(1.0, whole + 1.0))


def expected_io_us(cost: CostModel, boundary: int, entry_bytes: int) -> float:
    """Simulated time of the segment fetch for one point lookup."""
    blocks = expected_io_blocks(boundary, entry_bytes, cost.block_size)
    return cost.read_us(max(1, round(blocks)))


def expected_search_us(cost: CostModel, boundary: int) -> float:
    """Simulated time of the in-segment binary search."""
    return cost.segment_search_us(max(2, boundary))


def expected_point_lookup_us(cost: CostModel, boundary: int,
                             entry_bytes: int, inner_index_us: float,
                             levels_probed: float = 1.0,
                             bloom_probes: float = 2.0) -> float:
    """End-to-end analytic point-lookup latency.

    ``levels_probed`` is how many levels fetch a segment (bloom filters
    keep this near 1); ``bloom_probes`` is the expected number of
    membership tests across levels.
    """
    per_level = (inner_index_us
                 + expected_io_us(cost, boundary, entry_bytes)
                 + expected_search_us(cost, boundary))
    return levels_probed * per_level + bloom_probes * cost.bloom_probe_us


def plateau_boundary(entry_bytes: int, block_size: int) -> int:
    """The boundary below which I/O stops improving (Observation 2).

    The paper: performance "plateaus once the segment size becomes
    smaller than or equal to the I/O block size" — a one-block segment
    cannot fetch less than one block, so tightening below
    ``block_size / entry_bytes`` buys nothing.
    """
    return max(2, block_size // entry_bytes)


def inner_index_cost_us(kind: IndexKind, cost: CostModel,
                        segments_hint: int = 1024,
                        epsilon_recursive: int = 4,
                        pgm_levels: int = 2,
                        cht_height: int = 3) -> float:
    """Analytic inner-index (prediction) cost per index type.

    These mirror each index's ``expected_lookup_cost_us`` using
    structure-size hints, so no index has to be built.
    """
    if kind is IndexKind.FP:
        return cost.binary_search_us(segments_hint)
    if kind is IndexKind.PLR:
        return cost.binary_search_us(segments_hint) + cost.model_eval_us
    if kind is IndexKind.FT:
        order = btree.DEFAULT_ORDER
        height = max(1, math.ceil(math.log(max(2, segments_hint), order)))
        per_node = cost.index_compare_us * (math.log2(order) + 1)
        return height * per_node + cost.model_eval_us
    if kind is IndexKind.PGM:
        window = 2 * epsilon_recursive + 2
        return pgm_levels * (cost.model_eval_us
                             + cost.binary_search_us(window))
    if kind is IndexKind.RS:
        return (cost.index_compare_us
                + cost.binary_search_us(max(2, segments_hint // 2))
                + cost.model_eval_us)
    if kind is IndexKind.PLEX:
        return (cht_height * cost.index_compare_us
                + cost.binary_search_us(4) + cost.model_eval_us)
    if kind is IndexKind.RMI:
        return 2 * cost.model_eval_us
    raise ValueError(f"unknown kind: {kind}")  # pragma: no cover
