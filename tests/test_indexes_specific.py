"""Per-index behavioural tests beyond the shared interface contract."""

import pytest

from repro.errors import IndexBuildError
from repro.indexes.fence import FencePointerIndex
from repro.indexes.fiting_tree import FITingTreeIndex
from repro.indexes.pgm import PGMIndex
from repro.indexes.plex import CompactHistTree, PLEXIndex
from repro.indexes.plr import PLRIndex
from repro.indexes.radix_spline import RadixSplineIndex
from repro.indexes.registry import IndexFactory, IndexKind
from repro.indexes.rmi import RMIIndex, RmiTuningCache
from repro.storage.cost_model import DEFAULT_COST_MODEL


# -- fence pointers ------------------------------------------------------

def test_fp_block_alignment(uniform_keys):
    keys = uniform_keys[:1000]
    index = FencePointerIndex(block_entries=32)
    index.build(keys)
    for i in (0, 31, 32, 999):
        bound = index.lookup(keys[i])
        assert bound.lo == (i // 32) * 32
        assert bound.width <= 32
    assert index.pointer_count() == (1000 + 31) // 32
    assert index.configured_boundary() == 32


def test_fp_memory_is_16_bytes_per_pointer(uniform_keys):
    keys = uniform_keys[:1024]
    index = FencePointerIndex(block_entries=8)
    index.build(keys)
    pointers = index.pointer_count()
    # key (8) + offset (8) per pointer plus a fixed header.
    assert abs(index.size_bytes() - 16 * pointers) < 64


def test_fp_rejects_bad_block_entries():
    with pytest.raises(IndexBuildError):
        FencePointerIndex(0)


# -- PLR ------------------------------------------------------------------

def test_plr_segment_count_grows_with_precision(uniform_keys):
    keys = uniform_keys[:5000]
    loose = PLRIndex(epsilon=64)
    loose.build(keys)
    tight = PLRIndex(epsilon=4)
    tight.build(keys)
    assert tight.segment_count() > loose.segment_count()


def test_plr_single_pass_training(uniform_keys):
    keys = uniform_keys[:3000]
    index = PLRIndex(epsilon=16)
    index.build(keys)
    assert index.train_key_visits == len(keys)


# -- FITing-Tree -----------------------------------------------------------

def test_fiting_tree_uses_btree(uniform_keys):
    keys = uniform_keys[:5000]
    index = FITingTreeIndex(epsilon=8, order=8)
    index.build(keys)
    assert index.tree_height() >= 2
    assert index.segment_count() > 1


def test_fiting_tree_memory_exceeds_plr(uniform_keys):
    keys = uniform_keys[:5000]
    ft = FITingTreeIndex(epsilon=8)
    ft.build(keys)
    plr = PLRIndex(epsilon=8)
    plr.build(keys)
    assert ft.size_bytes() > plr.size_bytes()
    assert ft.segment_count() == plr.segment_count()  # same greedy pass


# -- PGM --------------------------------------------------------------------

def test_pgm_recursive_levels(uniform_keys):
    keys = uniform_keys[:8000]
    index = PGMIndex(epsilon=4, epsilon_recursive=2)
    index.build(keys)
    assert index.level_count() >= 2
    # Root level has exactly one segment.
    assert len(index._levels[-1]) == 1


def test_pgm_beats_greedy_segment_count(clustered_keys):
    pgm = PGMIndex(epsilon=8)
    pgm.build(clustered_keys)
    plr = PLRIndex(epsilon=8)
    plr.build(clustered_keys)
    assert pgm.segment_count() <= plr.segment_count()


def test_pgm_epsilon_recursive_default_is_papers():
    index = PGMIndex(epsilon=16)
    assert index.epsilon_recursive == 4


def test_pgm_rejects_bad_epsilons():
    with pytest.raises(IndexBuildError):
        PGMIndex(epsilon=0)
    with pytest.raises(IndexBuildError):
        PGMIndex(epsilon=4, epsilon_recursive=0)


# -- RadixSpline ---------------------------------------------------------

def test_rs_radix_table_narrowing(uniform_keys):
    keys = uniform_keys[:5000]
    index = RadixSplineIndex(epsilon=8, radix_bits=4)
    index.build(keys)
    assert len(index._table) == (1 << 4) + 1
    assert index._table[-1] == index.spline_point_count()
    assert index._table[0] == 0


def test_rs_more_bits_more_table_memory(uniform_keys):
    keys = uniform_keys[:5000]
    small = RadixSplineIndex(epsilon=8, radix_bits=1)
    small.build(keys)
    big = RadixSplineIndex(epsilon=8, radix_bits=12)
    big.build(keys)
    assert big.size_bytes() > small.size_bytes()
    assert big.spline_point_count() == small.spline_point_count()


def test_rs_rejects_bad_params():
    with pytest.raises(IndexBuildError):
        RadixSplineIndex(epsilon=0)
    with pytest.raises(IndexBuildError):
        RadixSplineIndex(epsilon=4, radix_bits=0)


# -- PLEX ------------------------------------------------------------------

def test_plex_self_tuning_picks_candidate(uniform_keys):
    keys = uniform_keys[:5000]
    index = PLEXIndex(epsilon=8)
    index.build(keys)
    assert index.chosen_bits() in index.candidate_bits
    assert index.tree_height() >= 1


def test_plex_training_costs_multiple_passes(uniform_keys):
    keys = uniform_keys[:3000]
    index = PLEXIndex(epsilon=8)
    index.build(keys)
    # One spline pass plus one evaluation pass per candidate.
    expected = len(keys) * (1 + len(index.candidate_bits))
    assert index.train_key_visits == expected


def test_cht_lookup_ranges_bracket_keys(uniform_keys):
    keys = uniform_keys[:2000]
    spline_keys = keys[::20]
    tree = CompactHistTree(bits=4, leaf_threshold=4)
    tree.build(list(spline_keys))
    import bisect
    for probe in keys[::37]:
        lo, hi = tree.lookup_range(probe)
        insertion = bisect.bisect_right(spline_keys, probe)
        assert lo <= insertion <= hi


# -- RMI ---------------------------------------------------------------------

def test_rmi_errors_are_recorded_not_configured(uniform_keys):
    keys = uniform_keys[:5000]
    index = RMIIndex(boundary_target=16)
    index.build(keys)
    assert index.max_error() >= 0
    assert index.mean_error() <= index.max_error()
    assert index.leaf_count() >= 8


def test_rmi_tighter_target_needs_more_leaves(uniform_keys):
    keys = uniform_keys[:8000]
    loose = RMIIndex(boundary_target=128)
    loose.build(keys)
    tight = RMIIndex(boundary_target=4)
    tight.build(keys)
    assert tight.leaf_count() > loose.leaf_count()


def test_rmi_warm_cache_reduces_training(uniform_keys):
    keys = uniform_keys[:4000]
    cache = RmiTuningCache()
    cold = RMIIndex(boundary_target=16, cache=cache)
    cold.build(keys)
    warm = RMIIndex(boundary_target=16, cache=cache)
    warm.build(keys)
    assert warm.train_key_visits <= cold.train_key_visits
    assert warm.train_key_visits == 2 * len(keys)  # one round, two passes


def test_rmi_prediction_cost_is_two_evals(uniform_keys):
    keys = uniform_keys[:2000]
    index = RMIIndex(boundary_target=32)
    index.build(keys)
    assert index.expected_lookup_cost_us(DEFAULT_COST_MODEL) == pytest.approx(
        2 * DEFAULT_COST_MODEL.model_eval_us)


def test_rmi_rejects_tiny_boundary():
    with pytest.raises(IndexBuildError):
        RMIIndex(boundary_target=1)


# -- registry ---------------------------------------------------------------

def test_factory_boundary_to_epsilon_mapping():
    factory = IndexFactory(IndexKind.PGM, 64)
    assert factory.epsilon == 32
    index = factory.create()
    assert index.epsilon == 32


def test_factory_rejects_tiny_boundary():
    with pytest.raises(IndexBuildError):
        IndexFactory(IndexKind.PLR, 1)


def test_factory_shares_rmi_cache(uniform_keys):
    factory = IndexFactory(IndexKind.RMI, 16)
    first = factory.build(uniform_keys[:4000])
    second = factory.build(uniform_keys[:4000])
    assert second.train_key_visits <= first.train_key_visits


def test_deserialize_unknown_tag():
    from repro.indexes.registry import deserialize_index
    with pytest.raises(IndexBuildError):
        deserialize_index(b"\xee rest")
