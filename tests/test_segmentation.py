"""Property tests for the three segmentation algorithms.

The central invariant of the whole system: every segmentation keeps
each key's prediction within epsilon of its true position.  PGM's
optimality relative to the greedy corridor is also asserted.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.base import Segment
from repro.indexes.radix_spline import interpolate
from repro.indexes.segmentation import (
    greedy_corridor_segments,
    greedy_spline_points,
    optimal_pla_segments,
)


def verify_segments(keys, segments, epsilon):
    """Return the max absolute prediction error of a segmentation.

    The oracle every segmenter is checked against: scans every key
    against its covering segment.  The result should never exceed
    ``epsilon`` (plus a whisker of float round-off).
    """
    worst = 0.0
    for segment in segments:
        for pos in range(segment.start, segment.start + segment.length):
            err = abs(segment.predict(keys[pos]) - pos)
            if err > worst:
                worst = err
    return worst


sorted_keys = st.lists(
    st.integers(min_value=0, max_value=(1 << 62)),
    min_size=1, max_size=400, unique=True).map(sorted)

epsilons = st.sampled_from([1, 2, 4, 16, 64])


@settings(max_examples=60, deadline=None)
@given(sorted_keys, epsilons)
def test_greedy_error_bound(keys, epsilon):
    segments, visits = greedy_corridor_segments(keys, epsilon)
    assert visits == len(keys)
    assert verify_segments(keys, segments, epsilon) <= epsilon + 1e-6


@settings(max_examples=60, deadline=None)
@given(sorted_keys, epsilons)
def test_optimal_error_bound(keys, epsilon):
    segments, visits = optimal_pla_segments(keys, epsilon)
    assert visits == len(keys)
    assert verify_segments(keys, segments, epsilon) <= epsilon + 1e-6


@settings(max_examples=60, deadline=None)
@given(sorted_keys, epsilons)
def test_optimal_never_more_segments_than_greedy(keys, epsilon):
    greedy, _ = greedy_corridor_segments(keys, epsilon)
    optimal, _ = optimal_pla_segments(keys, epsilon)
    assert len(optimal) <= len(greedy)


@settings(max_examples=60, deadline=None)
@given(sorted_keys, epsilons)
def test_segments_partition_the_array(keys, epsilon):
    for algorithm in (greedy_corridor_segments, optimal_pla_segments):
        segments, _ = algorithm(keys, epsilon)
        position = 0
        for segment in segments:
            assert segment.start == position
            assert segment.first_key == keys[position]
            position += segment.length
        assert position == len(keys)


@settings(max_examples=60, deadline=None)
@given(sorted_keys, epsilons)
def test_spline_interpolation_error_bound(keys, epsilon):
    points, visits = greedy_spline_points(keys, epsilon)
    assert visits == len(keys)
    assert points[0] == (keys[0], 0)
    if len(keys) == 1:
        assert points == [(keys[0], 0)]
        return
    assert points[-1] == (keys[-1], len(keys) - 1)
    spline_keys = [key for key, _ in points]
    assert spline_keys == sorted(set(spline_keys))
    # Every key interpolates within epsilon.
    seg = 0
    for pos, key in enumerate(keys):
        while points[seg + 1][0] < key:
            seg += 1
        x0, y0 = points[seg]
        x1, y1 = points[seg + 1]
        predicted = interpolate(x0, y0, x1, y1, key)
        assert abs(predicted - pos) <= epsilon + 1e-6


def test_single_key():
    for algorithm in (greedy_corridor_segments, optimal_pla_segments):
        segments, _ = algorithm([42], 4)
        assert len(segments) == 1
        assert segments[0].predict(42) == pytest.approx(0.0)
    points, _ = greedy_spline_points([42], 4)
    assert points == [(42, 0)]


def test_collinear_keys_make_one_segment():
    keys = list(range(1000, 2000, 5))
    for algorithm in (greedy_corridor_segments, optimal_pla_segments):
        segments, _ = algorithm(keys, 1)
        assert len(segments) == 1
    points, _ = greedy_spline_points(keys, 1)
    assert len(points) == 2


def test_optimal_strictly_better_on_drifting_data():
    """A slope that drifts slowly defeats the anchored greedy corridor."""
    rng = random.Random(11)
    keys = []
    key = 0
    step = 10
    for i in range(4000):
        if i % 200 == 0:
            step += 3
        key += step + rng.randrange(0, 3)
        keys.append(key)
    greedy, _ = greedy_corridor_segments(keys, 8)
    optimal, _ = optimal_pla_segments(keys, 8)
    assert len(optimal) < len(greedy)


def test_huge_keyspace_numerics():
    rng = random.Random(5)
    keys = sorted(rng.sample(range(1 << 60, 1 << 63), 5000))
    for algorithm, eps in ((greedy_corridor_segments, 8),
                           (optimal_pla_segments, 8)):
        segments, _ = algorithm(keys, eps)
        assert verify_segments(keys, segments, eps) <= eps + 1e-3


# ---------------------------------------------------------------------------
# The reference PLA: the loop that searches both hulls at every step,
# calling one helper per slope or cross product.  ``optimal_pla_segments``
# inlines those helpers and skips searches whose result it can bound, but
# performs the same float operations on every value it keeps, so its
# segments must equal these by ``repr``.
# ---------------------------------------------------------------------------

_INF = float("inf")


def _ref_cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _ref_slope_to(px, py, qx, qy):
    if qx == px:
        if qy > py:
            return _INF
        if qy < py:
            return -_INF
        return 0.0
    return (qy - py) / (qx - px)


def _ref_tangent_extreme(hull, px, py, want_max):
    lo = 0
    hi = len(hull) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        s_mid = _ref_slope_to(hull[mid][0], hull[mid][1], px, py)
        s_next = _ref_slope_to(hull[mid + 1][0], hull[mid + 1][1], px, py)
        if want_max:
            better_right = s_next > s_mid
        else:
            better_right = s_next < s_mid
        if better_right:
            lo = mid + 1
        else:
            hi = mid
    return _ref_slope_to(hull[lo][0], hull[lo][1], px, py)


def _ref_push_upper(hull, x, y):
    while len(hull) >= 2 and _ref_cross(hull[-2][0], hull[-2][1],
                                        hull[-1][0], hull[-1][1], x, y) >= 0:
        hull.pop()
    hull.append((x, y))


def _ref_push_lower(hull, x, y):
    while len(hull) >= 2 and _ref_cross(hull[-2][0], hull[-2][1],
                                        hull[-1][0], hull[-1][1], x, y) <= 0:
        hull.pop()
    hull.append((x, y))


def _reference_pla(keys, epsilon):
    """Optimal PLA with a tangent search at every step."""
    n = len(keys)
    segments = []
    start = 0
    while start < n:
        x0 = keys[start]
        hull_a = [(0.0, float(start - epsilon))]
        hull_b = [(0.0, float(start + epsilon))]
        s_min = -_INF
        s_max = _INF
        end = start + 1
        while end < n:
            dx = float(keys[end] - x0)
            a_y = float(end - epsilon)
            b_y = float(end + epsilon)
            cand_min = _ref_tangent_extreme(hull_b, dx, a_y, want_max=True)
            cand_max = _ref_tangent_extreme(hull_a, dx, b_y, want_max=False)
            new_min = s_min if s_min > cand_min else cand_min
            new_max = s_max if s_max < cand_max else cand_max
            if new_min > new_max:
                break
            s_min, s_max = new_min, new_max
            _ref_push_upper(hull_a, dx, a_y)
            _ref_push_lower(hull_b, dx, b_y)
            end += 1
        if end == start + 1:
            slope = 0.0
            intercept_dx = float(start)
        else:
            if s_min == -_INF:
                slope = 0.0
            elif s_max == _INF:
                slope = s_min
            else:
                slope = (s_min + s_max) / 2.0
            b_low = max(y - slope * x for x, y in hull_a)
            b_high = min(y - slope * x for x, y in hull_b)
            intercept_dx = (b_low + b_high) / 2.0
        segments.append(Segment(first_key=x0, slope=slope,
                                intercept=intercept_dx,
                                start=start, length=end - start))
        start = end
    return segments, n


def _pla_inputs():
    rng = random.Random(23)
    yield "single", [42]
    yield "pair", [7, 1 << 63]
    yield "collinear", list(range(1000, 9000, 5))
    yield "random", sorted({rng.randrange(1 << 64) for _ in range(3000)})
    yield "dense", sorted({rng.randrange(1 << 20) for _ in range(3000)})
    yield "near-2^63", sorted({(1 << 63) + rng.randrange(4000)
                               for _ in range(2000)})
    # Slopes run on deltas from the segment's first key, so keys collide
    # as floats only when that key is far away: a cluster of consecutive
    # keys 2^63 above it shares one delta and takes the vertical
    # (+inf / -inf / 0) arms of the slope.
    yield "float-colliding", [0] + [(1 << 63) + i for i in range(600)]
    yield "near-2^64", sorted({(1 << 64) - 1 - rng.randrange(1 << 30)
                               for _ in range(2000)})
    yield "near-collinear", sorted({(1 << 40) + 977 * i + rng.randrange(-1, 2)
                                    for i in range(3000)})
    key, runs = 1 << 32, []
    for step in (1, 7, 1 << 20, 3, 1 << 33):
        for _ in range(400):
            key += step
            runs.append(key)
        key += 1 << 36
    yield "collinear-runs", runs
    step, key, drifting = 10, 0, []
    for i in range(3000):
        step += 3 * (i % 200 == 0)
        key += step + rng.randrange(3)
        drifting.append(key)
    yield "drifting", drifting


PLA_EPSILONS = [1, 2, 3, 4, 8, 16, 32, 128]


@pytest.mark.parametrize("name,keys", list(_pla_inputs()),
                         ids=[name for name, _ in _pla_inputs()])
@pytest.mark.parametrize("epsilon", PLA_EPSILONS)
def test_inlined_hull_matches_helper_calling_loop(name, keys, epsilon):
    assert (repr(optimal_pla_segments(keys, epsilon))
            == repr(_reference_pla(keys, epsilon)))


_MAX_KEY = (1 << 64) - 1

#: Key sets that stress the float arithmetic: uniform 64-bit keys; a key
#: near zero below a cluster far above it, whose deltas collapse to a few
#: floats; and arithmetic runs, exact or jittered by one, at any offset.
pla_keys = st.one_of(
    st.lists(st.integers(min_value=0, max_value=_MAX_KEY),
             min_size=1, max_size=400, unique=True).map(sorted),
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.sampled_from([1 << 62, 1 << 63, _MAX_KEY - (1 << 16)]),
              st.lists(st.integers(min_value=0, max_value=1 << 14),
                       max_size=300)).map(
        lambda t: sorted({t[0]} | {t[1] + d for d in t[2]})),
    st.tuples(st.integers(min_value=0, max_value=1 << 63),
              st.integers(min_value=2, max_value=1 << 40),
              st.lists(st.integers(min_value=-1, max_value=1),
                       min_size=1, max_size=400)).map(
        lambda t: sorted({min(_MAX_KEY, t[0] + t[1] * i + j)
                          for i, j in enumerate(t[2])})),
)


@settings(max_examples=150, deadline=None)
@given(pla_keys, st.sampled_from(PLA_EPSILONS))
def test_property_inlined_hull_matches_helper_calling_loop(keys, epsilon):
    assert (repr(optimal_pla_segments(keys, epsilon))
            == repr(_reference_pla(keys, epsilon)))
