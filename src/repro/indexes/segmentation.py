"""Segmentation algorithms behind the data-clustered learned indexes.

Three algorithms from the paper's Section 3.1, all one-pass over a
strictly-increasing key array and all guaranteeing a maximum prediction
error ``epsilon``:

* :func:`greedy_corridor_segments` — the greedy slope-corridor used by
  Bourbon's PLR and by FITing-Tree's shrinking cone.  Each segment's
  line is anchored at the segment's first point, and the feasible slope
  interval narrows as points arrive; when it empties, a new segment
  starts.
* :func:`optimal_pla_segments` — the optimal piecewise-linear
  approximation used by the PGM-index (O'Rourke's on-line algorithm).
  It maintains the exact feasible set of lines via two convex hulls and
  therefore produces the *minimum* number of segments for a given
  epsilon — this is precisely why the paper finds PGM's memory-latency
  trade-off superior to greedy segmentation.
* :func:`greedy_spline_points` — the GreedySplineCorridor of
  RadixSpline/PLEX: instead of free lines it selects a subset of data
  points as spline knots such that linear interpolation between
  consecutive knots stays within epsilon.

All functions return the number of *key visits* they performed so
callers can charge training cost (Figure 9's compaction breakdown).

Numerical notes: keys may span the full 64-bit range, so all slope
arithmetic is done on deltas from the segment's first key; predictions
evaluate ``slope * key + intercept`` whose cancellation error is far
below 1 position for realistic table sizes (see tests).

The optimal PLA skips each tangent search whose result it can bound.
When ``s_min`` last moved, it became the slope from a B vertex to that
step's A point ``(x_t, a_t)``, so every B vertex lay on or above the
line of slope ``s_min`` through it.  So does every B point accepted
since: it lies above a feasible line, whose slope is at least ``s_min``
and which passes above ``(x_t, a_t)``.  Hence with ``g = a_t - s_min*x_t``
an A point with ``a_y - s_min*dx <= g - m`` has no vertex slope above
``s_min``, and the search is skipped; ``s_max`` is the mirror image.
The margin ``m = 1e-6 * (1 + |g|)`` covers rounding: the test is close
only where ``s*dx`` is within ``g`` of a position, and for positions up
to 2^24 each operation is then off by about 1e-8.  Every float kept is
that of a search at every step, so segments are bitwise the same.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.indexes.base import Segment

_INF = float("inf")

#: Relative margin of the PLA skip test (see the module docstring).
_SKIP_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# Greedy corridor (PLR / FITing-Tree)
# ---------------------------------------------------------------------------

def greedy_corridor_segments(
        keys: Sequence[int], epsilon: int) -> Tuple[List[Segment], int]:
    """Greedy segmentation with lines anchored at segment origins.

    Guarantees ``|predict(key_i) - i| <= epsilon`` for every key in a
    segment.  Returns ``(segments, key_visits)``.
    """
    n = len(keys)
    segments: List[Segment] = []
    start = 0
    while start < n:
        x0 = keys[start]
        y0 = start
        slope_lo = -_INF
        slope_hi = _INF
        end = start + 1
        while end < n:
            dx = float(keys[end] - x0)
            lo = (end - epsilon - y0) / dx
            hi = (end + epsilon - y0) / dx
            new_lo = slope_lo if slope_lo > lo else lo
            new_hi = slope_hi if slope_hi < hi else hi
            if new_lo > new_hi:
                break
            slope_lo, slope_hi = new_lo, new_hi
            end += 1
        if end == start + 1:  # single-point segment
            slope = 0.0
        elif slope_lo == -_INF:  # unreachable, defensive
            slope = 0.0
        else:
            slope = (slope_lo + slope_hi) / 2.0
        # The line is anchored at the segment origin: intercept is the
        # position at first_key (Segment.predict evaluates on offsets).
        segments.append(Segment(first_key=x0, slope=slope,
                                intercept=float(y0), start=start,
                                length=end - start))
        start = end
    return segments, n


# ---------------------------------------------------------------------------
# Optimal PLA (PGM-index)
# ---------------------------------------------------------------------------

# The hull code below runs once per key with a few slope or
# cross-product evaluations each, so the arithmetic is written out on
# unpacked vertices instead of going through per-evaluation calls.
#
# Slope from a hull vertex (hx, hy) to the point (px, py): distinct
# 64-bit keys can collapse to the same float; treat such pairs as
# vertical — an upward vertical constraint is unsatisfiable (+inf forces
# the segment closed), a downward one is vacuous (-inf).


def _tangent_extreme(hull: List[Tuple[float, float]], px: float, py: float,
                     want_max: bool) -> float:
    """Extreme slope from hull vertices to an external right point.

    Over a convex chain the slope to a point right of every vertex is
    unimodal, so a binary search on adjacent-vertex comparisons finds
    the max (lower hull) or min (upper hull) in O(log h).
    """
    lo = 0
    hi = len(hull) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        hx, hy = hull[mid]
        s_mid = ((py - hy) / (px - hx) if px != hx
                 else _INF if py > hy else -_INF if py < hy else 0.0)
        hx, hy = hull[mid + 1]
        s_next = ((py - hy) / (px - hx) if px != hx
                  else _INF if py > hy else -_INF if py < hy else 0.0)
        if (s_next > s_mid) if want_max else (s_next < s_mid):
            lo = mid + 1
        else:
            hi = mid
    hx, hy = hull[lo]
    return ((py - hy) / (px - hx) if px != hx
            else _INF if py > hy else -_INF if py < hy else 0.0)


def optimal_pla_segments(
        keys: Sequence[int], epsilon: int) -> Tuple[List[Segment], int]:
    """Optimal epsilon-bounded segmentation (O'Rourke / PGM).

    Maintains, per segment, the exact feasible slope interval
    ``[s_min, s_max]`` of lines that stay within ``±epsilon`` of every
    point seen so far, using the upper hull of ``(x, y - eps)`` and the
    lower hull of ``(x, y + eps)``.  A point is accepted iff the
    interval stays non-empty, which yields the minimal segment count.

    Returns ``(segments, key_visits)``.
    """
    n = len(keys)
    segments: List[Segment] = []
    start = 0
    while start < n:
        x0 = keys[start]
        # Hulls over delta-x coordinates for numerical stability.
        hull_a: List[Tuple[float, float]] = [(0.0, float(start - epsilon))]
        hull_b: List[Tuple[float, float]] = [(0.0, float(start + epsilon))]
        s_min = -_INF
        s_max = _INF
        # Skip thresholds: an infinite slope's test reads inf or nan.
        skip_b = -_INF
        skip_a = _INF
        end = start + 1
        # Exact running floats for end -/+ epsilon (integers < 2**53).
        a_y = float(end - epsilon) - 1.0
        b_y = float(end + epsilon) - 1.0
        while end < n:
            dx = float(keys[end] - x0)
            a_y += 1.0
            b_y += 1.0
            # Lower bound on slope: steepest line from an earlier upper
            # point (B) to this point's lower requirement (A).
            if a_y - s_min * dx <= skip_b:
                new_min = s_min
            else:
                cand_min = _tangent_extreme(hull_b, dx, a_y, want_max=True)
                new_min = s_min if s_min > cand_min else cand_min
            # Upper bound: shallowest line from an earlier lower point
            # (A) to this point's upper allowance (B).
            if b_y - s_max * dx >= skip_a:
                new_max = s_max
            else:
                cand_max = _tangent_extreme(hull_a, dx, b_y, want_max=False)
                new_max = s_max if s_max < cand_max else cand_max
            if new_min > new_max:
                break
            # A slope that moved is a tangent through this point.
            if new_min != s_min:
                bound = a_y - new_min * dx
                skip_b = bound - _SKIP_MARGIN * (1.0 + abs(bound))
            if new_max != s_max:
                bound = b_y - new_max * dx
                skip_a = bound + _SKIP_MARGIN * (1.0 + abs(bound))
            s_min, s_max = new_min, new_max
            # Push the point onto both hulls, popping dominated vertices:
            # the test is the 2D cross product (a - o) x (p - o) of the
            # last two vertices o, a and the new point p; the upper hull
            # keeps clockwise turns, the lower counter-clockwise ones.
            while len(hull_a) > 1:
                ox, oy = hull_a[-2]
                ax, ay = hull_a[-1]
                if (ax - ox) * (a_y - oy) - (ay - oy) * (dx - ox) >= 0:
                    hull_a.pop()
                else:
                    break
            hull_a.append((dx, a_y))
            while len(hull_b) > 1:
                ox, oy = hull_b[-2]
                ax, ay = hull_b[-1]
                if (ax - ox) * (b_y - oy) - (ay - oy) * (dx - ox) <= 0:
                    hull_b.pop()
                else:
                    break
            hull_b.append((dx, b_y))
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
            # The feasible intercepts at this slope form an interval:
            # at least the lowest line above every A-requirement (its
            # binding vertex lies on the upper hull of A) and at most
            # the highest line below every B-allowance (binding vertex
            # on the lower hull of B).  Take the midpoint.
            b_low = max(y - slope * x for x, y in hull_a)
            b_high = min(y - slope * x for x, y in hull_b)
            intercept_dx = (b_low + b_high) / 2.0
        # Hull coordinates are already offsets from first_key, so the
        # dx-space intercept is exactly Segment's anchored intercept.
        segments.append(Segment(first_key=x0, slope=slope,
                                intercept=intercept_dx,
                                start=start, length=end - start))
        start = end
    return segments, n


# ---------------------------------------------------------------------------
# Greedy spline (RadixSpline / PLEX)
# ---------------------------------------------------------------------------

def greedy_spline_points(
        keys: Sequence[int], epsilon: int) -> Tuple[List[Tuple[int, int]], int]:
    """GreedySplineCorridor: pick knots so interpolation stays in epsilon.

    Returns ``(spline_points, key_visits)`` where spline points are
    ``(key, position)`` pairs including the first and last key.  For
    any query between two knots, linear interpolation predicts a
    position within ``epsilon`` of the truth for every indexed key.
    """
    n = len(keys)
    if n == 1:
        return [(keys[0], 0)], 1
    points: List[Tuple[int, int]] = [(keys[0], 0)]
    base_x = keys[0]
    base_y = 0
    slope_lo = -_INF
    slope_hi = _INF
    for i in range(1, n):
        dx = float(keys[i] - base_x)
        exact = (i - base_y) / dx
        if exact < slope_lo or exact > slope_hi:
            # The chord to this point would violate an interior
            # corridor: the previous point becomes a knot.
            knot_x, knot_y = keys[i - 1], i - 1
            points.append((knot_x, knot_y))
            base_x, base_y = knot_x, knot_y
            dx = float(keys[i] - base_x)
            slope_lo = (i - epsilon - base_y) / dx
            slope_hi = (i + epsilon - base_y) / dx
        else:
            lo = (i - epsilon - base_y) / dx
            hi = (i + epsilon - base_y) / dx
            if lo > slope_lo:
                slope_lo = lo
            if hi < slope_hi:
                slope_hi = hi
    if points[-1][0] != keys[-1]:
        points.append((keys[-1], n - 1))
    return points, n
