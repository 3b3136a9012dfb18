"""Two-layer Recursive Model Index (Figure 2 F).

RMI approximates the key CDF with a hierarchy of models: a root model
routes each key to one of ``n_leaf`` second-layer linear models, each
trained on the keys routed to it.  Two properties from the paper are
central here:

* *errors are recorded, not configured* — after fitting, a second pass
  records every leaf's maximum prediction error, and lookups use the
  per-leaf bound.  RMI can therefore reach error bounds as small as 1
  by enlarging the second layer;
* *the position boundary is tuned via the second-layer size* — the
  constructor takes a target boundary and searches for the smallest
  second layer whose 99th-percentile key error fits it, warm-started
  from a cache so steady-state compaction rebuilds converge in one
  round (two passes over the keys), keeping Figure 9's training
  overhead modest.

Unlike the segment-based indexes, RMI stores *no keys at all*: its
memory is purely model parameters, which is why Figure 8 shows its
footprint shrinking with table size even at tiny boundaries — the
paper attributes this to the inner index (first stage) dominating.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.indexes import codec
from repro.indexes.base import ClusteredIndex, SearchBound
from repro.storage.cost_model import CostModel

RMI_TAG = 7

#: Fraction of keys whose error must fit the target boundary.
ACCEPT_QUANTILE = 0.99

#: Maximum tuning rounds when the cache is cold.
MAX_TUNING_ROUNDS = 8


class RmiTuningCache:
    """Remembers accepted second-layer sizes across rebuilds.

    Compactions rebuild indexes over tables with near-identical size
    and distribution, so the leaf density accepted last time is almost
    always right the next time.  Keys are (log2-bucketed n, target
    error) pairs; values are leaves-per-key densities.
    """

    def __init__(self) -> None:
        self._density: Dict[Tuple[int, int], float] = {}

    @staticmethod
    def _bucket(n: int, target_error: int) -> Tuple[int, int]:
        return (int(math.log2(max(2, n))), target_error)

    def suggest(self, n: int, target_error: int) -> Optional[int]:
        """A warm-start leaf count, or None when cold."""
        density = self._density.get(self._bucket(n, target_error))
        if density is None:
            return None
        return max(4, min(n, int(density * n)))

    def update(self, n: int, target_error: int, n_leaf: int) -> None:
        """Record the accepted leaf count for future builds."""
        self._density[self._bucket(n, target_error)] = n_leaf / max(1, n)


class RMIIndex(ClusteredIndex):
    """Two-layer RMI with recorded per-leaf error bounds."""

    kind = "RMI"

    def __init__(self, boundary_target: int,
                 cache: Optional[RmiTuningCache] = None,
                 max_rounds: int = MAX_TUNING_ROUNDS,
                 accept_quantile: float = ACCEPT_QUANTILE) -> None:
        super().__init__()
        if boundary_target < 2:
            raise IndexBuildError(
                f"RMI boundary target must be >= 2, got {boundary_target}")
        self.boundary_target = boundary_target
        self.target_error = max(1, boundary_target // 2)
        self.cache = cache
        self.max_rounds = max_rounds
        self.accept_quantile = accept_quantile
        # Model state; keys are mapped to t = (key - key_min) / span.
        self._key_min = 0
        self._span = 1.0
        self._root_slope = 0.0
        self._root_intercept = 0.0
        self._n_leaf = 0
        self._slopes = np.zeros(0)
        self._intercepts = np.zeros(0)
        self._errors = np.zeros(0, dtype=np.int64)
        #: Per leaf: first position routed to it at build, first key and
        #: last key (None when empty), and the end position after the
        #: last leaf.  They place an absent key that falls outside its
        #: leaf's keys.  Known only to an index built in this process
        #: (they are not serialised).
        self._starts: Optional[List[int]] = None
        self._first_keys: List[Optional[int]] = []
        self._last_keys: List[Optional[int]] = []
        self._mean_error = 0.0
        self._max_error = 0

    # -- construction ------------------------------------------------------

    def _fit(self, keys: Sequence[int]) -> None:
        n = len(keys)
        xs = np.asarray(keys, dtype=np.float64)
        pos = np.arange(n, dtype=np.float64)
        self._key_min = int(keys[0])
        span = float(keys[-1] - keys[0])
        self._span = span if span > 0 else 1.0
        t = (xs - xs[0]) / self._span

        # Root: least squares t -> position, slope clamped monotone.
        root = self._fit_root(t, pos, n)
        self._root_slope, self._root_intercept = root

        suggestion = (self.cache.suggest(n, self.target_error)
                      if self.cache is not None else None)
        n_leaf = suggestion if suggestion is not None else self._cold_guess(n)
        warm = suggestion is not None

        best: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]] = None
        rounds = 0
        while rounds < self.max_rounds:
            rounds += 1
            fitted = self._fit_layer(t, pos, n, n_leaf)
            self._record_visits(2 * n)  # assignment/fit pass + error pass
            slopes, intercepts, errors, key_errors, starts = fitted
            ok_fraction = float(np.mean(key_errors <= self.target_error))
            if ok_fraction >= self.accept_quantile or n_leaf >= n:
                best = (n_leaf, slopes, intercepts, errors, key_errors,
                        starts)
                if warm and rounds == 1:
                    break  # steady state: the cached size passed first try
                if n_leaf <= 8:
                    break
                # Keep halving while the target still holds, converging
                # on the smallest passing second layer.
                n_leaf = max(8, n_leaf // 2)
                continue
            if best is not None:
                break  # previous (larger) layer was the smallest passing one
            n_leaf = min(n, n_leaf * 4)
        if best is None:  # every round failed: keep the last (largest) fit
            best = (n_leaf, *self._fit_layer(t, pos, n, n_leaf))
            self._record_visits(2 * n)
        (self._n_leaf, self._slopes, self._intercepts, self._errors,
         key_errs, starts) = best
        self._starts = starts.tolist()
        self._first_keys = [keys[lo] if lo < hi else None
                            for lo, hi in zip(self._starts, self._starts[1:])]
        self._last_keys = [keys[hi - 1] if lo < hi else None
                           for lo, hi in zip(self._starts, self._starts[1:])]
        self._mean_error = float(np.mean(key_errs))
        self._max_error = int(key_errs.max()) if len(key_errs) else 0
        if self.cache is not None:
            self.cache.update(n, self.target_error, self._n_leaf)

    def _cold_guess(self, n: int) -> int:
        """Initial second-layer size before any tuning information."""
        denom = max(16, self.target_error * self.target_error)
        return int(min(n, max(8, 4 * n // denom)))

    @staticmethod
    def _fit_root(t: np.ndarray, pos: np.ndarray, n: int) -> Tuple[float, float]:
        sum_t = float(t.sum())
        sum_p = float(pos.sum())
        sum_tt = float((t * t).sum())
        sum_tp = float((t * pos).sum())
        denom = n * sum_tt - sum_t * sum_t
        if denom <= 0:
            return 0.0, sum_p / n
        slope = (n * sum_tp - sum_t * sum_p) / denom
        slope = max(slope, 0.0)  # keep routing monotone
        intercept = (sum_p - slope * sum_t) / n
        return slope, intercept

    def _route(self, t: np.ndarray, n: int, n_leaf: int) -> np.ndarray:
        pred = self._root_slope * t + self._root_intercept
        leaf = np.floor(pred * n_leaf / n).astype(np.int64)
        return np.clip(leaf, 0, n_leaf - 1)

    def _fit_layer(self, t: np.ndarray, pos: np.ndarray, n: int,
                   n_leaf: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
        """Fit ``n_leaf`` leaf models; returns per-leaf params, per-leaf
        and per-key errors, and the ``n_leaf + 1`` leaf start positions
        (the last one is ``n``)."""
        leaf_idx = self._route(t, n, n_leaf)
        boundaries = np.searchsorted(leaf_idx, np.arange(n_leaf + 1))
        counts = np.diff(boundaries).astype(np.float64)

        def window_sums(values: np.ndarray) -> np.ndarray:
            cumulative = np.concatenate(([0.0], np.cumsum(values)))
            return cumulative[boundaries[1:]] - cumulative[boundaries[:-1]]

        sum_t = window_sums(t)
        sum_p = window_sums(pos)
        sum_tt = window_sums(t * t)
        sum_tp = window_sums(t * pos)
        denom = counts * sum_tt - sum_t * sum_t
        safe = np.abs(denom) > 1e-30
        slopes = np.where(safe, np.divide(
            counts * sum_tp - sum_t * sum_p, denom,
            out=np.zeros_like(denom), where=safe), 0.0)
        occupied = counts > 0
        intercepts = np.where(occupied, np.divide(
            sum_p - slopes * sum_t, np.maximum(counts, 1.0)), 0.0)
        # Empty leaves: point at the position where their keys would be.
        empty_fill = boundaries[:-1].astype(np.float64)
        intercepts = np.where(occupied, intercepts, empty_fill)

        predictions = slopes[leaf_idx] * t + intercepts[leaf_idx]
        key_errors = np.abs(predictions - pos)
        errors = np.zeros(n_leaf, dtype=np.int64)
        if n:
            reduced = np.maximum.reduceat(
                key_errors, np.minimum(boundaries[:-1], n - 1))
            errors = np.where(occupied, np.ceil(reduced).astype(np.int64), 0)
        return slopes, intercepts, errors, key_errors, boundaries

    # -- lookup ------------------------------------------------------------

    def _predict(self, key: int) -> SearchBound:
        t = (key - self._key_min) / self._span
        root_pred = self._root_slope * t + self._root_intercept
        leaf = int(root_pred * self._n_leaf / self._n)
        if leaf < 0:
            leaf = 0
        elif leaf >= self._n_leaf:
            leaf = self._n_leaf - 1
        predicted = self._slopes[leaf] * t + self._intercepts[leaf]
        error = int(self._errors[leaf])
        center = int(predicted)
        lo = center - error
        if self._starts is not None:
            # Seeks need a bound that starts at or before the key's
            # insertion point.  Inside its leaf's key range the (monotone)
            # leaf model keeps that; outside it, the insertion point is
            # the leaf's start or end.  A member key never lies outside.
            first = self._first_keys[leaf]
            if first is None or key < first:
                lo = min(lo, self._starts[leaf])
            elif key > self._last_keys[leaf]:
                lo = min(lo, self._starts[leaf + 1])
        return SearchBound(lo, center + error + 2)

    # -- introspection -----------------------------------------------------

    def configured_boundary(self) -> int:
        return self.boundary_target

    @property
    def places_absent_keys(self) -> bool:
        """Only with the leaf positions, which are not serialised."""
        return self._starts is not None

    def leaf_count(self) -> int:
        """Size of the second layer."""
        return self._n_leaf

    def mean_error(self) -> float:
        """Mean recorded prediction error over the build keys."""
        return self._mean_error

    def max_error(self) -> int:
        """Largest recorded prediction error."""
        return self._max_error

    def expected_lookup_cost_us(self, cost: CostModel) -> float:
        return 2 * cost.model_eval_us

    # -- serialisation -------------------------------------------------------

    def describe(self) -> dict:
        """Base summary plus second-layer size and recorded errors."""
        info = super().describe()
        info["leaves"] = self._n_leaf
        info["mean_error"] = round(self._mean_error, 3)
        info["max_error"] = self._max_error
        return info

    def serialize(self) -> bytes:
        writer = codec.Writer()
        writer.put_u8(RMI_TAG)
        writer.put_u32(self.boundary_target)
        writer.put_u64(self._n)
        writer.put_u64(self._key_min)
        writer.put_f64(self._span)
        writer.put_f64(self._root_slope)
        writer.put_f64(self._root_intercept)
        writer.put_u32(self._n_leaf)
        writer.put_f64_array([float(v) for v in self._slopes])
        writer.put_f64_array([float(v) for v in self._intercepts])
        writer.put_u32_array([int(v) for v in self._errors])
        return writer.getvalue()

    @classmethod
    def deserialize(cls, reader: codec.Reader) -> "RMIIndex":
        """Rebuild from a :class:`codec.Reader` positioned after the tag."""
        boundary = reader.get_u32()
        index = cls(boundary)
        index._n = reader.get_u64()
        index._key_min = reader.get_u64()
        index._span = reader.get_f64()
        index._root_slope = reader.get_f64()
        index._root_intercept = reader.get_f64()
        index._n_leaf = reader.get_u32()
        index._slopes = np.asarray(reader.get_f64_array())
        index._intercepts = np.asarray(reader.get_f64_array())
        index._errors = np.asarray(reader.get_u32_array(), dtype=np.int64)
        index._built = True
        return index
