"""The linear model the unclustered indexes route and place keys with.

Every learned index bottoms out in the same primitive: a model mapping
a key to an approximate position in a sorted array.  This module
provides that primitive for ALEX and DILI — a plain slope/intercept
line fitted through two points.  Like the indexes that use it, a model
is fitted once when its node is bulk-built and never refitted: no index
here takes inserts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinearModel:
    """A line ``position = slope * key + intercept``."""

    slope: float
    intercept: float

    def predict(self, key: float) -> float:
        """Approximate position for ``key`` (unclamped)."""
        return self.slope * key + self.intercept

    def predict_clamped(self, key: float, n: int) -> int:
        """Approximate integer position for ``key`` clamped to ``[0, n-1]``."""
        pos = int(self.predict(key))
        if pos < 0:
            return 0
        if pos >= n:
            return n - 1
        return pos


def fit_endpoints(x0: float, y0: float, x1: float, y1: float) -> LinearModel:
    """Fit the line through two points; vertical input degrades to flat."""
    if x1 == x0:
        return LinearModel(0.0, (y0 + y1) / 2.0)
    slope = (y1 - y0) / (x1 - x0)
    return LinearModel(slope, y0 - slope * x0)
