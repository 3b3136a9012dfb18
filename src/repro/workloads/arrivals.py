"""Open-loop arrival processes for overload experiments.

The paper replays workloads *closed-loop*: every operation starts when
the previous one finishes, so the system is never offered more load
than it can serve and queueing delay is structurally invisible.  Real
traffic is *open-loop* — users do not wait for each other — and the
regime that separates index designs in production is saturation, where
queueing dominates p99/p999.

This module generates deterministic arrival timestamps (simulated
microseconds) for the request gateway: :class:`PoissonArrivals` —
memoryless arrivals at a fixed offered rate, the canonical open-loop
model.

The generator is a pure function of its parameters and seed — the same
plan replays byte-identically, which is what lets the ``overload``
experiment assert determinism end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import WorkloadError


@dataclass(frozen=True)
class PoissonArrivals:
    """Exponential inter-arrival gaps at ``rate_per_sec`` offered load."""

    rate_per_sec: float
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on a non-positive rate."""
        if self.rate_per_sec <= 0:
            raise WorkloadError(
                f"arrival rate must be > 0 ops/s, got {self.rate_per_sec}")

    def times(self, count: int) -> List[float]:
        """``count`` strictly increasing arrival timestamps (sim µs)."""
        self.validate()
        rng = random.Random(self.seed)
        mean_gap_us = 1e6 / self.rate_per_sec
        now = 0.0
        out: List[float] = []
        for _ in range(count):
            now += rng.expovariate(1.0) * mean_gap_us
            out.append(now)
        return out
