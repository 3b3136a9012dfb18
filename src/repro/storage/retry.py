"""Bounded retries with deterministic backoff for transient read faults.

Real storage stacks retry flaky reads a small, bounded number of times
before surfacing the error.  :class:`RetryPolicy` reproduces that shape
deterministically: each retry charges an exponentially growing backoff
delay to the simulated cost model (so retried workloads *measure*
slower, exactly like a production histogram would show), and the policy
gives up after ``max_attempts`` total attempts.

Only :class:`~repro.errors.TransientIOError` is retried.  Checksum
failures are *not* transient — re-reading a rotted block returns the
same rotted bytes — so they bypass the policy entirely and flow into
the quarantine path (see ``docs/FAULTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.errors import InvalidOptionError, TransientIOError
from repro.storage.stats import (
    RETRY_ATTEMPTS,
    RETRY_EXHAUSTED,
    RETRY_SUCCESSES,
    Stage,
    Stats,
)

T = TypeVar("T")

#: Simulated microseconds the first retry sleeps (charges).
BACKOFF_US = 50.0
#: Growth factor of the backoff from one retry to the next.
MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts plus deterministic exponential backoff.

    ``max_attempts`` counts the first try: the default of 3 means one
    read plus up to two retries.  The *n*-th retry sleeps (charges)
    ``BACKOFF_US * MULTIPLIER**(n-1)`` simulated microseconds.
    """

    max_attempts: int = 3

    def validate(self) -> None:
        """Raise :class:`InvalidOptionError` on nonsensical settings."""
        if self.max_attempts < 1:
            raise InvalidOptionError(
                f"retry.max_attempts must be >= 1, got {self.max_attempts}")

    def call(self, fn: Callable[[], T], stats: Optional[Stats] = None,
             stage: Stage = Stage.IO) -> T:
        """Run ``fn``, retrying :class:`TransientIOError` up to the cap.

        Backoff delays are charged to ``stats`` under ``stage`` so the
        latency cost of flaky hardware shows up in the simulated
        breakdown.  The final failure re-raises the last transient
        error unchanged.
        """
        delay = BACKOFF_US
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = fn()
            except TransientIOError:
                if stats is not None:
                    stats.add(RETRY_ATTEMPTS)
                if attempt == self.max_attempts:
                    if stats is not None:
                        stats.add(RETRY_EXHAUSTED)
                    raise
                if stats is not None:
                    stats.charge(stage, delay)
                delay *= MULTIPLIER
            else:
                if attempt > 1 and stats is not None:
                    stats.add(RETRY_SUCCESSES)
                return result
        raise AssertionError("unreachable")  # pragma: no cover


DEFAULT_RETRY_POLICY = RetryPolicy()
