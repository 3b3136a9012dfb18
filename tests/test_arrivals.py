"""Open-loop arrival generator: determinism, rate, validation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.arrivals import PoissonArrivals


def test_poisson_deterministic():
    a = PoissonArrivals(rate_per_sec=10_000, seed=7).times(500)
    b = PoissonArrivals(rate_per_sec=10_000, seed=7).times(500)
    assert a == b
    assert PoissonArrivals(rate_per_sec=10_000, seed=8).times(500) != a


def test_poisson_monotone_and_positive():
    times = PoissonArrivals(rate_per_sec=50_000, seed=1).times(2_000)
    assert len(times) == 2_000
    assert times[0] > 0
    assert all(b > a for a, b in zip(times, times[1:]))


def test_poisson_mean_rate():
    rate = 20_000
    times = PoissonArrivals(rate_per_sec=rate, seed=3).times(5_000)
    measured = len(times) * 1e6 / times[-1]
    assert measured == pytest.approx(rate, rel=0.1)


def test_poisson_rejects_bad_rate():
    with pytest.raises(WorkloadError):
        PoissonArrivals(rate_per_sec=0).times(10)
    with pytest.raises(WorkloadError):
        PoissonArrivals(rate_per_sec=-5.0).times(10)
