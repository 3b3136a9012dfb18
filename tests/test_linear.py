"""Unit tests for the shared linear model and its two-point fit."""

import pytest

from repro.indexes.linear import LinearModel, fit_endpoints


def test_linear_predict_and_clamp():
    model = LinearModel(2.0, 1.0)
    assert model.predict(3.0) == 7.0
    assert model.predict_clamped(100, 10) == 9
    assert model.predict_clamped(-100, 10) == 0


def test_fit_endpoints_exact():
    model = fit_endpoints(10, 0, 20, 100)
    assert model.predict(10) == pytest.approx(0)
    assert model.predict(20) == pytest.approx(100)
    assert model.predict(15) == pytest.approx(50)


def test_fit_endpoints_degenerate_x():
    model = fit_endpoints(5, 0, 5, 10)
    assert model.slope == 0.0
    assert model.predict(5) == pytest.approx(5.0)
