import numpy as np
import pytest

from glyco.baselines import copy_last, linreg_forecast
from glyco.errors import DataError
from glyco.metrics import second_difference_energy


def test_copy_last_repeats_final_value():
    values = np.concatenate([np.linspace(90, 120, 131), [150.0]])
    np.testing.assert_array_equal(copy_last(values), np.full(12, 150.0))


def test_copy_last_constant_input():
    np.testing.assert_array_equal(copy_last(np.full(132, 100.0)), np.full(12, 100.0))


def test_copy_last_empty_rejected():
    with pytest.raises(DataError):
        copy_last(np.array([]))


def test_copy_last_ignores_all_but_last():
    rng = np.random.default_rng(3)
    values = rng.uniform(60, 300, 132)
    shuffled = values.copy()
    rng.shuffle(shuffled[:-1])
    np.testing.assert_array_equal(copy_last(values), copy_last(shuffled))


def test_linreg_continues_exact_line():
    t = np.arange(132, dtype=float)
    values = 2.0 * t + 5.0
    predictions = linreg_forecast(values)
    expected = 2.0 * np.arange(132, 144) + 5.0
    np.testing.assert_allclose(predictions, expected, atol=1e-9)


def test_linreg_constant_input():
    np.testing.assert_allclose(linreg_forecast(np.full(132, 180.0)), np.full(12, 180.0), atol=1e-9)


def test_linreg_matches_closed_form_oracle():
    # line 0..131 with +1 bump on the final point, checked against an
    # independent normal-equations solve
    values = np.arange(132, dtype=float)
    values[-1] += 1.0
    t = np.arange(132, dtype=float)
    design = np.stack([np.ones_like(t), t], axis=1)
    intercept, slope = np.linalg.solve(design.T @ design, design.T @ values)
    predictions = linreg_forecast(values)
    expected = intercept + slope * np.arange(132, 144)
    np.testing.assert_allclose(predictions, expected, atol=1e-9)


def test_linreg_affine_equivariance():
    rng = np.random.default_rng(11)
    values = rng.uniform(70, 280, 132)
    base = linreg_forecast(values)
    scaled = linreg_forecast(3.5 * values + 40.0)
    np.testing.assert_allclose(scaled, 3.5 * base + 40.0, rtol=1e-10)


def test_linreg_needs_two_points():
    for values in (np.array([]), np.array([150.0]), np.empty((3, 1))):
        with pytest.raises(DataError):
            linreg_forecast(values)


def test_both_forecasts_have_zero_curvature():
    rng = np.random.default_rng(5)
    for _ in range(10):
        values = rng.uniform(60, 350, 132)
        assert second_difference_energy(copy_last(values)) == 0.0
        assert second_difference_energy(linreg_forecast(values)) < 1e-18


def test_forecaster_protocol():
    # Every forecaster maps input windows (n, T) to forecasts (n, horizon).
    inputs = np.stack([np.linspace(100, 140, 132), np.linspace(200, 90, 132)])
    for forecast_fn in (copy_last, linreg_forecast):
        out = forecast_fn(inputs, 12)
        assert out.shape == (2, 12)
        assert np.all(np.isfinite(out))
        for row, forecast in zip(inputs, out):
            np.testing.assert_array_equal(forecast, forecast_fn(row))


def test_linreg_batch_bit_identical_to_rows():
    rng = np.random.default_rng(8)
    inputs = rng.uniform(40, 400, (500, 132))
    batch = linreg_forecast(inputs)
    rows = np.stack([linreg_forecast(row) for row in inputs])
    assert np.array_equal(batch, rows)
    assert np.array_equal(linreg_forecast(np.asfortranarray(inputs)), rows)
