"""Heuristic forecasters: copy-last and ordinary-least-squares line extrapolation.

Both produce forecasts whose second-order differences vanish identically, so
their curvature-energy ratio against any reference is 0 (or undefined). Both
work along the last axis, on one window (T,) or on a batch of windows (n, T).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def copy_last(values: np.ndarray | list[float], horizon: int = 12) -> np.ndarray:
    """Repeat the final observed value across the whole horizon."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise DataError("copy_last needs a non-empty input")
    return np.repeat(values[..., -1:], horizon, axis=-1)


def linreg_forecast(values: np.ndarray | list[float], horizon: int = 12) -> np.ndarray:
    """OLS line over all (index, value) points of the input, extrapolated.

    Closed-form slope/intercept; for an exactly linear input the
    extrapolation continues the line exactly.
    """
    # row-major, so each row reduces in the same order as a single window
    y = np.ascontiguousarray(values, dtype=float)
    n = y.shape[-1] if y.ndim else 0
    if n < 2:
        raise DataError(f"linreg_forecast needs at least 2 points, got {n}")
    t = np.arange(n, dtype=float)
    t_mean = t.mean()
    y_mean = y.mean(axis=-1, keepdims=True)
    denom = np.sum((t - t_mean) ** 2)
    slope = np.sum((t - t_mean) * (y - y_mean), axis=-1, keepdims=True) / denom
    intercept = y_mean - slope * t_mean
    future = np.arange(n, n + horizon, dtype=float)
    return intercept + slope * future

