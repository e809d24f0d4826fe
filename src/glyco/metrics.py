"""Forecast quality metrics, per fold and aggregated across folds.

Classification thresholds put boundary values in the Normal class; the
positive class for precision/recall is "abnormal" (hypo or hyper). Curvature
fidelity is the ratio of second-difference energies between prediction and
reference: 1 matches the reference's curvature, 0 means a curvature-free
forecast, and a zero-curvature reference makes the ratio undefined: NaN in
the per-row ratios of ``esod_n``, None (never NaN) in reports.

Every metric takes ``(predicted, reference)`` arrays of shape (n, horizon),
one row per forecast window, with finite values. ``score_pairs`` returns one
fold's metrics as a dict and ``aggregate`` the across-fold block of a list of
them; the evaluate step builds its report from these dicts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, InvalidValueError

HYPO_MGDL = 70.0
HYPER_MGDL = 280.0


def _check_pairs(predicted, reference) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays as row-major float (n, h) of one shape, non-empty and finite.

    Row-major layout makes every per-row sum reduce in the same order as a
    sum over that row alone (a column-major batch would not).
    """
    p = np.ascontiguousarray(predicted, dtype=float)
    r = np.ascontiguousarray(reference, dtype=float)
    if p.ndim != 2 or p.shape != r.shape:
        raise InvalidValueError(
            f"predicted {p.shape} and reference {r.shape} must be (n, horizon) arrays of one shape"
        )
    if p.size == 0:
        raise DataError("metrics need at least one forecast point")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
        raise InvalidValueError("metrics need finite forecasts and references")
    return p, r


def rmse(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Root mean squared error pooled over every point of every row.

    Row sums of squares are accumulated left to right, so the result does not
    depend on how the rows were batched.
    """
    p, r = _check_pairs(predicted, reference)
    row_sums = np.sum((p - r) ** 2, axis=1)
    total = float(np.add.accumulate(row_sums)[-1])
    return math.sqrt(total / p.size)


def second_difference_energy(values: np.ndarray) -> np.ndarray | float:
    """Sum of squared second-order differences along the last axis."""
    v = np.asarray(values, dtype=float)
    dd = v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]
    return np.sum(dd * dd, axis=-1)


def esod_n(predicted: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-row second-difference energy of the prediction over that of the reference.

    NaN marks an undefined ratio (flat reference); horizons shorter than 3
    have no second differences at all and are rejected.
    """
    p, r = _check_pairs(predicted, reference)
    if p.shape[1] < 3:
        raise DataError(f"curvature ratio needs horizon >= 3, got {p.shape[1]}")
    numerator = second_difference_energy(p)
    denominator = second_difference_energy(r)
    defined = denominator != 0.0
    ratios = np.full(p.shape[0], np.nan)
    ratios[defined] = numerator[defined] / denominator[defined]
    return ratios


def _classes(values: np.ndarray, hypo: float, hyper: float) -> np.ndarray:
    """0 hypo (below ``hypo``), 1 normal (boundaries included), 2 hyper (above ``hyper``)."""
    return np.where(values < hypo, 0, np.where(values > hyper, 2, 1))


def _binary_scores(predicted_positive: np.ndarray, reference_positive: np.ndarray) -> dict:
    """Confusion counts and precision/recall/F1, None where a denominator is 0."""
    tp = int(np.count_nonzero(predicted_positive & reference_positive))
    fp = int(np.count_nonzero(predicted_positive)) - tp
    fn = int(np.count_nonzero(reference_positive)) - tp
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall != 0.0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": predicted_positive.size - tp - fp - fn,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def prf1(
    predicted: np.ndarray,
    reference: np.ndarray,
    hypo: float = HYPO_MGDL,
    hyper: float = HYPER_MGDL,
) -> dict:
    """Per-point precision/recall/F1 with positive = abnormal (hypo or hyper).

    Also emits a per-class breakdown where the positive class is hypo alone
    and hyper alone.
    """
    p, r = _check_pairs(predicted, reference)
    p_class = _classes(p, hypo, hyper)
    r_class = _classes(r, hypo, hyper)
    return {
        "abnormal": _binary_scores(p_class != 1, r_class != 1),
        "hypo": _binary_scores(p_class == 0, r_class == 0),
        "hyper": _binary_scores(p_class == 2, r_class == 2),
    }


def clarke_zones(predicted: np.ndarray, reference: np.ndarray) -> dict:
    """Zone A-E counts and proportions (summing to 1) over every point, mg/dL.

    Standard grid rules; the first rule that matches a point decides its
    zone. References must be positive; a prediction at or below 0 falls
    under the grid's ``p <= 70`` rules as written.
    """
    p, r = _check_pairs(predicted, reference)
    if np.any(r <= 0):
        raise InvalidValueError("error-grid reference values must be positive")
    rules = [
        (np.abs(r - p) <= 0.2 * r) | ((r <= 70) & (p <= 70)),
        ((r >= 180) & (p <= 70)) | ((r <= 70) & (p >= 180)),
        ((70 <= r) & (r <= 290) & (p >= r + 110)) | ((130 <= r) & (r <= 180) & (p <= 1.4 * r - 182)),
        ((r >= 240) & (70 <= p) & (p <= 180))
        | ((r <= 175 / 3) & (70 <= p) & (p <= 180))
        | ((175 / 3 <= r) & (r <= 70) & (p >= 1.2 * r)),
    ]
    zone = np.select(rules, [0, 4, 2, 3], default=1)
    counts = {z: int(c) for z, c in zip("ABCDE", np.bincount(zone.ravel(), minlength=5))}
    return {
        "counts": counts,
        "proportions": {z: counts[z] / p.size for z in "ABCDE"},
    }


def score_pairs(
    predicted: np.ndarray,
    reference: np.ndarray,
    fold: int,
    hypo: float = HYPO_MGDL,
    hyper: float = HYPER_MGDL,
) -> dict:
    """Every metric for one fold's (n, horizon) predictions and references."""
    ratios = esod_n(predicted, reference)
    defined = ratios[~np.isnan(ratios)]
    return {
        "fold": fold,
        "n_examples": len(ratios),
        "rmse": rmse(predicted, reference),
        "esod_mean": float(np.mean(defined)) if defined.size else None,
        "esod_defined": int(defined.size),
        "esod_undefined": len(ratios) - int(defined.size),
        "classification": prf1(predicted, reference, hypo, hyper),
        "zone_proportions": clarke_zones(predicted, reference)["proportions"],
    }


def aggregate(folds: list[dict]) -> dict:
    """Across-fold mean and population s.d. of ``score_pairs`` dicts: the RMSE,
    the mean curvature ratio and the abnormal-class precision, recall and F1.
    Folds where a metric is undefined (None) are left out of its mean and
    s.d., which are None when no fold defines it."""

    def mean_sd(values: list[float]) -> dict:
        if not values:
            return {"mean": None, "sd": None}
        arr = np.asarray(values, dtype=float)
        return {"mean": float(arr.mean()), "sd": float(arr.std())}

    esods = [f["esod_mean"] for f in folds if f["esod_mean"] is not None]
    out = {
        "rmse": mean_sd([f["rmse"] for f in folds]),
        "esod": mean_sd(esods),
        "esod_undefined_folds": len(folds) - len(esods),
    }
    for metric in ("precision", "recall", "f1"):
        values = [f["classification"]["abnormal"][metric] for f in folds]
        out[metric] = mean_sd([v for v in values if v is not None])
    return out
