"""Patient-feature statistics and Gaussian-mixture cohort clustering.

The EM fit runs from several seeded random initializations and keeps the one
with the highest final log-likelihood; within one run the log-likelihood is
non-decreasing up to floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import PatientRecord, logsumexp
from .errors import DataError, NumericError

COVARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class FeatureMatrix:
    """Patients x features matrix with no missing entries.

    Rows with any missing selected feature are excluded before construction;
    the exclusion count is kept so callers can report it.
    """

    patient_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray
    excluded_patients: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.patient_ids), len(self.feature_names)):
            raise DataError(
                f"feature matrix shape {self.values.shape} inconsistent with "
                f"{len(self.patient_ids)} patients x {len(self.feature_names)} features"
            )
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature matrix contains non-finite entries")


def build_feature_matrix(
    patients: list[PatientRecord] | tuple[PatientRecord, ...],
    feature_names: tuple[str, ...] | list[str],
    normalize: bool = True,
) -> FeatureMatrix:
    """Assemble the matrix, dropping patients with missing selected features.

    Normalization is z-score per column (population s.d.); a zero-variance
    column cannot be normalized and is rejected by name.
    """
    names = tuple(feature_names)
    kept_ids, rows, excluded = [], [], []
    for p in patients:
        row = [p.feature(n) for n in names]
        if any(v is None for v in row):
            excluded.append(p.patient_id)
            continue
        kept_ids.append(p.patient_id)
        rows.append(row)
    if not rows:
        raise DataError("no patient has all selected features present")
    values = np.asarray(rows, dtype=float)
    if normalize:
        sd = values.std(axis=0)
        for j, name in enumerate(names):
            if sd[j] == 0.0:
                raise DataError(f"feature {name!r} has zero variance, cannot normalize")
        values = (values - values.mean(axis=0)) / sd
    return FeatureMatrix(tuple(kept_ids), names, values, tuple(excluded))


def covariance_matrix(m: FeatureMatrix) -> np.ndarray:
    """Population covariance (divide by N); diagonal equals column variances."""
    if m.values.shape[0] < 2:
        raise DataError("covariance needs at least 2 rows")
    centered = m.values - m.values.mean(axis=0)
    return centered.T @ centered / m.values.shape[0]


def correlation_matrix(m: FeatureMatrix) -> np.ndarray:
    """Product-moment correlation; rejects zero-variance columns by name."""
    cov = covariance_matrix(m)
    sd = np.sqrt(np.diag(cov))
    for j, name in enumerate(m.feature_names):
        if sd[j] == 0.0:
            raise DataError(f"feature {name!r} has zero variance, correlation undefined")
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def variance_threshold(m: FeatureMatrix, tau: float) -> list[str]:
    """Features whose variance strictly exceeds tau, in input order."""
    variances = m.values.var(axis=0)
    return [name for name, v in zip(m.feature_names, variances) if v > tau]


@dataclass(frozen=True)
class GmmModel:
    """Full-covariance Gaussian mixture: weights, means, covariances."""

    k: int
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    final_log_likelihood: float
    per_point_log_likelihood: float
    n_iter: int
    seed: int
    log_likelihood_history: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "final_log_likelihood": self.final_log_likelihood,
            "per_point_log_likelihood": self.per_point_log_likelihood,
            "n_iter": self.n_iter,
            "seed": self.seed,
        }


def _log_gaussians(x: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Per-component log N(x | mean_k, cov_k); shape (n, k). Raises on non-SPD."""
    n, d = x.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        chol = np.linalg.cholesky(covs[j])  # LinAlgError propagates to caller
        diff = x - means[j]
        z = np.linalg.solve(chol, diff.T)
        maha = np.sum(z * z, axis=0)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha)
    return out


def gmm_responsibilities(
    x: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, float]:
    """E-step: posterior responsibilities and total log-likelihood."""
    log_prob = _log_gaussians(x, means, covs) + np.log(weights)
    norm = logsumexp(log_prob, axis=1)
    resp = np.exp(log_prob - norm[:, None])
    return resp, float(norm.sum())


def _em_single(
    x: np.ndarray, k: int, max_iter: int, tol: float, rng: np.random.Generator
) -> GmmModel | None:
    n, d = x.shape
    idx = rng.choice(n, size=k, replace=False)
    means = x[idx].copy()
    base_cov = np.cov(x, rowvar=False, bias=True).reshape(d, d) + COVARIANCE_FLOOR * np.eye(d)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)

    prev_ll = -np.inf
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        try:
            resp, ll = gmm_responsibilities(x, weights, means, covs)
        except np.linalg.LinAlgError:
            return None  # degenerate component; caller restarts this init
        history.append(ll)
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-12):
            return None
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        for j in range(k):
            diff = x - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            covs[j][np.diag_indices(d)] += COVARIANCE_FLOOR
        if ll - prev_ll < tol and n_iter > 1:
            prev_ll = ll
            break
        prev_ll = ll
    return GmmModel(
        k=k,
        weights=weights,
        means=means,
        covariances=covs,
        final_log_likelihood=prev_ll,
        per_point_log_likelihood=prev_ll / n,
        n_iter=n_iter,
        seed=-1,
        log_likelihood_history=tuple(history),
    )


def gmm_fit(
    m: FeatureMatrix,
    k: int = 3,
    n_init: int = 20,
    max_iter: int = 200,
    tol: float = 1e-6,
    seed: int = 42,
) -> GmmModel:
    """Fit by EM from n_init seeded initializations; keep the best run.

    Initialization draws component means from distinct data points, starts
    every covariance at the data covariance, and weights uniform. The winner
    is the run with the highest final log-likelihood (ties: lowest init
    index), so parallel execution of runs could not change the result.
    """
    x = m.values
    if x.shape[0] < k:
        raise DataError(f"need at least k={k} rows, got {x.shape[0]}")
    best: GmmModel | None = None
    for init_index in range(n_init):
        model = None
        for attempt in range(10):  # restart a degenerate init with a derived seed
            rng = np.random.default_rng([seed, init_index, attempt])
            model = _em_single(x, k, max_iter, tol, rng)
            if model is not None:
                break
        if model is None:
            continue
        if best is None or model.final_log_likelihood > best.final_log_likelihood:
            best = model
    if best is None:
        raise NumericError("every GMM initialization degenerated")
    return replace(best, seed=seed)


def gmm_assign(model: GmmModel, m: FeatureMatrix) -> np.ndarray:
    """Cohort label per patient: argmax responsibility, ties to the lowest index."""
    if m.values.shape[1] != model.means.shape[1]:
        raise DataError(
            f"feature dimension {m.values.shape[1]} does not match model "
            f"dimension {model.means.shape[1]}"
        )
    resp, _ = gmm_responsibilities(m.values, model.weights, model.means, model.covariances)
    return np.argmax(resp, axis=1)
