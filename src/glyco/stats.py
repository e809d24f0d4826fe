"""Patient-feature statistics and Gaussian-mixture cohort clustering.

The EM fit runs from several seeded random initializations and keeps the one
with the highest final log-likelihood; within one run the log-likelihood is
non-decreasing up to floating-point tolerance. The restarts are stepped
together along a leading run axis, and each run keeps the arithmetic it
would have alone, so its result does not depend on the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import PatientRecord, logsumexp
from .errors import DataError, NumericError

COVARIANCE_FLOOR = 1e-6
# Restarts stepped together hold at most this many k x n x d elements per array.
EM_BATCH_ELEMENTS = 2**15


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
    """Per-component log N(x | mean_k, cov_k) for means (..., k, d) and covs
    (..., k, d, d); a C-contiguous (..., n, k) array. Raises on non-SPD.

    The work runs in a (..., k, d, n) layout. The result is copied to C order
    because the M-step sums it over the points, and a transposed view would
    sum along a contiguous axis in another (pairwise) order.
    """
    d = x.shape[1]
    chol = np.linalg.cholesky(covs)  # LinAlgError propagates to caller
    # solve, not a triangular solve: gesv on these values keeps every bit.
    z = np.linalg.solve(chol, x.T - means[..., :, None])
    maha = np.sum(z * z, axis=-2)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    log_n = -0.5 * (d * np.log(2.0 * np.pi) + log_det[..., None] + maha)
    return np.ascontiguousarray(np.swapaxes(log_n, -1, -2))


def gmm_responsibilities(
    x: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray | np.float64]:
    """E-step: posterior responsibilities (..., n, k) and total log-likelihood.

    Leading axes of weights (..., k), means and covs stack independent runs;
    the log-likelihood has those axes (an ``np.float64`` for one run), and each
    run's numbers are the bits it would get alone.
    """
    log_prob = _log_gaussians(x, means, covs) + np.log(weights)[..., None, :]
    norm = logsumexp(log_prob, axis=-1)
    resp = np.exp(log_prob - norm[..., None])
    return resp, norm.sum(axis=-1)


def _e_step_fails(x: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> bool:
    try:
        gmm_responsibilities(x, weights, means, covs)
    except np.linalg.LinAlgError:
        return True
    return False


def _em_batch(
    x: np.ndarray, k: int, max_iter: int, tol: float, rngs: list[np.random.Generator]
) -> list[GmmModel | None]:
    """EM from one initialization per generator, all runs stepped in lockstep.

    Runs lie along a leading axis and each keeps the arithmetic it would have
    alone, so no run's bits depend on the others. A run leaves the batch at its
    convergence test (after that iteration's M-step), or as None when it
    degenerates: a covariance that is not SPD or a component with no weight.
    """
    n, d = x.shape
    means = np.stack([x[rng.choice(n, size=k, replace=False)] for rng in rngs])
    base_cov = np.cov(x, rowvar=False, bias=True).reshape(d, d) + COVARIANCE_FLOOR * np.eye(d)
    covs = np.tile(base_cov, (len(rngs), k, 1, 1))
    weights = np.full((len(rngs), k), 1.0 / k)

    results: list[GmmModel | None] = [None] * len(rngs)
    histories: list[list[float]] = [[] for _ in rngs]
    active = np.arange(len(rngs))  # run index of each row of the arrays
    prev_ll = np.full(len(rngs), -np.inf)
    diagonal = np.arange(d)

    def finish(rows: np.ndarray, n_iter: int) -> None:
        for row in np.flatnonzero(rows):
            ll = float(prev_ll[row])
            results[active[row]] = GmmModel(
                k=k,
                weights=weights[row].copy(),
                means=means[row].copy(),
                covariances=covs[row].copy(),
                final_log_likelihood=ll,
                per_point_log_likelihood=ll / n,
                n_iter=n_iter,
                seed=-1,
                log_likelihood_history=tuple(histories[active[row]]),
            )

    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        try:
            resp, ll = gmm_responsibilities(x, weights, means, covs)
        except np.linalg.LinAlgError:  # raised for the whole stack: drop the runs that fail
            keep = ~np.array([_e_step_fails(x, *run) for run in zip(weights, means, covs)])
            active, weights, means, covs, prev_ll = (
                a[keep] for a in (active, weights, means, covs, prev_ll)
            )
            if not active.size:
                break
            resp, ll = gmm_responsibilities(x, weights, means, covs)
        for run, value in zip(active, ll.tolist()):
            histories[run].append(value)
        nk = resp.sum(axis=-2)
        keep = ~np.any(nk < 1e-12, axis=-1)
        if not keep.all():
            active, resp, ll, nk, prev_ll = (a[keep] for a in (active, resp, ll, nk, prev_ll))
            if not active.size:
                break
        weights = nk / n
        resp_t = np.swapaxes(resp, -1, -2)
        means = (resp_t @ x) / nk[..., None]
        diff_t = x.T - means[..., None]
        weighted_t = resp_t[..., None, :] * diff_t
        # Same gemm as a lone run's weighted.T @ diff on C-ordered (n, d) operands.
        diff = np.ascontiguousarray(np.swapaxes(diff_t, -1, -2))
        weighted = np.ascontiguousarray(np.swapaxes(weighted_t, -1, -2))
        covs = np.swapaxes(weighted, -1, -2) @ diff / nk[..., None, None]
        covs[..., diagonal, diagonal] += COVARIANCE_FLOOR
        converged = (ll - prev_ll < tol) & (n_iter > 1)
        prev_ll = ll
        if converged.any():
            finish(converged, n_iter)
            keep = ~converged
            active, weights, means, covs, prev_ll = (
                a[keep] for a in (active, weights, means, covs, prev_ll)
            )
            if not active.size:
                break
    finish(np.ones(active.size, dtype=bool), n_iter)
    return results


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
    index). Runs are stepped together in groups of at most EM_BATCH_ELEMENTS
    / (k n d) runs; each run's numbers do not depend on its group, so neither
    does the result. A run that degenerates restarts from a derived seed,
    up to 10 attempts.
    """
    x = m.values
    n, d = x.shape
    if n < k:
        raise DataError(f"need at least k={k} rows, got {n}")
    group = max(1, EM_BATCH_ELEMENTS // (k * n * d))
    models: list[GmmModel | None] = [None] * n_init
    pending = list(range(n_init))
    for attempt in range(10):  # restart a degenerate init with a derived seed
        for lo in range(0, len(pending), group):
            inits = pending[lo : lo + group]
            rngs = [np.random.default_rng([seed, i, attempt]) for i in inits]
            for init_index, model in zip(inits, _em_batch(x, k, max_iter, tol, rngs)):
                models[init_index] = model
        pending = [i for i in pending if models[i] is None]
    best: GmmModel | None = None
    for model in models:
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
