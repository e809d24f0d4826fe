import itertools
from dataclasses import replace

import numpy as np
import pytest

from glyco import stats
from glyco.core import PatientRecord, logsumexp
from glyco.errors import DataError, NumericError
from glyco.stats import (
    FeatureMatrix,
    GmmModel,
    build_feature_matrix,
    correlation_matrix,
    covariance_matrix,
    gmm_assign,
    gmm_fit,
    gmm_responsibilities,
    variance_threshold,
)


def matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"f{j}" for j in range(values.shape[1]))
    ids = tuple(f"p{i}" for i in range(values.shape[0]))
    return FeatureMatrix(ids, tuple(names), values)


def normalize(values):
    values = np.asarray(values, dtype=float)
    return (values - values.mean(axis=0)) / values.std(axis=0)


def blobs(seed=0, n=50, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    points = np.concatenate([rng.normal(c, spread, (n, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n)
    return matrix(points), labels


def permutation_purity(pred, truth, k):
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float(np.mean(mapped == truth)))
    return best


class TestBuildFeatureMatrix:
    def test_missing_rows_excluded(self):
        patients = [
            PatientRecord("a", hba1c=8.0, annual_income_usd=50_000.0),
            PatientRecord("b", hba1c=9.0),
            PatientRecord("c", hba1c=10.0, annual_income_usd=80_000.0),
        ]
        m = build_feature_matrix(patients, ("hba1c", "annual_income_usd"), normalize=False)
        assert m.patient_ids == ("a", "c")
        assert m.excluded_patients == ("b",)

    def test_normalized_columns(self):
        patients = [
            PatientRecord(f"p{i}", hba1c=float(i), annual_income_usd=1000.0 * i + 5)
            for i in range(10)
        ]
        m = build_feature_matrix(patients, ("hba1c", "annual_income_usd"))
        np.testing.assert_allclose(m.values.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(m.values.std(axis=0), 1.0, atol=1e-9)

    def test_zero_variance_rejected_by_name(self):
        patients = [PatientRecord(f"p{i}", hba1c=5.0, age=float(i)) for i in range(4)]
        with pytest.raises(DataError, match="hba1c"):
            build_feature_matrix(patients, ("hba1c", "age"))


class TestCovariance:
    def test_identical_columns(self):
        col = np.array([1.0, 4.0, 2.0, 7.0])
        cov = covariance_matrix(matrix(np.stack([col, col], axis=1)))
        assert cov[0, 1] == pytest.approx(cov[0, 0], abs=1e-12)

    def test_negated_column(self):
        col = np.array([1.0, 4.0, 2.0, 7.0])
        cov = covariance_matrix(matrix(np.stack([col, -col], axis=1)))
        assert cov[0, 1] == pytest.approx(-cov[0, 0], abs=1e-12)

    def test_diagonal_is_variance(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(30, 4))
        cov = covariance_matrix(matrix(values))
        np.testing.assert_allclose(np.diag(cov), values.var(axis=0), atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        cov = covariance_matrix(matrix(rng.normal(size=(20, 5))))
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            covariance_matrix(matrix([[1.0, 2.0]]))


class TestCorrelation:
    def test_proportional_columns_fully_correlated(self):
        values = normalize([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        corr = correlation_matrix(matrix(values))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated(self):
        corr = correlation_matrix(matrix([[1.0, -1.0], [2.0, -2.0], [5.0, -5.0]]))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_ones_and_bounds(self):
        rng = np.random.default_rng(4)
        corr = correlation_matrix(matrix(rng.normal(size=(40, 6))))
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(25, 3))
        base = correlation_matrix(matrix(values))
        rescaled = values.copy()
        rescaled[:, 1] = 7.5 * rescaled[:, 1] - 300.0
        moved = correlation_matrix(matrix(rescaled))
        np.testing.assert_allclose(moved, base, atol=1e-10)

    def test_zero_variance_named(self):
        with pytest.raises(DataError, match="f1"):
            correlation_matrix(matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))


class TestVarianceThreshold:
    def with_variances(self):
        # columns built to have population variances 0.5, 2.0, 0.1
        rng = np.random.default_rng(6)
        cols = []
        for target in (0.5, 2.0, 0.1):
            col = rng.normal(size=200)
            col = (col - col.mean()) / col.std() * np.sqrt(target)
            cols.append(col)
        return matrix(np.stack(cols, axis=1), names=("a", "b", "c"))

    def test_keep_all(self):
        m = self.with_variances()
        assert variance_threshold(m, -1.0) == ["a", "b", "c"]

    def test_keep_none(self):
        assert variance_threshold(self.with_variances(), float("inf")) == []

    def test_direct_rule(self):
        assert variance_threshold(self.with_variances(), 0.4) == ["a", "b"]


class TestGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(60, 2))
        m = matrix(values)
        model = gmm_fit(m, k=1, n_init=2, max_iter=50, seed=0)
        np.testing.assert_allclose(model.means[0], values.mean(axis=0), atol=1e-9)
        expected_cov = np.cov(values, rowvar=False, bias=True) + 1e-6 * np.eye(2)
        np.testing.assert_allclose(model.covariances[0], expected_cov, atol=1e-8)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_blob_purity(self):
        m, truth = blobs()
        model = gmm_fit(m, k=3, n_init=20, max_iter=200, seed=42)
        labels = gmm_assign(model, m)
        assert permutation_purity(labels, truth, 3) >= 0.99

    def test_deterministic(self):
        m, _ = blobs(seed=9)
        a = gmm_fit(m, k=3, n_init=5, max_iter=100, seed=3)
        b = gmm_fit(m, k=3, n_init=5, max_iter=100, seed=3)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.final_log_likelihood == b.final_log_likelihood

    def test_log_likelihood_monotone(self):
        m, _ = blobs(seed=11, spread=0.6)
        model = gmm_fit(m, k=3, n_init=4, max_iter=200, seed=5)
        history = np.array(model.log_likelihood_history)
        assert np.all(np.diff(history) >= -1e-8)

    def test_weights_sum_to_one_and_spd(self):
        m, _ = blobs(seed=12)
        model = gmm_fit(m, k=3, n_init=3, max_iter=100, seed=1)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        for cov in model.covariances:
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() > 0

    def test_responsibilities_sum_to_one(self):
        m, _ = blobs(seed=13)
        model = gmm_fit(m, k=3, n_init=3, max_iter=100, seed=2)
        resp, _ = gmm_responsibilities(m.values, model.weights, model.means, model.covariances)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_per_point_log_likelihood(self):
        m, _ = blobs(seed=14)
        model = gmm_fit(m, k=3, n_init=3, max_iter=100, seed=2)
        assert model.per_point_log_likelihood == pytest.approx(
            model.final_log_likelihood / m.values.shape[0]
        )

    def test_needs_k_rows(self):
        with pytest.raises(DataError):
            gmm_fit(matrix([[1.0, 2.0], [3.0, 4.0]]), k=3)


class TestGmmAssign:
    def manual_model(self):
        means = np.array([[0.0, 0.0], [4.0, 4.0]])
        covs = np.stack([np.eye(2), np.eye(2)])
        return GmmModel(
            k=2,
            weights=np.array([0.7, 0.3]),
            means=means,
            covariances=covs,
            final_log_likelihood=0.0,
            per_point_log_likelihood=0.0,
            n_iter=1,
            seed=0,
        )

    def test_point_at_dominant_mean(self):
        model = self.manual_model()
        m = matrix([[0.0, 0.0]])
        assert gmm_assign(model, m)[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        model = GmmModel(
            k=2,
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [0.0, 0.0]]),
            covariances=np.stack([np.eye(2), np.eye(2)]),
            final_log_likelihood=0.0,
            per_point_log_likelihood=0.0,
            n_iter=1,
            seed=0,
        )
        assert gmm_assign(model, matrix([[1.0, 2.0]]))[0] == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            gmm_assign(self.manual_model(), matrix([[1.0, 2.0, 3.0]]))

    def test_assignments_match_fit_purity(self):
        m, truth = blobs(seed=21)
        model = gmm_fit(m, k=3, n_init=10, max_iter=200, seed=8)
        labels = gmm_assign(model, m)
        assert permutation_purity(labels, truth, 3) >= 0.99


# Frozen reference EM: the one-run-at-a-time fit that the batched EM in
# glyco.stats replaced. Every restart of the batch must reproduce it bit for
# bit, since gmm.json and cohorts.csv are compared byte for byte across versions.


def ref_log_gaussians(x, means, covs):
    n, d = x.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        chol = np.linalg.cholesky(covs[j])
        diff = x - means[j]
        z = np.linalg.solve(chol, diff.T)
        maha = np.sum(z * z, axis=0)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha)
    return out


def ref_responsibilities(x, weights, means, covs):
    log_prob = ref_log_gaussians(x, means, covs) + np.log(weights)
    norm = logsumexp(log_prob, axis=1)
    resp = np.exp(log_prob - norm[:, None])
    return resp, float(norm.sum())


def ref_em_single(x, k, max_iter, tol, rng):
    n, d = x.shape
    idx = rng.choice(n, size=k, replace=False)
    means = x[idx].copy()
    base_cov = np.cov(x, rowvar=False, bias=True).reshape(d, d) + 1e-6 * np.eye(d)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)
    prev_ll = -np.inf
    history = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        try:
            resp, ll = ref_responsibilities(x, weights, means, covs)
        except np.linalg.LinAlgError:
            return None
        history.append(ll)
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-12):
            return None
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        for j in range(k):
            diff = x - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            covs[j][np.diag_indices(d)] += 1e-6
        if ll - prev_ll < tol and n_iter > 1:
            prev_ll = ll
            break
        prev_ll = ll
    return GmmModel(k, weights, means, covs, prev_ll, prev_ll / n, n_iter, -1, tuple(history))


def ref_gmm_fit(m, k, n_init, max_iter, seed, tol=1e-6):
    """The reference fit and the number of degenerate runs it restarted."""
    x = m.values
    best, restarts = None, 0
    for init_index in range(n_init):
        model = None
        for attempt in range(10):
            rng = np.random.default_rng([seed, init_index, attempt])
            model = ref_em_single(x, k, max_iter, tol, rng)
            if model is not None:
                break
            restarts += 1
        if model is None:
            continue
        if best is None or model.final_log_likelihood > best.final_log_likelihood:
            best = model
    if best is None:
        raise NumericError("every GMM initialization degenerated")
    return replace(best, seed=seed), restarts


def sweep_matrices():
    """Seeded shapes (n 3-60, d 1-4: Gaussian, blobs, scaled columns, rounded
    duplicates), then integer grids scaled by 1e6, where runs degenerate: a
    component loses every point, or a covariance stops being SPD."""
    for s in range(12):
        rng = np.random.default_rng(s)
        n, d = int(rng.integers(3, 60)), int(rng.integers(1, 5))
        kind = s % 4
        if kind == 0:
            values = rng.normal(size=(n, d))
        elif kind == 1:
            centers = rng.normal(0, 5, (3, d))
            values = centers[rng.integers(0, 3, n)] + rng.normal(0, 0.3, (n, d))
        elif kind == 2:
            values = rng.normal(size=(n, d)) * np.array([1.0, 100.0, 0.01, 1e3])[:d]
        else:
            values = np.round(rng.normal(size=(n, d)), 1)
        yield matrix(values)
    for s in range(6):
        rng = np.random.default_rng(100 + s)
        n, d = int(rng.integers(6, 20)), int(rng.integers(1, 3))
        yield matrix(rng.integers(0, 3, (n, d)) * 1e6)


def fit_bytes(model, m):
    return (
        repr(model.to_dict()),
        repr(model.log_likelihood_history),
        gmm_assign(model, m).tobytes(),
    )


class TestBatchedEm:
    def test_bit_identical_to_reference(self):
        def outcome(fit, *args, **kwargs):
            try:
                return fit(*args, **kwargs)
            except NumericError:
                return None

        restarts = 0
        for m in sweep_matrices():
            for k, seed in itertools.product((1, 2, 3, 5), (0, 7)):
                if k > m.values.shape[0]:
                    continue
                want = outcome(ref_gmm_fit, m, k, n_init=5, max_iter=30, seed=seed)
                got = outcome(gmm_fit, m, k=k, n_init=5, max_iter=30, seed=seed)
                if want is None:
                    assert got is None
                    continue
                want, ref_restarts = want
                assert fit_bytes(got, m) == fit_bytes(want, m)
                restarts += ref_restarts
        assert restarts > 0, "the sweep never exercised a degenerate restart"

    def test_every_init_degenerate_raises(self):
        m = matrix([[0.0, 0.0]] * 10 + [[1e6, 1e6]] * 10)
        with pytest.raises(NumericError, match="every GMM initialization degenerated"):
            ref_gmm_fit(m, k=3, n_init=20, max_iter=200, seed=42)
        with pytest.raises(NumericError, match="every GMM initialization degenerated"):
            gmm_fit(m, k=3)

    def test_stacked_responsibilities_equal_single_runs(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(37, 3))
        runs, k = 4, 3
        weights = rng.dirichlet(np.ones(k), size=runs)
        means = rng.normal(size=(runs, k, 3))
        factors = rng.normal(size=(runs, k, 3, 3))
        covs = factors @ np.swapaxes(factors, -1, -2) + 0.1 * np.eye(3)
        resp, ll = gmm_responsibilities(x, weights, means, covs)
        assert resp.shape == (runs, 37, k) and resp.flags.c_contiguous
        for r in range(runs):
            one_resp, one_ll = gmm_responsibilities(x, weights[r], means[r], covs[r])
            assert isinstance(one_ll, np.float64)
            assert one_resp.flags.c_contiguous
            assert resp[r].tobytes() == one_resp.tobytes()
            assert ll[r].tobytes() == one_ll.tobytes()
            ref_resp, ref_ll = ref_responsibilities(x, weights[r], means[r], covs[r])
            assert one_resp.tobytes() == ref_resp.tobytes() and float(one_ll) == ref_ll

    def test_result_does_not_depend_on_group_size(self, monkeypatch):
        m, _ = blobs(seed=3, spread=0.8)
        whole = gmm_fit(m, k=3, n_init=12, max_iter=100, seed=4)
        monkeypatch.setattr(stats, "EM_BATCH_ELEMENTS", 1)  # one run per group
        alone = gmm_fit(m, k=3, n_init=12, max_iter=100, seed=4)
        assert fit_bytes(alone, m) == fit_bytes(whole, m)
