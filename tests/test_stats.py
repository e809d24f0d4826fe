import itertools

import numpy as np
import pytest

from glyco.core import PatientRecord
from glyco.errors import DataError
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
