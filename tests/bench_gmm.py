"""Micro-benchmark of the GMM fit (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_gmm.py

Each case times one ``gmm_fit`` with the ``glyco cluster`` defaults (k = 3,
20 restarts, at most 200 EM iterations, seed 42). The 13- and 150-point
matrices are the normalized HbA1c and income of seeded synth patients, as
``cluster`` builds them; the 1,000-point matrix is three seeded Gaussian
blobs. The JSON's ``extra_info`` holds ms per fit and the EM iterations the
winning restart took.
"""

import numpy as np
import pytest

from glyco.ingest import synth_corpus
from glyco.stats import FeatureMatrix, build_feature_matrix, gmm_fit


def synth_patients(n):
    corpus = synth_corpus(n, 1, seed=3)
    return build_feature_matrix(corpus.patients, ("hba1c", "annual_income_usd"))


def blobs(n):
    rng = np.random.default_rng(11)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    points = centers[np.arange(n) % 3] + rng.normal(0.0, 1.0, (n, 2))
    return FeatureMatrix(tuple(f"p{i}" for i in range(n)), ("x", "y"), points)


@pytest.mark.parametrize("n_points", [13, 150, 1000])
def test_gmm_fit(benchmark, n_points):
    matrix = synth_patients(n_points) if n_points < 1000 else blobs(n_points)
    assert matrix.values.shape == (n_points, 2)
    model = benchmark(gmm_fit, matrix, k=3, n_init=20, max_iter=200, seed=42)
    assert np.isfinite(model.final_log_likelihood)
    benchmark.extra_info["n_iter"] = model.n_iter
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["ms_per_fit"] = benchmark.stats.stats.median * 1e3
