"""Micro-benchmark of the HMM kernels (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_hmm_kernel.py

All timings use the paper's shape, N = M = 100 with fixed seeds: one
Baum-Welch E-step over S sequences of 144 symbols (S = 12 and 512, one full
batch), and batched Viterbi over S rows of 132 symbols (S = 1, 24 and 128).
Divide a time by S for the per-sequence rate.
"""

import numpy as np
import pytest

from glyco.hmm import _e_step, _length_batches, _random_model, viterbi

N_STATES = 100
N_SYMBOLS = 100


@pytest.fixture(scope="module")
def model():
    return _random_model(N_STATES, N_SYMBOLS, np.random.default_rng(42))


@pytest.mark.parametrize("n_sequences", [12, 512])
def test_e_step(benchmark, model, n_sequences):
    rng = np.random.default_rng(n_sequences)
    sequences = list(rng.integers(0, N_SYMBOLS, size=(n_sequences, 144)))
    batches = _length_batches(sequences, N_SYMBOLS)
    log_likelihoods, *_ = benchmark(
        _e_step, model.initial, model.transition, model.emission, batches
    )
    assert np.all(np.isfinite(log_likelihoods))


@pytest.mark.parametrize("n_rows", [1, 24, 128])
def test_viterbi(benchmark, model, n_rows):
    symbols = np.random.default_rng(n_rows).integers(0, N_SYMBOLS, size=(n_rows, 132))
    paths, log_probs = benchmark(viterbi, model, symbols)
    assert paths.shape == (n_rows, 132) and np.all(np.isfinite(log_probs))
