"""Micro-benchmark of the HMM kernels (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_hmm_kernel.py

All timings use the paper's shape, N = M = 100 with fixed seeds: one
Baum-Welch E-step over S rows of 144 symbols (S = 12 and 512, one full
slice), batched Viterbi over S rows of 132 symbols (S = 1, 12, 24 and 128; the
``hmm_100`` benchmark workload decodes 24 test windows over 2 folds, 13 and
11 at seed 1001, so 12 is about one fold's decode), and one ``save_hmm``
plus ``load_hmm`` of the model. Divide a time by S for the
per-sequence rate. Viterbi splits its rows over the usable cores, so its
times depend on the core count.
"""

import numpy as np
import pytest

from glyco.hmm import Quantizer, _e_step, _random_model, load_hmm, save_hmm, viterbi

N_STATES = 100
N_SYMBOLS = 100


@pytest.fixture(scope="module")
def model():
    return _random_model(N_STATES, N_SYMBOLS, np.random.default_rng(42))


@pytest.mark.parametrize("n_sequences", [12, 512])
def test_e_step(benchmark, model, n_sequences):
    rng = np.random.default_rng(n_sequences)
    symbols = rng.integers(0, N_SYMBOLS, size=(n_sequences, 144))
    log_likelihoods, *_ = benchmark(
        _e_step, model.initial, model.transition, model.emission, symbols
    )
    assert np.all(np.isfinite(log_likelihoods))


@pytest.mark.parametrize("n_rows", [1, 12, 24, 128])
def test_viterbi(benchmark, model, n_rows):
    symbols = np.random.default_rng(n_rows).integers(0, N_SYMBOLS, size=(n_rows, 132))
    paths, log_probs = benchmark(viterbi, model, symbols)
    assert paths.shape == (n_rows, 132) and np.all(np.isfinite(log_probs))


def test_save_and_load(benchmark, model, tmp_path):
    quantizer = Quantizer(N_SYMBOLS, 40.0, 400.0)
    path = tmp_path / "model.ghmm"

    def round_trip():
        save_hmm(model, quantizer, path)
        return load_hmm(path)

    loaded, loaded_quantizer = benchmark(round_trip)
    for name in ("initial", "transition", "emission"):
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
    assert loaded_quantizer == quantizer
