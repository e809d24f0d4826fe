"""Micro-benchmark of prepared sets at step 1 (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_prepared.py --benchmark-json=out.json

One fold of a seeded synth corpus (14 patients x 10 days, about 35k
readings), prepared with train and test windows at step 1. The timings are
one ``save_prepared``, one ``load_prepared``, gathering a 128-row train
minibatch of (132, 12) windows, and cutting every train window's symbol row
from the encoded readings, as HMM training does. The JSON's ``extra_info``
holds the ``.gprep`` bytes per corpus reading and the gather and cut times
per window.

A whole ``prepare`` run (one store for every fold, held in ``fold0.gprep``)
is saved at k = 2 and k = 5; its ``extra_info`` holds the bytes of all its
``.gprep`` files per corpus reading. The last fold of each run is then
loaded, which reads the store from ``fold0.gprep`` and checks its SHA-256.
"""

import numpy as np
import pytest

from glyco.hmm import Quantizer
from glyco.ingest import synth_corpus
from glyco.pipeline import (
    kfold_split, load_prepared, prepare, run_store, save_prepared, segment,
)

BATCH = 128


@pytest.fixture(scope="module")
def store():
    return segment(synth_corpus(14, 10, seed=5))


@pytest.fixture(scope="module")
def prepared(store):
    return prepare(store, kfold_split(store, k=2, seed=5)[0], train_step=1, test_step=1)


def test_save_prepared(benchmark, tmp_path, store, prepared):
    path = tmp_path / "fold.gprep"
    benchmark(save_prepared, prepared, path)
    benchmark.extra_info["gprep_bytes_per_reading"] = path.stat().st_size / store.starts[-1]
    benchmark.extra_info["windows"] = prepared.n_train + prepared.n_test


def test_load_prepared(benchmark, tmp_path, prepared):
    path = tmp_path / "fold.gprep"
    save_prepared(prepared, path)
    loaded = benchmark(load_prepared, path)
    assert loaded.n_train == prepared.n_train


def save_run(store, k, directory):
    """Every fold of a k-fold run at step 1, as ``workflows.run_prepare`` writes them."""
    folds = kfold_split(store, k=k, seed=5)
    readings = run_store(store, folds)
    for fold in folds:
        i = fold.fold_index
        prepared = prepare(store, fold, train_step=1, test_step=1, readings=readings)
        save_prepared(prepared, directory / f"fold{i}.gprep",
                      store_file=None if i == 0 else "fold0.gprep")


@pytest.mark.parametrize("k", [2, 5])
def test_save_prepare_run(benchmark, tmp_path, store, k):
    benchmark(save_run, store, k, tmp_path)
    size = sum(path.stat().st_size for path in tmp_path.glob("*.gprep"))
    benchmark.extra_info["run_gprep_bytes_per_reading"] = size / store.starts[-1]


@pytest.mark.parametrize("k", [2, 5])
def test_load_last_fold_of_a_run(benchmark, tmp_path, store, k):
    save_run(store, k, tmp_path)
    loaded = benchmark(load_prepared, tmp_path / f"fold{k - 1}.gprep")
    assert loaded.provenance["fold"] == k - 1


def test_gather_minibatch(benchmark, prepared):
    rows = np.random.default_rng(0).permutation(prepared.n_train)[:BATCH]
    inputs, targets = benchmark(prepared.gather, "train", rows)
    assert inputs.shape == (BATCH, 132) and targets.shape == (BATCH, 12)
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_window"] = benchmark.stats.stats.median / BATCH * 1e6


def test_cut_hmm_symbols(benchmark, prepared):
    encoded = Quantizer.from_values(prepared.windows("train"), 100).encode(prepared.readings)
    symbols = benchmark(prepared.windows, "train", values=encoded)
    assert symbols.shape == (prepared.n_train, 144) and symbols.dtype == np.int64
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_window"] = benchmark.stats.stats.median / prepared.n_train * 1e6
