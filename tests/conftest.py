import numpy as np
import pytest

from glyco.ingest import synth_corpus
from glyco.pipeline import segment


@pytest.fixture(scope="session")
def small_corpus():
    """4 patients x 10 days, enough sequences for 5-fold splitting."""
    return synth_corpus(n_patients=4, days=10, seed=101)


@pytest.fixture(scope="session")
def small_store(small_corpus):
    return segment(small_corpus)


def one_window_prepared(train_windows, test_windows, input_len, provenance=None):
    """A prepared set in which each given window is its own one-window sequence;
    train windows are sequences 0.. in order, test windows follow them."""
    from glyco.pipeline import FoldSplit, SequenceStore, prepare

    windows = np.asarray([*train_windows, *test_windows], dtype=float)
    n, total = windows.shape
    store = SequenceStore(
        windows.ravel(), np.arange(n + 1) * total, np.full(n, "p", dtype=object)
    )
    n_train = len(train_windows)
    fold = FoldSplit(0, frozenset(range(n_train)), frozenset(range(n_train, n)), seed=0)
    prepared = prepare(store, fold, total=total, input_len=input_len)
    prepared.provenance.update(provenance or {})
    return prepared
