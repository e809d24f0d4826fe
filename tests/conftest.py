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
