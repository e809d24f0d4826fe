"""Micro-benchmark of CGM CSV ingest at about 300k rows (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_ingest.py --benchmark-json=out.json

The corpus is 100 patients x 3,000 five-minute readings with seeded values.
``parse`` runs on the clean CSV; on the same CSV with one conflicting repeat
of a key appended (resolved after the sort); and on the same rows with 0.1%
mixed anomalies inserted (``conftest.mix_anomalies``: malformed, blank,
quoted and out-of-range rows, repeated and conflicting keys), each flagged
row going through the row checker. ``write`` writes the parsed corpus.
``load`` reads the clean CSV's corpus through the sidecar that ``synth`` and
``ingest`` write beside it (hashing the CSV, then reading the sidecar), for
comparison with ``parse`` on the clean file. The JSON's ``extra_info`` holds
µs per row.
"""

import hashlib
import shutil

import numpy as np
import pytest
from conftest import mix_anomalies

from glyco.ingest import (
    corpus_sidecar, load_cgm_corpus, parse_cgm_csv, write_cgm_csv, write_corpus_sidecar,
)

PATIENTS, READINGS = 100, 3_000
ROWS = PATIENTS * READINGS


@pytest.fixture(scope="module")
def clean_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "clean.csv"
    rng = np.random.default_rng(0)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("patient_id,timestamp,glucose_mgdl\n")
        for p in range(PATIENTS):
            values = rng.uniform(40.0, 400.0, READINGS).tolist()
            handle.write("".join(f"pat{p:03d},{1_600_000_000 + 300 * i},{v!r}\n"
                                 for i, v in enumerate(values)))
    return path


@pytest.fixture(scope="module")
def conflict_csv(clean_csv):
    path = clean_csv.with_name("conflict.csv")
    path.write_text(clean_csv.read_text(encoding="utf-8") + "pat000,1600000000,55.5\n",
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def mixed_csv(clean_csv):
    path = clean_csv.with_name("mixed.csv")
    header, *lines = clean_csv.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *mix_anomalies(lines, 0.001, seed=1)]) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("which", ["clean", "conflict", "mixed"])
def test_parse_cgm_csv(benchmark, request, which):
    path = request.getfixturevalue(f"{which}_csv")
    corpus, report = benchmark(parse_cgm_csv, path)
    if which == "mixed":
        assert report.rejected and report.duplicates and report.conflicts
    else:
        assert len(corpus) == ROWS and report.conflicts == (which == "conflict")
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_row"] = benchmark.stats.stats.median / ROWS * 1e6


def test_write_cgm_csv(benchmark, tmp_path, clean_csv):
    corpus, _ = parse_cgm_csv(clean_csv)
    path = tmp_path / "out.csv"
    benchmark(write_cgm_csv, corpus, path)
    assert path.read_bytes() == clean_csv.read_bytes()
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_row"] = benchmark.stats.stats.median / ROWS * 1e6


def test_load_cgm_corpus_through_sidecar(benchmark, tmp_path, clean_csv):
    path = tmp_path / "kept.csv"
    shutil.copyfile(clean_csv, path)
    corpus, _ = parse_cgm_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    write_corpus_sidecar(corpus, digest, corpus_sidecar(path))
    loaded = benchmark(load_cgm_corpus, path)
    assert loaded.values.tobytes() == corpus.values.tobytes() and len(loaded) == ROWS
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_row"] = benchmark.stats.stats.median / ROWS * 1e6
