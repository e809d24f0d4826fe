"""Smoke test of the benchmark at a tiny size, and unit tests of its checks.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics_spec  # noqa: E402
import run as bench_run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "desk_lstm": dict(patients=6, days=6, windows=256, lstm_epochs=2),
    "hmm_100": dict(patients=4, days=4, windows=8),
    "step1_data": dict(patients=8, days=4, windows=1500),
}


def tiny(name: str):
    sizes = dict(TINY[name])
    epochs = sizes.pop("lstm_epochs", None)
    workload = WORKLOADS[name]
    config = dict(workload.config, **({"lstm_epochs": epochs} if epochs else {}))
    return dataclasses.replace(workload, config=config, **sizes)


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return bench_run.execute(tiny(request.param), 3, 0.0, True, work, None)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    record, result, _ = bench_run.execute(tiny(name), 3, 0.0, False, tmp_path, None)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _ in metrics_spec.END_TO_END}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] > 0
        assert metric["unit"]
    for step_metric, steps in metrics_spec.STEP_METRICS:
        ran = all(s in WORKLOADS[name].steps for s in steps)
        assert (step_metric in record["report"]) == ran
    assert record["report"]["failed_frac"]["value"] == 0.0
    assert not list(tmp_path.iterdir()), "the run left its work directory behind"


def test_traced_run_emits_every_per_layer_metric(traced_run):
    record, result, _ = traced_run
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == {n for n, _ in metrics_spec.PER_LAYER}
    units = dict(metrics_spec.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


def test_trace_spans_nest(traced_run):
    _, _, run = traced_run
    spans = run.tracer.spans
    assert spans, "a traced pass recorded no spans"
    for span in spans:
        assert span.end_ns >= span.start_ns
        assert span.self_ns >= 0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
    for stats in run.tracer.stats.values():
        assert 0 <= stats.self_ns <= stats.total_ns


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics_spec.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics_spec.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hmm_100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_merge_keeps_parents_and_totals():
    first, second = Tracer(), Tracer()
    for tracer in (first, second):
        tracer.enabled = True
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    first.merge(second.to_dict())
    assert [s.parent for s in first.spans] == [None, 0, None, 2]
    assert first.stats["inner"].calls == 2


def _write_curve(path: Path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def test_log_likelihood_check_catches_a_fall(tmp_path):
    _write_curve(tmp_path / "hmm_fold0_curve.csv", ["iteration", "ll"], [[1, -100.0], [2, -90.0]])
    assert checks.log_likelihood_monotone(tmp_path, 1) is None
    _write_curve(tmp_path / "hmm_fold0_curve.csv", ["iteration", "ll"], [[1, -100.0], [2, -101.0]])
    assert "fell" in checks.log_likelihood_monotone(tmp_path, 1)


def test_lstm_training_check_catches_a_wrong_checkpoint(tmp_path):
    header = ["epoch", "train_mse_scaled", "train_rmse_mgdl", "heuristic_rmse_mgdl"]
    _write_curve(tmp_path / "lstm_fold0_curve.csv", header, [[1, 0.2, 1, 70.0], [2, 0.1, 1, 65.0]])
    doc = {"models": [{"model": "lstm", "folds": [{"fold": 0, "rmse": 65.0, "n_examples": 10}]}]}
    assert checks.lstm_training(tmp_path, doc, 1, 1000) is None
    doc["models"][0]["folds"][0]["rmse"] = 70.0
    assert "best checkpoint" in checks.lstm_training(tmp_path, doc, 1, 1000)
