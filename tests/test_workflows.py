import csv
import dataclasses
import json

import numpy as np
import pytest
from conftest import mutate, one_window_prepared
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco.config import RunConfig
from glyco.errors import ConfigError, DataError, GlycoError, NumericError
from glyco.hmm import load_hmm
from glyco.ingest import synth_corpus, write_cgm_csv, write_patient_csv
from glyco.lstm import forget_trace, load_model
from glyco.metrics import rmse
from glyco.pipeline import (
    FoldSplit,
    SequenceStore,
    kfold_split,
    load_prepared,
    prepare,
    save_prepared,
    segment,
)
from glyco.workflows import (
    ALL_MODELS,
    TRAINED_MODELS,
    OutputTracker,
    _cohort_pool,
    _prepare_fold,
    load_corpus,
    load_forecaster,
    model_path,
    prepared_path,
    read_cohorts,
    run_cluster,
    run_cohort_compare,
    run_evaluate,
    run_explain,
    run_ingest,
    run_prepare,
    run_stats,
    run_synth,
    run_train,
    train_fold,
)

SMALL = dict(k_folds=3, train_step=12, test_step=144, lstm_hidden=4, lstm_layers=2,
             lstm_epochs=2, lstm_batch=64, lstm_lr=0.01, lstm_heuristic_n=32,
             hmm_states=6, hmm_max_iter=4, gmm_n_init=4, gmm_max_iter=50, seed=11)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> prepare once for the whole module; commands under test reuse it."""
    root = tmp_path_factory.mktemp("ws")
    config = RunConfig(**SMALL)
    tracker = OutputTracker()
    run_synth(tracker, config, 4, 8, root / "cgm.csv", root / "patients.csv")
    run_prepare(tracker, config, root / "cgm.csv", root / "prep")
    return root, config


def test_synth_then_ingest_round_trip(tmp_path):
    config = RunConfig(**SMALL)
    tracker = OutputTracker()
    summary = run_synth(tracker, config, 2, 3, tmp_path / "cgm.csv", tmp_path / "patients.csv")
    assert summary["patients"] == 2
    report = run_ingest(tracker, config, tmp_path / "cgm.csv", tmp_path / "patients.csv", tmp_path / "out")
    assert report["cgm"]["rejected_count"] == 0
    assert (tmp_path / "out" / "corpus.csv").read_text() == (tmp_path / "cgm.csv").read_text()


def test_stats_document(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    document = run_stats(tracker, config, root / "cgm.csv", root / "patients.csv", tmp_path)
    assert set(document["corpus"]) == {"mean_mgdl", "sd_mgdl", "min_mgdl", "max_mgdl", "count"}
    assert document["config"]["seed"] == config.seed
    profile = (tmp_path / "daily_profile.csv").read_text().splitlines()
    assert profile[0] == "slot,time,mean_mgdl,sd_mgdl,count"
    assert len(profile) == 1 + 288
    names = document["patient_features"]["feature_names"]
    corr = np.asarray(document["patient_features"]["correlation"])
    assert corr.shape == (len(names), len(names))


def test_cluster_outputs(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    document = run_cluster(tracker, config, root / "patients.csv", tmp_path)
    assignments = read_cohorts(tmp_path / "cohorts.csv")
    assert len(assignments) == 4
    assert sum(document["cohort_sizes"].values()) == 4
    model = json.loads((tmp_path / "gmm.json").read_text())["model"]
    assert abs(sum(model["weights"]) - 1.0) < 1e-9


COHORTS_CSV = b"patient_id,cohort\np0,0\np1,1\np2,0\np3,2\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_cohorts_fuzz_raises_only_glyco_errors(tmp_path, data):
    """A mutated cohorts file reads as labels or raises a GlycoError."""
    path = tmp_path / "cohorts.csv"
    path.write_bytes(mutate(data, COHORTS_CSV))
    try:
        assignments = read_cohorts(path)
    except GlycoError:
        return
    assert all(isinstance(k, str) and k and isinstance(v, str) for k, v in assignments.items())


def test_prepare_fold_files(workspace):
    root, config = workspace
    report = json.loads((root / "prep" / "prepare_report.json").read_text())
    assert len(report["folds"]) == config.k_folds
    for fold in report["folds"]:
        assert fold["train_examples"] > 0 and fold["test_examples"] > 0
        assert (root / "prep" / f"fold{fold['fold']}.gprep").exists()


def test_train_and_evaluate_lstm(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    train_doc = run_train(tracker, config, root / "prep", "lstm", tmp_path / "models")
    assert len(train_doc["folds"]) == config.k_folds
    assert (tmp_path / "models" / "lstm_fold0_curve.csv").exists()

    eval_doc = run_evaluate(
        tracker, config, root / "prep", ["copy_last", "lstm"], tmp_path / "models",
        tmp_path / "eval", scatter=True,
    )
    assert [entry["model"] for entry in eval_doc["models"]] == ["copy_last", "lstm"]
    folds_per_model = [
        [f["fold"] for f in entry["folds"]] for entry in eval_doc["models"]
    ]
    assert folds_per_model[0] == folds_per_model[1]  # identical fold definitions
    scatter = (tmp_path / "eval" / "scatter_lstm.csv").read_text().splitlines()
    assert scatter[0] == "reference,predicted"


def test_train_hmm_and_baseline(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    run_train(tracker, config, root / "prep", "hmm", tmp_path / "models")
    run_train(tracker, config, root / "prep", "linreg", tmp_path / "models")
    eval_doc = run_evaluate(
        tracker, config, root / "prep", ["linreg", "hmm"], tmp_path / "models", tmp_path / "eval"
    )
    for entry in eval_doc["models"]:
        assert entry["aggregate"]["rmse"]["mean"] > 0


def test_jobs_parallelism_is_bit_identical(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    run_train(tracker, config, root / "prep", "lstm", tmp_path / "serial")
    parallel_config = RunConfig(**{**SMALL, "jobs": 2})
    run_train(tracker, parallel_config, root / "prep", "lstm", tmp_path / "parallel")
    for fold_index in range(config.k_folds):
        a = (tmp_path / "serial" / f"lstm_fold{fold_index}.glstm").read_bytes()
        b = (tmp_path / "parallel" / f"lstm_fold{fold_index}.glstm").read_bytes()
        assert a == b


def test_evaluate_linreg_with_non_positive_forecast(tmp_path):
    # a steep fall extrapolates below 0 mg/dL; the error grid still zones it
    falling = np.linspace(400.0, 20.0, 132)
    inputs = np.stack([falling, np.full(132, 120.0)])
    targets = np.stack([np.full(12, 40.0), np.linspace(110.0, 140.0, 12)])
    config = RunConfig(**{**SMALL, "k_folds": 2})
    (tmp_path / "prep").mkdir()
    for fold in range(2):
        prepared = one_window_prepared(
            [], np.concatenate([inputs, targets], axis=1), 132,
            {"fold": fold, "train_step": 1, "test_step": 1},
        )
        save_prepared(prepared, prepared_path(tmp_path / "prep", fold))
    document = run_evaluate(
        OutputTracker(), config, tmp_path / "prep", ["linreg"], None, tmp_path / "eval", scatter=True
    )
    scatter = np.loadtxt(tmp_path / "eval" / "scatter_linreg.csv", delimiter=",", skiprows=1)
    assert scatter[:, 1].min() <= 0.0
    for fold in document["models"][0]["folds"]:
        assert sum(fold["zone_proportions"].values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_cohort_compare_baseline(workspace, tmp_path, model):
    root, config = workspace
    tracker = OutputTracker()
    run_cluster(tracker, config, root / "patients.csv", tmp_path / "clus")
    cohorts = tmp_path / "clus" / "cohorts.csv"
    document = run_cohort_compare(
        tracker, config, root / "cgm.csv", cohorts, model, 0, tmp_path / "cc"
    )
    assert document["comparison"]
    for row in document["comparison"]:
        assert row["difference"] == pytest.approx(
            row["pooled_model_rmse"] - row["cohort_model_rmse"]
        )
    assert "warning" in document

    # Each trained model is saved as <model>_<tag> and predicts, reloaded,
    # exactly the RMSE in the report.
    tags = ["all"] + [row["cohort"] for row in document["comparison"]]
    saved = {model_path(tmp_path / "cc", model, tag).name for tag in tags}
    written = {p.name for p in (tmp_path / "cc").iterdir()} - {"cohort_compare.json"}
    assert written == (saved if model in TRAINED_MODELS else set())
    store = segment(load_corpus(root / "cgm.csv"), config.max_gap_s)
    assignments = read_cohorts(cohorts)
    for tag in tags:
        pool = None if tag == "all" else _cohort_pool(store, assignments, tag)
        folds = kfold_split(
            store, k=config.k_folds, seed=config.seed, total=config.window_total, pool=pool
        )
        prepared = _prepare_fold(config, store, folds[0], tag)
        inputs, targets = prepared.gather("test")
        path = model_path(tmp_path / "cc", model, tag) if model in TRAINED_MODELS else None
        predicted = load_forecaster(model, path, prepared.horizon)(inputs)
        expected = (
            document["pooled_model_rmse_by_testset"]["all"] if tag == "all" else
            next(r["cohort_model_rmse"] for r in document["comparison"] if r["cohort"] == tag)
        )
        assert rmse(predicted, targets) == expected


@pytest.mark.parametrize("label", ["", "all", "x/../../escaped", ".hidden"])
def test_cohort_compare_rejects_unsafe_labels_before_writing(workspace, tmp_path, label):
    root, config = workspace
    # Real patient ids, so the labels alone stop the run.
    cohorts = tmp_path / "cohorts.csv"
    rows = [f"synth{p:03d},{label if p == 0 else 'a'}\n" for p in range(4)]
    cohorts.write_text("patient_id,cohort\n" + "".join(rows))
    tracker = OutputTracker()
    with pytest.raises(DataError, match="cohort label"):
        run_cohort_compare(
            tracker, config, root / "cgm.csv", cohorts, "hmm", 0, tmp_path / "out" / "cc"
        )
    assert tracker.paths == []
    assert [p.name for p in tmp_path.rglob("*")] == ["cohorts.csv"]


def test_explain_trace(workspace, tmp_path):
    root, config = workspace
    tracker = OutputTracker()
    run_train(tracker, config, root / "prep", "lstm", tmp_path / "models")
    summary = run_explain(
        tracker, config, tmp_path / "models" / "lstm_fold0.glstm",
        root / "prep" / "fold0.gprep", 0, tmp_path / "trace.csv",
    )
    assert (summary["layers"], summary["hidden"]) == (config.lstm_layers, config.lstm_hidden)
    assert summary["steps"] == config.window_input + config.horizon - 1
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + config.lstm_layers * summary["steps"]

    with pytest.raises(DataError):
        run_explain(
            tracker, config, tmp_path / "models" / "lstm_fold0.glstm",
            root / "prep" / "fold0.gprep", 10_000, tmp_path / "trace2.csv",
        )

    # One train row: the trace is that row's rollout, gathered alone.
    prepared = load_prepared(root / "prep" / "fold0.gprep")
    last = prepared.n_train - 1
    run_explain(
        tracker, config, tmp_path / "models" / "lstm_fold0.glstm",
        root / "prep" / "fold0.gprep", last, tmp_path / "trace3.csv", split="train",
    )
    net, _ = load_model(tmp_path / "models" / "lstm_fold0.glstm")
    trace = forget_trace(net, prepared.train_inputs[last:], horizon=prepared.horizon)
    with (tmp_path / "trace3.csv").open(newline="") as handle:
        assert list(csv.reader(handle)) == [list(map(str, row)) for row in trace.to_csv_rows()]


def test_explain_rejects_a_bad_split_before_reading(tmp_path):
    # The prepared file does not exist: the split is checked first.
    with pytest.raises(ConfigError, match="split"):
        run_explain(
            OutputTracker(), RunConfig(**SMALL), tmp_path / "none.glstm",
            tmp_path / "none.gprep", 0, tmp_path / "trace.csv", split="validation",
        )


@pytest.mark.parametrize("step", [144, 200])
def test_hmm_quantizer_bounds_come_from_the_windows(tmp_path, step):
    # Readings no window uses are 400 mg/dL: at step 144 they trail the last
    # window and are left out of the payload; at step 200 they lie between
    # windows and are stored, yet must not set the quantizer bounds.
    rng = np.random.default_rng(4)
    train = np.full(step + 144 + 30, 400.0)
    train[:144] = rng.uniform(80, 180, 144)
    train[step : step + 144] = rng.uniform(80, 180, 144)
    test = rng.uniform(80, 180, 144)
    store = SequenceStore(
        np.concatenate([train, test]), np.array([0, len(train), len(train) + 144]),
        np.array(["a", "b"], dtype=object),
    )
    fold = FoldSplit(0, frozenset({0}), frozenset({1}), seed=0)
    prepared = prepare(store, fold, train_step=step, test_step=144)
    save_prepared(prepared, tmp_path / "fold.gprep")
    loaded = load_prepared(tmp_path / "fold.gprep")
    assert len(loaded.readings) == step + 144 + 144
    assert (400.0 in loaded.readings) == (step > 144)

    config = RunConfig(**{**SMALL, "hmm_states": 4, "hmm_max_iter": 2})
    train_fold(config, "hmm", loaded, tmp_path / "hmm.json")
    _, quantizer = load_hmm(tmp_path / "hmm.json")
    windows = np.concatenate([loaded.train_inputs, loaded.train_targets], axis=1)
    assert windows.shape == (2, 144)
    assert (quantizer.lo, quantizer.hi) == (windows.min(), windows.max())
    assert quantizer.hi < 400.0


SYNTH = synth_corpus(2, 1, seed=3)
CSV_WRITERS = {
    "tracker": (lambda rows, path: OutputTracker().write_csv(path, rows), [["a", 1], ["b", 2]]),
    "cgm": (write_cgm_csv, SYNTH.readings),
    "patients": (write_patient_csv, SYNTH.patients),
}


@pytest.mark.parametrize("writer", sorted(CSV_WRITERS))
def test_failed_rewrite_keeps_the_earlier_file(tmp_path, writer):
    write, items = CSV_WRITERS[writer]
    path = tmp_path / "rows.csv"
    write(items[:1], path)
    before = path.read_bytes()

    def rows():
        yield items[1]
        raise RuntimeError("failed midway")

    with pytest.raises(RuntimeError):
        write(rows(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_failed_prepared_rewrite_keeps_the_earlier_file(tmp_path):
    windows = np.arange(2 * 144, dtype=float).reshape(2, 144)
    prepared = one_window_prepared(windows[:1], windows[1:], 132)
    path = tmp_path / "fold.gprep"
    save_prepared(prepared, path)
    before = path.read_bytes()
    # The header is written before the readings fail to convert.
    broken = dataclasses.replace(prepared, readings=np.array(["x"] * 288, dtype=object))
    with pytest.raises(ValueError):
        save_prepared(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["fold.gprep"]


def test_load_forecaster_requires_models_dir():
    with pytest.raises(ConfigError, match="needs --models-dir"):
        load_forecaster("lstm", None, 12)


@pytest.mark.parametrize("models_dir", [None, "models"])
@pytest.mark.parametrize(
    "models, message", [(["copy_last", "arima"], "unknown models: arima"), ([], "at least one")]
)
def test_evaluate_rejects_unknown_models_before_reading_folds(
    tmp_path, models_dir, models, message
):
    # No prepared folds exist: the names are checked first.
    with pytest.raises(ConfigError, match=message):
        run_evaluate(
            OutputTracker(), RunConfig(**SMALL), tmp_path / "prep", models,
            None if models_dir is None else tmp_path / models_dir, tmp_path / "eval",
        )
    assert list(tmp_path.iterdir()) == []


def test_output_tracker_cleanup(tmp_path):
    tracker = OutputTracker()
    path = tracker.write_json(tmp_path / "a" / "b.json", {"x": 1})
    assert path.exists()
    tracker.cleanup()
    assert not path.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    tracker = OutputTracker()
    with pytest.raises(NumericError):
        tracker.write_json(tmp_path / "a" / "b.json", {"x": [1.0, value]})
    assert tracker.paths == [] and not (tmp_path / "a").exists()
