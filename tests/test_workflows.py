import csv
import dataclasses
import json
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import edit_header, mutate, one_window_prepared, protocol_digests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco import hmm as hmm_mod, ingest, pipeline as pipeline_mod, workflows
from glyco.config import RunConfig
from glyco.core import PATIENT_NUMERIC_FEATURES
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
    _cohort_fold,
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


def test_stats_covariance_is_of_the_unscaled_features(workspace, tmp_path):
    """The covariance is of the usable features as read, not of their z-scores
    (which would repeat the correlation): its diagonal is their raw variances."""
    root, config = workspace
    document = run_stats(OutputTracker(), config, root / "cgm.csv", root / "patients.csv", tmp_path)
    features = document["patient_features"]
    assert features["patients_excluded"] == []  # so both cover the same patients
    raw = dict(zip(PATIENT_NUMERIC_FEATURES, features["raw_variances"]))
    want = [raw[name] for name in features["feature_names"]]
    np.testing.assert_allclose(np.diag(features["covariance"]), want, rtol=1e-12)


def test_stats_covers_one_patient_set(workspace, tmp_path):
    """With a feature missing for one patient, every patient_features number
    covers the patients that have every feature: here education_level is 3 for
    three patients, constant over them, and missing for the fourth."""
    root, config = workspace
    with (root / "patients.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("education_level")
    for row, level in zip(rows[1:], ["3", "3", "3", ""]):
        row[column] = level
    patients = tmp_path / "patients.csv"
    with patients.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    document = run_stats(OutputTracker(), config, root / "cgm.csv", patients, tmp_path / "out")
    features = document["patient_features"]
    assert features["constant_features_excluded"] == ["education_level"]
    assert features["patients_used"] == 3
    assert features["patients_excluded"] == [rows[4][0]]
    raw = dict(zip(PATIENT_NUMERIC_FEATURES, features["raw_variances"]))
    want = [raw[name] for name in features["feature_names"]]
    np.testing.assert_allclose(np.diag(features["covariance"]), want, rtol=1e-12)


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


def test_a_model_listed_twice_is_staged_once(workspace, tmp_path):
    # The second listing rewrites the same scatter file; it must be committed once.
    root, config = workspace
    for out, models in (("once", ["copy_last"]), ("twice", ["copy_last", "copy_last"])):
        run_evaluate(OutputTracker(), config, root / "prep", models, None, tmp_path / out,
                     scatter=True)
    once, twice = (tmp_path / "once", tmp_path / "twice")
    assert (twice / "scatter_copy_last.csv").read_bytes() == (
        once / "scatter_copy_last.csv"
    ).read_bytes()
    entries = {d: json.loads((d / "eval_report.json").read_text())["models"] for d in (once, twice)}
    assert entries[twice] == entries[once] * 2
    assert not list(tmp_path.rglob(".glyco-stage-*"))


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
    assert "warning" not in document

    # Each trained model is saved as <model>_<tag> and predicts, reloaded,
    # exactly the RMSE in the report.
    tags = ["all"] + [row["cohort"] for row in document["comparison"]]
    saved = {model_path(tmp_path / "cc", model, tag).name for tag in tags}
    written = {p.name for p in (tmp_path / "cc").iterdir()} - {"cohort_compare.json"}
    assert written == (saved if model in TRAINED_MODELS else set())
    store = segment(load_corpus(root / "cgm.csv"), config.max_gap_s)
    assignments = read_cohorts(cohorts)
    pooled = kfold_split(store, k=config.k_folds, seed=config.seed, total=config.window_total)[0]
    for tag in tags:
        fold = pooled if tag == "all" else _cohort_fold(
            pooled, _cohort_pool(store, assignments, tag), tag
        )
        prepared = _prepare_fold(config, store, fold, tag)
        inputs, targets = prepared.gather("test")
        path = model_path(tmp_path / "cc", model, tag) if model in TRAINED_MODELS else None
        predicted = load_forecaster(model, path, prepared.horizon)(inputs)
        expected = (
            document["pooled_model_rmse_by_testset"]["all"] if tag == "all" else
            next(r["cohort_model_rmse"] for r in document["comparison"] if r["cohort"] == tag)
        )
        assert rmse(predicted, targets) == expected


@pytest.fixture(scope="module")
def clustered(workspace, tmp_path_factory):
    """The workspace's cohorts file (from ``cluster``) and, per cohort label,
    the ids of the cohort's sequences."""
    root, config = workspace
    cohorts = tmp_path_factory.mktemp("clus") / "cohorts.csv"
    run_cluster(OutputTracker(), config, root / "patients.csv", cohorts.parent)
    assignments = read_cohorts(cohorts)
    store = segment(load_corpus(root / "cgm.csv"), config.max_gap_s)
    members = {
        label: {i for i, pid in enumerate(store.patient_ids) if assignments.get(pid) == label}
        for label in set(assignments.values())
    }
    assert len(members) > 1
    return cohorts, members


def test_cohort_compare_folds_nest_in_the_pooled_fold(workspace, clustered, tmp_path, monkeypatch):
    """For every fold, each cohort's test sequences lie on the pooled test side
    and its train sequences on the pooled train side: the pooled model never
    trained on a sequence it is scored on."""
    root, config = workspace
    cohorts, members = clustered
    seen = {}
    prepare_fold = workflows._prepare_fold

    def recording(config, store, fold, label):
        seen[label] = fold
        return prepare_fold(config, store, fold, label)

    monkeypatch.setattr(workflows, "_prepare_fold", recording)
    for fold_index in range(config.k_folds):
        seen.clear()
        run_cohort_compare(OutputTracker(), config, root / "cgm.csv", cohorts, "copy_last",
                           fold_index, tmp_path / "cc")
        pooled = seen.pop("all")
        assert set(seen) == set(members)
        for label, fold in seen.items():
            assert fold.fold_index == fold_index, label
            assert fold.test_sequence_ids and fold.train_sequence_ids, label
            assert fold.test_sequence_ids <= pooled.test_sequence_ids, (fold_index, label)
            assert fold.train_sequence_ids <= pooled.train_sequence_ids, (fold_index, label)


def test_prepare_cohort_holds_the_pooled_fold_restricted(workspace, clustered, tmp_path):
    """Each ``prepare --cohort`` fold file holds exactly the pooled fold file's
    sequence ids that belong to the cohort, side by side."""
    root, config = workspace
    cohorts, members = clustered
    for label, ids in sorted(members.items()):
        out = tmp_path / label
        run_prepare(OutputTracker(), dataclasses.replace(config, cohort=label), root / "cgm.csv",
                    out, cohorts)
        for fold_index in range(config.k_folds):
            pooled = load_prepared(prepared_path(root / "prep", fold_index))
            cohort = load_prepared(prepared_path(out, fold_index))
            assert cohort.provenance["cohort"] == label
            for side in pipeline_mod.SIDES:
                expected = set(getattr(pooled, side).seq_ids.tolist()) & ids
                assert expected, (label, fold_index, side)
                assert set(getattr(cohort, side).seq_ids.tolist()) == expected, (
                    label, fold_index, side
                )


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
    assert tracker.staged == {}
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
    expected = [["layer", "timestep", "phase"] + [f"unit{u}" for u in range(config.lstm_hidden)]]
    for layer, t in np.ndindex(trace.shape[:2]):
        phase = "observed" if t < prepared.input_len else "recursive"
        expected.append([str(layer), str(t), phase, *(repr(float(v)) for v in trace[layer, t])])
    with (tmp_path / "trace3.csv").open(newline="") as handle:
        assert list(csv.reader(handle)) == expected


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
    train_fold(config, "hmm", loaded, tmp_path / "hmm.ghmm")
    _, quantizer = load_hmm(tmp_path / "hmm.ghmm")
    windows = np.concatenate([loaded.train_inputs, loaded.train_targets], axis=1)
    assert windows.shape == (2, 144)
    assert (quantizer.lo, quantizer.hi) == (windows.min(), windows.max())
    assert quantizer.hi < 400.0


def test_hmm_training_enters_baum_welch_with_only_the_symbol_rows(monkeypatch, tmp_path):
    """At step 1 the float windows would double the traced memory at
    Baum-Welch entry; the symbol rows are cut from the encoded readings."""
    store = segment(synth_corpus(3, 3, seed=5))
    prepared = prepare(store, kfold_split(store, k=3, seed=5)[0], train_step=1, test_step=144)
    seen = {}
    fit = hmm_mod.baum_welch

    def traced_fit(symbols, *args, **kwargs):
        seen["traced"], _ = tracemalloc.get_traced_memory()
        seen["symbols"] = symbols.nbytes
        return fit(symbols, *args, **kwargs)

    monkeypatch.setattr(hmm_mod, "baum_welch", traced_fit)
    config = RunConfig(**{**SMALL, "hmm_states": 4, "hmm_max_iter": 1})
    tracemalloc.start()
    try:
        train_fold(config, "hmm", prepared, tmp_path / "hmm.ghmm")
    finally:
        tracemalloc.stop()
    assert seen["symbols"] == 8 * 144 * prepared.n_train > 1e6
    assert seen["traced"] < 1.5 * seen["symbols"], f"{seen['traced'] / seen['symbols']:.3f}x"


def test_evaluate_holds_one_folds_windows_at_a_time(tmp_path):
    """At test step 1 a fold's gathered test windows are most of what
    evaluate holds; fold k's arrays are dropped before fold k + 1 is read."""
    config = RunConfig(**{**SMALL, "k_folds": 2, "test_step": 1})
    tracker = OutputTracker()
    run_synth(tracker, config, 5, 5, tmp_path / "cgm.csv", tmp_path / "patients.csv")
    run_prepare(tracker, config, tmp_path / "cgm.csv", tmp_path / "prep")
    fold_bytes = []
    for fold_index in range(2):
        inputs, targets = load_prepared(prepared_path(tmp_path / "prep", fold_index)).gather("test")
        fold_bytes.append(inputs.nbytes + targets.nbytes)
    assert min(fold_bytes) > 1e6
    tracemalloc.start()
    try:
        run_evaluate(tracker, config, tmp_path / "prep", ["copy_last"], None, tmp_path / "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * max(fold_bytes), f"{peak / max(fold_bytes):.3f}x"


@pytest.mark.parametrize("k", [2, 5])
def test_prepare_stores_each_reading_once(tmp_path, k):
    """The payloads of a run's fold files sum to one copy of its store's
    readings, whatever the number of folds."""
    config = RunConfig(**{**SMALL, "k_folds": k, "train_step": 1})
    tracker = OutputTracker()
    run_synth(tracker, config, 6, 4, tmp_path / "cgm.csv", None)
    run_prepare(tracker, config, tmp_path / "cgm.csv", tmp_path / "prep")
    payload_bytes = 0
    for path in sorted((tmp_path / "prep").glob("*.gprep")):
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 12)
        payload_bytes += len(raw) - 16 - header_len
    readings = load_prepared(prepared_path(tmp_path / "prep", k - 1)).readings
    # At train step 1 the store is every eligible sequence whole.
    lengths = segment(load_corpus(tmp_path / "cgm.csv")).lengths
    assert len(readings) == lengths[lengths >= 144].sum()
    assert payload_bytes == 8 * len(readings)


def test_train_reads_each_fold_payload_once(workspace, monkeypatch, tmp_path):
    """The provenance check before training reads the fold files' headers
    only; each fold's file is then read once, to train it, and with it the
    run's store in fold 0 (fold 0 itself holds the store)."""
    root, config = workspace
    assert config.jobs == 1
    reads = []
    read_framed = pipeline_mod.read_framed

    def counted(path, *args):
        reads.append(Path(path).name)
        return read_framed(path, *args)

    monkeypatch.setattr(pipeline_mod, "read_framed", counted)
    run_train(OutputTracker(), config, root / "prep", "linreg", tmp_path / "models")
    folds = [f"fold{i}.gprep" for i in range(1, config.k_folds)]
    assert reads == ["fold0.gprep", *(name for fold in folds for name in (fold, "fold0.gprep"))]


def _tracked_csv(rows, path):
    """A step's CSV write: staged, then committed; a failure drops the stage."""
    tracker = OutputTracker()
    try:
        tracker.write_csv(path, rows)
    except BaseException:
        tracker.cleanup()
        raise
    tracker.commit()


SYNTH = synth_corpus(2, 1, seed=3)
CSV_WRITERS = {
    "tracker": (_tracked_csv, [["a", 1], ["b", 2]]),
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
    # The store's digest is cached, so the header is written before the
    # readings fail to convert.
    store = dataclasses.replace(prepared.store, readings=np.array(["x"] * 288, dtype=object))
    vars(store)["sha256"] = prepared.store.sha256
    broken = dataclasses.replace(prepared, store=store)
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
    tracker.write_json(tmp_path / "a" / "b.json", {"x": 1})
    (staged,) = (tmp_path / "a").glob(".glyco-stage-*/b.json")
    assert not (tmp_path / "a" / "b.json").exists()
    tracker.cleanup()
    assert not staged.exists() and list((tmp_path / "a").iterdir()) == []


def test_output_tracker_commit_moves_every_staged_file_into_place(tmp_path):
    (tmp_path / "b.json").write_text("an earlier run's report\n")
    tracker = OutputTracker()
    tracker.write_csv(tmp_path / "a" / "rows.csv", [["x", 1]])
    tracker.write_json(tmp_path / "b.json", {"x": 1})
    assert (tmp_path / "b.json").read_text() == "an earlier run's report\n"
    tracker.commit()
    assert tracker.staged == {}
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "a", "a/rows.csv", "b.json"
    ]
    assert (tmp_path / "a" / "rows.csv").read_text() == "x,1\n"
    assert json.loads((tmp_path / "b.json").read_text()) == {"x": 1}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    tracker = OutputTracker()
    with pytest.raises(NumericError):
        tracker.write_json(tmp_path / "a" / "b.json", {"x": [1.0, value]})
    assert tracker.staged == {} and not (tmp_path / "a").exists()


# -- the corpus sidecar may never change what stats and prepare write ------------

SIDECAR_CONFIG = RunConfig(k_folds=2, train_step=144, test_step=144, seed=5)


def _stats_and_prepare(cgm, out):
    """Digests of the files stats and prepare write for cgm, or the GlycoError they raise."""
    tracker = OutputTracker()
    try:
        run_stats(tracker, SIDECAR_CONFIG, cgm, None, out / "stats")
        run_prepare(tracker, SIDECAR_CONFIG, cgm, out / "prep")
    except GlycoError as exc:
        return type(exc).__name__, str(exc)
    finally:
        tracker.cleanup()
    return protocol_digests(out)


@pytest.fixture(scope="module")
def sidecar_run(tmp_path_factory):
    """A synth corpus's CSV and sidecar bytes, and the digests of what stats
    and prepare write for it without the sidecar."""
    root = tmp_path_factory.mktemp("sidecar")
    cgm, sidecar = root / "cgm.csv", root / "cgm.csv.gcorpus"
    run_synth(OutputTracker(), SIDECAR_CONFIG, 3, 2, cgm, None)
    csv_bytes, sidecar_bytes = cgm.read_bytes(), sidecar.read_bytes()
    sidecar.unlink()
    reference = _stats_and_prepare(cgm, root / "out")
    assert isinstance(reference, dict) and len(reference) == 5
    return csv_bytes, sidecar_bytes, reference


def test_stats_and_prepare_read_the_sidecar(tmp_path, monkeypatch, sidecar_run):
    csv_bytes, sidecar_bytes, reference = sidecar_run
    (tmp_path / "cgm.csv").write_bytes(csv_bytes)
    (tmp_path / "cgm.csv.gcorpus").write_bytes(sidecar_bytes)
    monkeypatch.setattr(ingest, "parse_cgm_csv", lambda *a: pytest.fail("the CSV was parsed"))
    assert _stats_and_prepare(tmp_path / "cgm.csv", tmp_path / "out") == reference


def _rename_a_patient(header):
    header["patients"][0][0] = "synth999"


def _move_a_reading(header):
    header["patients"][0][1] -= 1
    header["patients"][1][1] += 1


SIDECAR_HEADER_EDITS = [
    lambda h: h.update(csv_sha256="0" * 64),
    lambda h: h.update(sha256=h["csv_sha256"]),
    _rename_a_patient,
    _move_a_reading,
    lambda h: h["patients"].reverse(),
    lambda h: h.update(patients=None),
    lambda h: h.pop("patients"),
    lambda h: h.update(extra=1),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sidecar_fuzz_never_changes_stats_or_prepare(tmp_path, sidecar_run, data):
    """A truncated, bit-flipped or header-edited sidecar, or one beside an
    edited CSV: stats and prepare write the same bytes, or raise the same
    error, as with no sidecar, and never raise on account of the sidecar."""
    csv_bytes, sidecar_bytes, reference = sidecar_run
    base = tmp_path / "run"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir()
    cgm, sidecar = base / "cgm.csv", base / "cgm.csv.gcorpus"
    cgm.write_bytes(csv_bytes)
    sidecar.write_bytes(sidecar_bytes)
    edit = data.draw(st.sampled_from(["truncate", "flip", "header", "csv"]))
    if edit == "truncate":
        sidecar.write_bytes(sidecar_bytes[: data.draw(st.integers(0, len(sidecar_bytes) - 1))])
    elif edit == "flip":
        raw = bytearray(sidecar_bytes)
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        sidecar.write_bytes(bytes(raw))
    elif edit == "header":
        edit_header(sidecar, data.draw(st.sampled_from(SIDECAR_HEADER_EDITS)))
    else:
        cgm.write_bytes(mutate(data, csv_bytes))
    with_sidecar = _stats_and_prepare(cgm, base / "with")
    sidecar.unlink()
    assert with_sidecar == _stats_and_prepare(cgm, base / "without")
    if edit != "csv":
        assert with_sidecar == reference
