"""End-to-end workflow steps shared by the CLI.

Each step stages its outputs in an OutputTracker and commits them, report
last, as its final act; a failed step leaves none of its own files. Each
step builds its reports and CSVs from the plain values the library returns
(curves, fold metric dicts, trace arrays). Reports embed the resolved
configuration. All randomness is seeded; per-fold seeds are seed +
fold_index so fold-level parallelism cannot change any result.

``synth`` and ``ingest`` stage each CGM CSV they write together with its
``<csv>.gcorpus`` sidecar, and ``stats``, ``prepare`` and cohort-compare load
a CGM CSV's corpus from that sidecar when it matches the CSV's bytes, parsing
the CSV otherwise (``ingest.load_cgm_corpus``). The sidecar changes no output
byte, and deleting it is always safe. ``ingest`` itself always parses its raw
input, since its report needs every row.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
import re
import shutil
import signal
from pathlib import Path

import numpy as np

from . import baselines, hmm as hmm_mod, ingest, lstm as lstm_mod, metrics, pipeline, stats
from .config import RunConfig
from .core import PATIENT_NUMERIC_FEATURES, is_int
from .errors import ConfigError, DataError, FormatError, InvalidValueError, NumericError
from .ingest import Corpus, read_cohorts

BASELINE_MODELS = ("copy_last", "linreg")
TRAINED_MODELS = ("lstm", "hmm")
ALL_MODELS = BASELINE_MODELS + TRAINED_MODELS


class OutputTracker:
    """Stages a step's outputs so that they appear together or not at all.

    ``register(path)`` names path's staged copy in ``.glyco-stage-<pid>/``
    beside it (a path registered twice is staged once). ``commit`` renames
    every staged file into place in registration order; ``cleanup`` removes
    the stage directories, so a failed step leaves earlier files as they were.
    """

    def __init__(self) -> None:
        self.staged: dict[Path, Path] = {}  # final path -> staged path

    def register(self, path: str | Path) -> Path:
        path = Path(path)
        if path not in self.staged:
            stage = path.parent / f".glyco-stage-{os.getpid()}"
            stage.mkdir(parents=True, exist_ok=True)
            self.staged[path] = stage / path.name
        return self.staged[path]

    def write_json(self, path: str | Path, obj) -> None:
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # NaN or an infinity, which strict JSON has no words for
            raise NumericError(f"{path}: {exc}") from exc
        self.register(path).write_text(text + "\n", encoding="utf-8")

    def write_csv(self, path: str | Path, rows) -> None:
        with self.register(path).open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)

    def commit(self) -> None:
        for path, staged in self.staged.items():
            os.replace(staged, path)
        self.cleanup()

    def cleanup(self) -> None:
        for stage in {staged.parent for staged in self.staged.values()}:
            shutil.rmtree(stage, ignore_errors=True)
        self.staged.clear()


def load_corpus(cgm_path: str | Path, patients_path: str | Path | None = None) -> Corpus:
    """The CGM corpus, from the CSV's ``.gcorpus`` sidecar when it matches the
    CSV's bytes (see ``ingest.load_cgm_corpus``), plus the patient records."""
    corpus = ingest.load_cgm_corpus(cgm_path)
    if patients_path is None:
        return corpus
    records, _ = ingest.parse_patient_csv(patients_path)
    return dataclasses.replace(corpus, patients=tuple(records))


def _write_cgm(tracker: OutputTracker, corpus: Corpus, path: str | Path) -> None:
    """Stage corpus as a CGM CSV at path and its ``.gcorpus`` sidecar beside it."""
    digest = ingest.write_cgm_csv(corpus, tracker.register(path))
    ingest.write_corpus_sidecar(corpus, digest, tracker.register(ingest.corpus_sidecar(path)))


def run_synth(
    tracker: OutputTracker,
    config: RunConfig,
    n_patients: int,
    days: int,
    out_cgm: str | Path,
    out_patients: str | Path | None,
) -> dict:
    corpus = ingest.synth_corpus(n_patients, days, config.seed)
    _write_cgm(tracker, corpus, out_cgm)
    if out_patients is not None:
        ingest.write_patient_csv(corpus.patients, tracker.register(out_patients))
    tracker.commit()
    return {"readings": len(corpus), "patients": len(corpus.patients)}


def run_ingest(
    tracker: OutputTracker,
    config: RunConfig,
    cgm_path: str | Path,
    patients_path: str | Path | None,
    out_dir: str | Path,
    max_malformed_fraction: float = 0.01,
) -> dict:
    out_dir = Path(out_dir)
    corpus, report = ingest.parse_cgm_csv(cgm_path, max_malformed_fraction)
    _write_cgm(tracker, corpus, out_dir / "corpus.csv")
    reports = {"cgm": report.to_dict()}
    if patients_path is not None:
        patients, patient_report = ingest.parse_patient_csv(patients_path)
        ingest.write_patient_csv(patients, tracker.register(out_dir / "patients.csv"))
        reports["patients"] = patient_report.to_dict()
    tracker.write_json(out_dir / "ingest_report.json", {"config": config.to_dict(), **reports})
    tracker.commit()
    return reports


def run_stats(
    tracker: OutputTracker,
    config: RunConfig,
    cgm_path: str | Path,
    patients_path: str | Path | None,
    out_dir: str | Path,
    variance_tau: float = 0.0,
) -> dict:
    if not math.isfinite(variance_tau):
        raise InvalidValueError(f"variance_tau must be finite, got {variance_tau}")
    out_dir = Path(out_dir)
    corpus = load_corpus(cgm_path, patients_path)
    store = pipeline.segment(corpus, config.max_gap_s)
    histogram = ingest.sequence_length_histogram(store.lengths, threshold=config.window_total)
    document: dict = {
        "config": config.to_dict(),
        "corpus": ingest.corpus_stats(corpus),
        "sequence_lengths": histogram,
    }

    rows = [["slot", "time", "mean_mgdl", "sd_mgdl", "count"]]
    for slot, (mean, sd, count) in enumerate(ingest.daily_profile(corpus)):
        hours, minutes = divmod(slot * 5, 60)
        cells = ["" if value is None else repr(value) for value in (mean, sd)]
        rows.append([slot, f"{hours:02d}:{minutes:02d}", *cells, count])
    tracker.write_csv(out_dir / "daily_profile.csv", rows)

    if corpus.patients:
        # Every number below covers one patient set: the patients with all the features.
        raw = stats.build_feature_matrix(corpus.patients, PATIENT_NUMERIC_FEATURES, normalize=False)
        kept = set(raw.patient_ids)
        complete = [p for p in corpus.patients if p.patient_id in kept]
        # constant columns cannot be normalized or correlated; keep the rest
        variances = raw.values.var(axis=0)
        usable = tuple(n for n, v in zip(raw.feature_names, variances) if v > 0.0)
        constant = [n for n, v in zip(raw.feature_names, variances) if v == 0.0]
        if not usable:
            raise DataError("every patient feature is constant; nothing to correlate")
        unscaled = stats.build_feature_matrix(complete, usable, normalize=False)
        matrix = stats.build_feature_matrix(complete, usable)
        document["patient_features"] = {
            "feature_names": list(matrix.feature_names),
            "constant_features_excluded": constant,
            "patients_used": len(matrix.patient_ids),
            "patients_excluded": list(raw.excluded_patients),
            "covariance": stats.covariance_matrix(unscaled).tolist(),
            "correlation": stats.correlation_matrix(matrix).tolist(),
            "raw_variances": variances.tolist(),
            "variance_threshold": {
                "tau": variance_tau,
                "selected": stats.variance_threshold(raw, variance_tau),
            },
        }
    tracker.write_json(out_dir / "stats.json", document)
    tracker.commit()
    return document


def run_cluster(
    tracker: OutputTracker,
    config: RunConfig,
    patients_path: str | Path,
    out_dir: str | Path,
) -> dict:
    out_dir = Path(out_dir)
    patients, _ = ingest.parse_patient_csv(patients_path)
    matrix = stats.build_feature_matrix(patients, config.cluster_feature_names)
    model = stats.gmm_fit(
        matrix,
        k=config.gmm_k,
        n_init=config.gmm_n_init,
        max_iter=config.gmm_max_iter,
        seed=config.seed,
    )
    labels = stats.gmm_assign(model, matrix)
    rows = [["patient_id", "cohort"]]
    rows += [[pid, int(label)] for pid, label in zip(matrix.patient_ids, labels)]
    tracker.write_csv(out_dir / "cohorts.csv", rows)
    document = {
        "config": config.to_dict(),
        "features": list(config.cluster_feature_names),
        "model": model.to_dict(),
        "cohort_sizes": {str(c): int(np.sum(labels == c)) for c in range(config.gmm_k)},
        "patients_excluded": list(matrix.excluded_patients),
    }
    tracker.write_json(out_dir / "gmm.json", document)
    tracker.commit()
    return document


def _cohort_pool(
    store: pipeline.SequenceStore, assignments: dict[str, str], cohort: str
) -> np.ndarray:
    """Per-sequence mask of the sequences whose patient is in the cohort."""
    keep = sorted(pid for pid, label in assignments.items() if label == cohort)
    pool = np.isin(store.patient_ids, np.array(keep, dtype=object))
    if not pool.any():
        raise DataError(f"cohort {cohort!r} has no sequences")
    return pool


def _cohort_fold(fold: pipeline.FoldSplit, pool: np.ndarray, cohort: str) -> pipeline.FoldSplit:
    """The pooled fold restricted to the cohort's sequences (see ``_cohort_pool``)."""
    members = frozenset(np.flatnonzero(pool).tolist())
    train, test = fold.train_sequence_ids & members, fold.test_sequence_ids & members
    if not (train and test):
        side = "test" if train else "train"
        raise DataError(f"cohort {cohort!r} has no {side} sequence in fold {fold.fold_index}")
    return pipeline.FoldSplit(fold.fold_index, train, test, fold.seed)


def prepared_path(out_dir: str | Path, fold_index: int) -> Path:
    return Path(out_dir) / f"fold{fold_index}.gprep"


def _prepare_fold(
    config: RunConfig,
    store: pipeline.SequenceStore,
    fold: pipeline.FoldSplit,
    label: str,
    readings: pipeline.ReadingStore | None = None,
) -> pipeline.PreparedSet:
    """One fold's windows with the configured window lengths and steps, over
    readings (the fold's own by default)."""
    return pipeline.prepare(
        store,
        fold,
        total=config.window_total,
        input_len=config.window_input,
        train_step=config.train_step,
        test_step=config.test_step,
        cohort_label=label,
        readings=readings,
    )


def run_prepare(
    tracker: OutputTracker,
    config: RunConfig,
    cgm_path: str | Path,
    out_dir: str | Path,
    cohorts_path: str | Path | None = None,
) -> dict:
    out_dir = Path(out_dir)
    corpus = load_corpus(cgm_path)
    store = pipeline.segment(corpus, config.max_gap_s)
    label, pool = config.cohort, None
    if label != "all":
        if cohorts_path is None:
            raise ConfigError("a cohort filter needs --cohorts (patient_id,cohort CSV)")
        pool = _cohort_pool(store, read_cohorts(cohorts_path), label)
    folds = pipeline.kfold_split(store, config.k_folds, config.seed, config.window_total)
    if pool is not None:
        folds = [_cohort_fold(fold, pool, label) for fold in folds]
    # Each reading is stored once per run, in fold 0; the other folds name it.
    readings = pipeline.run_store(
        store, folds, config.window_total, config.train_step, config.test_step
    )
    store_file = prepared_path(out_dir, 0).name
    fold_summaries = []
    for fold in folds:
        prepared = _prepare_fold(config, store, fold, label, readings)
        pipeline.save_prepared(
            prepared,
            tracker.register(prepared_path(out_dir, fold.fold_index)),
            store_file=None if fold.fold_index == 0 else store_file,
        )
        fold_summaries.append(
            {
                "fold": fold.fold_index,
                "train_examples": prepared.n_train,
                "test_examples": prepared.n_test,
                "train_sequences": len(fold.train_sequence_ids),
                "test_sequences": len(fold.test_sequence_ids),
            }
        )
    lengths = store.lengths if pool is None else store.lengths[pool]
    histogram = ingest.sequence_length_histogram(lengths, threshold=config.window_total)
    document = {
        "config": config.to_dict(),
        "cohort": label,
        "sequences_total": histogram["total_sequences"],
        "sequences_eligible": histogram["eligible_count"],
        "eligible_fraction": histogram["eligible_fraction"],
        "folds": fold_summaries,
    }
    tracker.write_json(out_dir / "prepare_report.json", document)
    tracker.commit()
    return document


def _fold_file(prepared_dir: str | Path, fold_index: int) -> Path:
    path = prepared_path(prepared_dir, fold_index)
    if not path.exists():
        raise DataError(f"missing prepared fold file: {path}")
    return path


def _named_fold(path: Path, fold_index: int, provenance: dict) -> dict:
    """The provenance of fold file path, which must name fold_index."""
    fold = provenance.get("fold")
    if not (is_int(fold) and fold == fold_index):
        raise FormatError(f"{path}: provenance fold is {fold!r}, expected {fold_index}")
    return provenance


def load_fold(prepared_dir: str | Path, fold_index: int) -> pipeline.PreparedSet:
    """Fold i's prepared set from ``fold<i>.gprep``, whose provenance must name fold i."""
    path = _fold_file(prepared_dir, fold_index)
    prepared = pipeline.load_prepared(path)
    _named_fold(path, fold_index, prepared.provenance)
    return prepared


def _check_one_prepare_run(prepared_dir: str | Path, k_folds: int) -> None:
    """One protocol per run: each fold file names its fold, its provenance
    equals fold 0's apart from ``fold``, and it names fold 0's store digest.
    Only the files' headers are read; each fold's load then checks the store's
    readings against that digest, so a corrupt store fails the first load."""
    headers = []
    for fold_index in range(k_folds):
        path = _fold_file(prepared_dir, fold_index)
        provenance, digest = pipeline.load_header(path)
        headers.append((_named_fold(path, fold_index, provenance), digest))
    first, first_digest = headers[0]
    for fold_index, (other, digest) in enumerate(headers[1:], start=1):
        path = prepared_path(prepared_dir, fold_index)
        for key in sorted((first.keys() | other.keys()) - {"fold"}):
            if key not in first or key not in other or first[key] != other[key]:
                raise FormatError(
                    f"{path}: provenance {key!r} is {other.get(key)!r}, "
                    f"fold 0's is {first.get(key)!r}"
                )
        if digest != first_digest:
            raise FormatError(f"{path}: store SHA-256 is {digest}, fold 0's is {first_digest}")


def model_path(out_dir: str | Path, model: str, fold_index: int | str) -> Path:
    """A trained model's file: ``<model>_fold<i>.<suffix>`` for fold i, or
    ``<model>_<tag>.<suffix>`` when given a cohort tag (a str)."""
    tag = fold_index if isinstance(fold_index, str) else f"fold{fold_index}"
    suffix = {"lstm": "glstm", "hmm": "ghmm"}.get(model, "json")
    return Path(out_dir) / f"{model}_{tag}.{suffix}"


def train_fold(
    config: RunConfig, model: str, prepared: pipeline.PreparedSet, out: Path
) -> tuple[dict, list | None]:
    """Fit one model on a prepared fold and save it to out.

    Returns the model's provenance and its training curve rows. A baseline
    has nothing to fit: out gets a provenance stub and the curve is None.
    """
    fold_index = prepared.provenance["fold"]
    seed = config.seed + fold_index
    if model == "lstm":
        net = lstm_mod.new_network(
            hidden_size=config.lstm_hidden, n_layers=config.lstm_layers, seed=seed
        )
        best, best_epoch, curve = lstm_mod.train(
            net,
            prepared,
            epochs=config.lstm_epochs,
            batch=config.lstm_batch,
            lr=config.lstm_lr,
            heuristic_test_n=config.lstm_heuristic_n,
            seed=seed,
            clip_norm=config.lstm_clip_norm,
            feedback=config.lstm_feedback,
        )
        provenance = {
            "model": "lstm",
            "fold": fold_index,
            "seed": seed,
            "epochs": config.lstm_epochs,
            "feedback": config.lstm_feedback,
            "best_epoch": best_epoch,
            "heuristic_rmse_mgdl": curve[best_epoch - 1][2],
        }
        lstm_mod.save_model(best, out, provenance=provenance)
        rows = [["epoch", "train_mse_scaled", "train_rmse_mgdl", "heuristic_rmse_mgdl"]]
        rows += [[epoch, *map(repr, row)] for epoch, row in enumerate(curve, start=1)]
        return provenance, rows
    if model == "hmm":
        # The quantizer bounds come from the windows, never from the stored
        # readings, which at step > total include readings no window uses.
        # The symbol rows are cut from the encoded readings, so no float
        # window outlives the bounds.
        quantizer = hmm_mod.Quantizer.from_values(prepared.windows("train"), config.hmm_states)
        hmodel = hmm_mod.baum_welch(
            prepared.windows("train", values=quantizer.encode(prepared.readings)),
            n_states=config.hmm_states,
            n_symbols=config.hmm_states,  # one observation symbol per state
            max_iter=config.hmm_max_iter,
            seed=seed,
        )
        hmm_mod.save_hmm(hmodel, quantizer, out)
        provenance = {
            "model": "hmm",
            "fold": fold_index,
            "seed": seed,
            "iterations": hmodel.trained_iterations,
            "final_log_likelihood": hmodel.final_log_likelihood,
        }
        curve = [["iteration", "total_log_likelihood"]]
        curve += [[i + 1, repr(v)] for i, v in enumerate(hmodel.log_likelihood_history)]
        return provenance, curve
    provenance = {"model": model, "fold": fold_index}
    out.write_text(json.dumps(provenance, sort_keys=True) + "\n", encoding="utf-8")
    return provenance, None


def _train_job(args: tuple) -> tuple[int, dict, list | None]:
    """Pool worker for fold-parallel training: (fold, provenance, curve)."""
    config, model, prepared_dir, fold_index, out_file = args
    prepared = load_fold(prepared_dir, fold_index)
    return (fold_index, *train_fold(config, model, prepared, Path(out_file)))


def run_train(
    tracker: OutputTracker,
    config: RunConfig,
    prepared_dir: str | Path,
    model: str,
    out_dir: str | Path,
) -> dict:
    if model not in ALL_MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {', '.join(ALL_MODELS)}")
    out_dir = Path(out_dir)
    _check_one_prepare_run(prepared_dir, config.k_folds)  # before any fold trains
    jobs = [
        (config, model, str(prepared_dir), i, str(tracker.register(model_path(out_dir, model, i))))
        for i in range(config.k_folds)
    ]

    if config.jobs > 1 and len(jobs) > 1:
        # Imported here: multiprocessing costs every other run memory and start time.
        from concurrent.futures import ProcessPoolExecutor

        # Ctrl-C reaches the whole process group: the workers ignore it, the parent acts.
        with ProcessPoolExecutor(max_workers=config.jobs, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            try:
                results = list(pool.map(_train_job, jobs))
            except BaseException:
                # Ctrl-C or a failed fold ends the run now: the running folds' workers
                # are ended (their partial files lie in the stage), so no queued fold
                # starts, and the pool's exit joins them. No public terminate before 3.14.
                for worker in pool._processes.values():
                    worker.terminate()
                raise
    else:
        results = [_train_job(job) for job in jobs]

    folds = []
    for fold_index, provenance, curve in sorted(results):
        if curve is not None:
            tracker.write_csv(out_dir / f"{model}_fold{fold_index}_curve.csv", curve)
        folds.append(provenance)
    document = {"config": config.to_dict(), "model": model, "folds": folds}
    tracker.write_json(out_dir / f"train_{model}_report.json", document)
    tracker.commit()
    return document


def load_forecaster(model: str, path: str | Path | None, horizon: int):
    """The model's forecast function, ``predict(inputs (n, T)) -> (n, horizon)``.

    A baseline needs no file; a trained model is loaded from path. The kernel
    is looked up on its module when this is called, so a wrapper installed
    there (a tracer, say) sees every prediction.
    """
    if model == "copy_last":
        return functools.partial(baselines.copy_last, horizon=horizon)
    if model == "linreg":
        return functools.partial(baselines.linreg_forecast, horizon=horizon)
    if path is None:
        raise ConfigError(f"model {model!r} needs --models-dir with trained fold models")
    if not Path(path).exists():
        raise DataError(f"missing trained model: {path}")
    if model == "lstm":
        net, _ = lstm_mod.load_model(path)
        return functools.partial(lstm_mod.rollout_batch, net, horizon=horizon)
    if model == "hmm":
        hmodel, quantizer = hmm_mod.load_hmm(path)
        return functools.partial(hmm_mod.hmm_forecast, hmodel, quantizer, horizon=horizon)
    raise ConfigError(f"unknown model {model!r}")


def run_evaluate(
    tracker: OutputTracker,
    config: RunConfig,
    prepared_dir: str | Path,
    models: list[str],
    models_dir: str | Path | None,
    out_dir: str | Path,
    scatter: bool = False,
) -> dict:
    if not models:
        raise ConfigError("evaluate needs at least one model")
    unknown = [m for m in models if m not in ALL_MODELS]
    if unknown:
        raise ConfigError(f"unknown models: {', '.join(unknown)}")
    out_dir = Path(out_dir)
    _check_one_prepare_run(prepared_dir, config.k_folds)
    # Per position in models (a model may be listed twice), fold by fold.
    fold_metrics = [[] for _ in models]
    scatter_rows = [[["reference", "predicted"]] for _ in models]
    for fold_index in range(config.k_folds):
        prepared = load_fold(prepared_dir, fold_index)
        if fold_index == 0:
            horizon = prepared.horizon
            protocol = {
                "k_folds": config.k_folds,
                "input_len": prepared.input_len,
                "horizon": horizon,
                "train_step": prepared.provenance.get("train_step"),
                "test_step": prepared.provenance.get("test_step"),
                "cohort": prepared.provenance.get("cohort", "all"),
                "hypo_mgdl": config.hypo_mgdl,
                "hyper_mgdl": config.hyper_mgdl,
                "error_grid": "clarke-zones",
                "aggregate_sd": "population s.d. across folds",
            }
        # Gather the fold's test windows once, for every model. The fold's
        # arrays are dropped before the next fold is read, so one fold's
        # windows are in memory at a time.
        inputs, targets = prepared.gather("test")
        del prepared
        for m, model in enumerate(models):
            path = None if models_dir is None else model_path(models_dir, model, fold_index)
            predictions = load_forecaster(model, path, horizon)(inputs)
            fold_metrics[m].append(
                metrics.score_pairs(
                    predictions, targets, fold_index, config.hypo_mgdl, config.hyper_mgdl
                )
            )
            if scatter:
                points = zip(targets.ravel().tolist(), predictions.ravel().tolist())
                scatter_rows[m].extend([repr(ref), repr(pred)] for ref, pred in points)
        del inputs, targets, predictions
    flat_rows = [["model", "fold", "metric", "value"]]
    for model, folds, points in zip(models, fold_metrics, scatter_rows):
        for fm in folds:
            flat_rows.append([model, fm["fold"], "rmse", repr(fm["rmse"])])
            if fm["esod_mean"] is not None:
                flat_rows.append([model, fm["fold"], "esod", repr(fm["esod_mean"])])
            for metric_name in ("precision", "recall", "f1"):
                value = fm["classification"]["abnormal"][metric_name]
                if value is not None:
                    flat_rows.append([model, fm["fold"], metric_name, repr(value)])
        if scatter:
            tracker.write_csv(out_dir / f"scatter_{model}.csv", points)

    document = {
        "config": config.to_dict(),
        "protocol": protocol,
        "models": [
            dict(model=model, protocol=protocol, folds=folds, aggregate=metrics.aggregate(folds))
            for model, folds in zip(models, fold_metrics)
        ],
    }
    tracker.write_csv(out_dir / "eval_flat.csv", flat_rows)
    tracker.write_json(out_dir / "eval_report.json", document)
    tracker.commit()
    return document


# Cohort labels become file names and report keys; "all" names the pooled model.
_COHORT_LABEL = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def run_cohort_compare(
    tracker: OutputTracker,
    config: RunConfig,
    cgm_path: str | Path,
    cohorts_path: str | Path,
    model: str,
    fold_index: int,
    out_dir: str | Path,
) -> dict:
    if model not in ALL_MODELS:
        raise ConfigError(f"unknown model {model!r}")
    if not (0 <= fold_index < config.k_folds):
        raise ConfigError(f"fold must be in [0, {config.k_folds})")
    out_dir = Path(out_dir)
    assignments = read_cohorts(cohorts_path)
    cohort_labels = sorted(set(assignments.values()))
    for label in cohort_labels:
        if label == "all" or not _COHORT_LABEL.fullmatch(label):
            raise DataError(
                f"cohort label {label!r} must be letters, digits, '_', '-' or '.', "
                "must not start with '.', and must not be 'all'"
            )
    corpus = load_corpus(cgm_path)
    store = pipeline.segment(corpus, config.max_gap_s)
    fold = pipeline.kfold_split(store, config.k_folds, config.seed, config.window_total)[fold_index]
    # Every cohort's fold is checked before anything trains.
    cohort_folds = {
        label: _cohort_fold(fold, _cohort_pool(store, assignments, label), label)
        for label in cohort_labels
    }

    def fitted(prepared: pipeline.PreparedSet, tag: str):
        """The forecaster trained on prepared and saved as <model>_<tag>; baselines fit nothing."""
        path = None
        if model in TRAINED_MODELS:
            path = tracker.register(model_path(out_dir, model, tag))
            train_fold(config, model, prepared, path)
        return load_forecaster(model, path, prepared.horizon)

    def rmse_on(predict, prepared: pipeline.PreparedSet) -> float:
        inputs, targets = prepared.gather("test")
        return metrics.rmse(predict(inputs), targets)

    pooled_prepared = _prepare_fold(config, store, fold, "all")
    pooled = fitted(pooled_prepared, "all")
    pooled_rows = {"all": rmse_on(pooled, pooled_prepared)}
    comparison = []
    for label, cohort_fold in cohort_folds.items():
        prepared = _prepare_fold(config, store, cohort_fold, label)
        cohort_rmse = rmse_on(fitted(prepared, label), prepared)
        pooled_rmse = rmse_on(pooled, prepared)
        pooled_rows[label] = pooled_rmse
        comparison.append(
            {
                "cohort": label,
                "n_test_examples": prepared.n_test,
                "cohort_model_rmse": cohort_rmse,
                "pooled_model_rmse": pooled_rmse,
                "difference": pooled_rmse - cohort_rmse,
            }
        )
    document = {
        "config": config.to_dict(),
        "model": model,
        "fold": fold_index,
        "pooled_model_rmse_by_testset": pooled_rows,
        "comparison": comparison,
    }
    tracker.write_json(out_dir / "cohort_compare.json", document)
    tracker.commit()
    return document


def run_explain(
    tracker: OutputTracker,
    config: RunConfig,
    model_file: str | Path,
    prepared_file: str | Path,
    example_index: int,
    out_path: str | Path,
    split: str = "test",
) -> dict:
    if split not in pipeline.SIDES:
        raise ConfigError(f"split must be train or test, got {split!r}")
    prepared = pipeline.load_prepared(prepared_file)
    n = prepared.n_train if split == "train" else prepared.n_test
    if not (0 <= example_index < n):
        raise DataError(
            f"example index {example_index} out of range for {split} set of {n} examples"
        )
    inputs, _ = prepared.gather(split, [example_index])
    net, provenance = lstm_mod.load_model(model_file)
    forget = lstm_mod.forget_trace(net, inputs, horizon=prepared.horizon)
    n_layers, n_steps, hidden = forget.shape
    rows = [["layer", "timestep", "phase"] + [f"unit{u}" for u in range(hidden)]]
    for layer in range(n_layers):
        for t in range(n_steps):
            # Steps before the window's length read it; later ones read fed-back predictions.
            phase = "observed" if t < inputs.shape[1] else "recursive"
            rows.append([layer, t, phase, *map(repr, forget[layer, t].tolist())])
    tracker.write_csv(out_path, rows)
    tracker.commit()
    return {
        "model_provenance": provenance,
        "example_index": example_index,
        "split": split,
        "layers": n_layers,
        "steps": n_steps,
        "hidden": hidden,
    }
