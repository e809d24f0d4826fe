"""End-to-end workflow steps shared by the CLI.

Every step writes its outputs through an OutputTracker so a failing run can
remove partial files, and embeds the resolved configuration in its reports.
All randomness is seeded; per-fold seeds are derived as seed + fold_index so
fold-level parallelism cannot change any result.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import baselines, hmm as hmm_mod, ingest, lstm as lstm_mod, metrics, pipeline, stats
from .config import RunConfig
from .core import PATIENT_NUMERIC_FEATURES, atomic_write, is_int
from .errors import ConfigError, DataError, FormatError, InvalidValueError, NumericError
from .ingest import Corpus

BASELINE_MODELS = ("copy_last", "linreg")
TRAINED_MODELS = ("lstm", "hmm")
ALL_MODELS = BASELINE_MODELS + TRAINED_MODELS


class OutputTracker:
    """Records the files a run creates so a failed run leaves none behind.

    A path that already exists when it is registered belongs to an earlier
    run and is never removed.
    """

    def __init__(self) -> None:
        self.paths: list[Path] = []

    def register(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            self.paths.append(path)
        return path

    def write_json(self, path: str | Path, obj) -> Path:
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # NaN or an infinity, which strict JSON has no words for
            raise NumericError(f"{path}: {exc}") from exc
        path = self.register(path)
        with atomic_write(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    def write_csv(self, path: str | Path, rows) -> Path:
        path = self.register(path)
        with atomic_write(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            for row in rows:
                writer.writerow(row)
        return path

    def cleanup(self) -> None:
        for path in self.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def load_corpus(cgm_path: str | Path, patients_path: str | Path | None = None) -> Corpus:
    corpus, _ = ingest.parse_cgm_csv(cgm_path)
    if patients_path is None:
        return corpus
    records, _ = ingest.parse_patient_csv(patients_path)
    return dataclasses.replace(corpus, patients=tuple(records))


def run_synth(
    tracker: OutputTracker,
    config: RunConfig,
    n_patients: int,
    days: int,
    out_cgm: str | Path,
    out_patients: str | Path | None,
) -> dict:
    corpus = ingest.synth_corpus(n_patients, days, config.seed)
    ingest.write_cgm_csv(corpus, tracker.register(out_cgm))
    if out_patients is not None:
        ingest.write_patient_csv(corpus.patients, tracker.register(out_patients))
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
    ingest.write_cgm_csv(corpus, tracker.register(out_dir / "corpus.csv"))
    reports = {"cgm": report.to_dict()}
    if patients_path is not None:
        patients, patient_report = ingest.parse_patient_csv(patients_path)
        ingest.write_patient_csv(patients, tracker.register(out_dir / "patients.csv"))
        reports["patients"] = patient_report.to_dict()
    tracker.write_json(out_dir / "ingest_report.json", {"config": config.to_dict(), **reports})
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
        "sequence_lengths": histogram.to_dict(),
    }

    profile = ingest.daily_profile(corpus)
    rows = [["slot", "time", "mean_mgdl", "sd_mgdl", "count"]]
    for slot, label, mean, sd, count in profile.rows():
        rows.append(
            [slot, label, "" if mean is None else repr(mean), "" if sd is None else repr(sd), count]
        )
    tracker.write_csv(out_dir / "daily_profile.csv", rows)

    if corpus.patients:
        raw = stats.build_feature_matrix(corpus.patients, PATIENT_NUMERIC_FEATURES, normalize=False)
        # constant columns cannot be normalized or correlated; keep the rest
        variances = raw.values.var(axis=0)
        usable = tuple(n for n, v in zip(raw.feature_names, variances) if v > 0.0)
        constant = [n for n, v in zip(raw.feature_names, variances) if v == 0.0]
        if not usable:
            raise DataError("every patient feature is constant; nothing to correlate")
        matrix = stats.build_feature_matrix(corpus.patients, usable)
        document["patient_features"] = {
            "feature_names": list(matrix.feature_names),
            "constant_features_excluded": constant,
            "patients_used": len(matrix.patient_ids),
            "patients_excluded": list(matrix.excluded_patients),
            "covariance": stats.covariance_matrix(matrix).tolist(),
            "correlation": stats.correlation_matrix(matrix).tolist(),
            "raw_variances": variances.tolist(),
            "variance_threshold": {
                "tau": variance_tau,
                "selected": stats.variance_threshold(raw, variance_tau),
            },
        }
    tracker.write_json(out_dir / "stats.json", document)
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
    return document


def read_cohorts(path: str | Path) -> dict[str, str]:
    """Patient-to-cohort labels from a cohorts CSV; rows without two cells are skipped.

    An unreadable file (bad header, undecodable text, an oversized field) is a
    FormatError, as for the other input CSVs.
    """
    assignments: dict[str, str] = {}
    handle, reader = ingest._open_rows(path, ["patient_id", "cohort"])
    with handle, ingest._typed_read_errors(Path(path), reader):
        for row in reader:
            if len(row) == 2 and row[0].strip():
                assignments[row[0].strip()] = row[1].strip()
    return assignments


def _cohort_pool(
    store: pipeline.SequenceStore, assignments: dict[str, str], cohort: str
) -> np.ndarray:
    """Per-sequence mask of the sequences whose patient is in the cohort."""
    keep = sorted(pid for pid, label in assignments.items() if label == cohort)
    pool = np.isin(store.patient_ids, np.array(keep, dtype=object))
    if not pool.any():
        raise DataError(f"cohort {cohort!r} has no sequences")
    return pool


def prepared_path(out_dir: str | Path, fold_index: int) -> Path:
    return Path(out_dir) / f"fold{fold_index}.gprep"


def _prepare_fold(
    config: RunConfig, store: pipeline.SequenceStore, fold: pipeline.FoldSplit, label: str
) -> pipeline.PreparedSet:
    """One fold's windows with the configured window lengths and steps."""
    return pipeline.prepare(
        store,
        fold,
        total=config.window_total,
        input_len=config.window_input,
        train_step=config.train_step,
        test_step=config.test_step,
        cohort_label=label,
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
    folds = pipeline.kfold_split(
        store, k=config.k_folds, seed=config.seed, total=config.window_total, pool=pool
    )
    fold_summaries = []
    for fold in folds:
        prepared = _prepare_fold(config, store, fold, label)
        pipeline.save_prepared(prepared, tracker.register(prepared_path(out_dir, fold.fold_index)))
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
        "sequences_total": histogram.total,
        "sequences_eligible": histogram.eligible_count,
        "eligible_fraction": histogram.eligible_fraction,
        "folds": fold_summaries,
    }
    tracker.write_json(out_dir / "prepare_report.json", document)
    return document


def load_fold(prepared_dir: str | Path, fold_index: int) -> pipeline.PreparedSet:
    """Fold i's prepared set from ``fold<i>.gprep``, whose provenance must name fold i."""
    path = prepared_path(prepared_dir, fold_index)
    if not path.exists():
        raise DataError(f"missing prepared fold file: {path}")
    prepared = pipeline.load_prepared(path)
    fold = prepared.provenance.get("fold")
    if not (is_int(fold) and fold == fold_index):
        raise FormatError(f"{path}: provenance fold is {fold!r}, expected {fold_index}")
    return prepared


def load_fold_sets(prepared_dir: str | Path, k_folds: int) -> list[pipeline.PreparedSet]:
    return [load_fold(prepared_dir, fold_index) for fold_index in range(k_folds)]


def model_path(out_dir: str | Path, model: str, fold_index: int | str) -> Path:
    """A trained model's file: ``<model>_fold<i>.<suffix>`` for fold i, or
    ``<model>_<tag>.<suffix>`` when given a cohort tag (a str)."""
    tag = fold_index if isinstance(fold_index, str) else f"fold{fold_index}"
    suffix = "glstm" if model == "lstm" else "json"
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
        result = lstm_mod.train(
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
            "best_epoch": result.best_epoch,
            "heuristic_rmse_mgdl": result.best.heuristic_rmse_mgdl,
        }
        lstm_mod.save_model(result.best.network, out, provenance=provenance)
        return provenance, list(result.curve_rows())
    if model == "hmm":
        # The quantizer bounds come from the windows, never from the stored
        # readings, which at step > total include readings no window uses.
        windows = prepared.windows("train")
        quantizer = hmm_mod.Quantizer.from_values(windows, config.hmm_states)
        hmodel = hmm_mod.baum_welch(
            quantizer.encode(windows),
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
    with atomic_write(out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(provenance, sort_keys=True) + "\n")
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
    jobs = []
    for fold_index in range(config.k_folds):
        prepared_file = prepared_path(prepared_dir, fold_index)
        if not prepared_file.exists():
            raise DataError(f"missing prepared fold file: {prepared_file}")
        out = tracker.register(model_path(out_dir, model, fold_index))
        jobs.append((config, model, str(prepared_dir), fold_index, str(out)))

    if config.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_train_job, jobs))
    else:
        results = [_train_job(job) for job in jobs]

    folds = []
    for fold_index, provenance, curve in sorted(results):
        if curve is not None:
            tracker.write_csv(out_dir / f"{model}_fold{fold_index}_curve.csv", curve)
        folds.append(provenance)
    document = {"config": config.to_dict(), "model": model, "folds": folds}
    tracker.write_json(out_dir / f"train_{model}_report.json", document)
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
    fold_sets = load_fold_sets(prepared_dir, config.k_folds)
    horizon = fold_sets[0].horizon
    protocol = {
        "k_folds": config.k_folds,
        "input_len": fold_sets[0].input_len,
        "horizon": horizon,
        "train_step": fold_sets[0].provenance.get("train_step"),
        "test_step": fold_sets[0].provenance.get("test_step"),
        "cohort": fold_sets[0].provenance.get("cohort", "all"),
        "hypo_mgdl": config.hypo_mgdl,
        "hyper_mgdl": config.hyper_mgdl,
        "error_grid": "clarke-zones",
        "aggregate_sd": "population s.d. across folds",
    }
    # Per position in models (a model may be listed twice), fold by fold.
    fold_metrics = [[] for _ in models]
    scatter_rows = [[["reference", "predicted"]] for _ in models]
    for fold_index, prepared in enumerate(fold_sets):
        # Gather the fold's test windows once, for every model.
        inputs, targets = prepared.gather("test")
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
    reports = []
    flat_rows = [["model", "fold", "metric", "value"]]
    for m, model in enumerate(models):
        report = metrics.EvalReport(model_name=model, folds=fold_metrics[m], protocol=protocol)
        reports.append(report)
        for fm in report.folds:
            flat_rows.append([model, fm.fold, "rmse", repr(fm.rmse)])
            if fm.esod_mean is not None:
                flat_rows.append([model, fm.fold, "esod", repr(fm.esod_mean)])
            for metric_name in ("precision", "recall", "f1"):
                value = fm.classification["abnormal"][metric_name]
                if value is not None:
                    flat_rows.append([model, fm.fold, metric_name, repr(value)])
        if scatter:
            tracker.write_csv(out_dir / f"scatter_{model}.csv", scatter_rows[m])

    document = {
        "config": config.to_dict(),
        "protocol": protocol,
        "models": [r.to_dict() for r in reports],
    }
    tracker.write_json(out_dir / "eval_report.json", document)
    tracker.write_csv(out_dir / "eval_flat.csv", flat_rows)
    return document


CONTAMINATION_WARNING = (
    "cohort-comparison caveat: cohort test folds are drawn independently of the "
    "pooled model's folds, so sequences used to train the pooled model can appear "
    "in cohort test sets"
)


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

    def prepare_for(pool: np.ndarray | None, label: str) -> pipeline.PreparedSet:
        folds = pipeline.kfold_split(
            store, k=config.k_folds, seed=config.seed, total=config.window_total, pool=pool
        )
        return _prepare_fold(config, store, folds[fold_index], label)

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

    pooled_prepared = prepare_for(None, "all")
    pooled = fitted(pooled_prepared, "all")
    pooled_rows = {"all": rmse_on(pooled, pooled_prepared)}
    comparison = []
    for label in cohort_labels:
        prepared = prepare_for(_cohort_pool(store, assignments, label), label)
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
        "warning": CONTAMINATION_WARNING,
    }
    tracker.write_json(out_dir / "cohort_compare.json", document)
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
    trace = lstm_mod.forget_trace(net, inputs, horizon=prepared.horizon)
    tracker.write_csv(out_path, trace.to_csv_rows())
    return {
        "model_provenance": provenance,
        "example_index": example_index,
        "split": split,
        "layers": trace.values.shape[0],
        "steps": trace.values.shape[1],
        "hidden": trace.values.shape[2],
    }
