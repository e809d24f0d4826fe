"""Correctness checks run from outside glyco on the files a pass wrote.

Each check returns None when it holds and a one-line reason when it fails.
The window checks segment the corpus CSV again with NumPy, independently of
glyco.pipeline.segment, and compare every prepared window with the corpus.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# EM never lowers the log-likelihood; allow float64 rounding of a ~1e5 total.
LL_REL_TOL = 1e-9
# The copy-last RMSE recomputed in NumPy sums in another order than glyco.
RMSE_REL_TOL = 1e-9
# Windows compared with the corpus per chunk, so the check adds little to peak RSS.
CHUNK_ROWS = 4096


def tree_digest(root: Path) -> tuple[str, dict[str, str]]:
    """SHA-256 of every file under root, and one digest over all of them."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        files[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    return combined, files


def source_digest(roots: list[Path]) -> str:
    """Digest of the Python sources that decide a run's outputs."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(path.as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def model_entry(eval_doc: dict, model: str) -> dict:
    for entry in eval_doc["models"]:
        if entry["model"] == model:
            return entry
    raise KeyError(f"model {model!r} missing from eval_report.json")


def aggregate_rmse(eval_doc: dict, model: str) -> float:
    return float(model_entry(eval_doc, model)["aggregate"]["rmse"]["mean"])


def pooled_rmse(eval_doc: dict, model: str) -> float:
    """RMSE over every test point of every fold, from per-fold RMSE and counts."""
    folds = model_entry(eval_doc, model)["folds"]
    total = sum(f["n_examples"] * f["rmse"] ** 2 for f in folds)
    return math.sqrt(total / sum(f["n_examples"] for f in folds))


def learning_margin(eval_doc: dict) -> float:
    """Pooled LSTM RMSE minus pooled copy-last RMSE: below 0 is the C08 learning signal."""
    return pooled_rmse(eval_doc, "lstm") - pooled_rmse(eval_doc, "copy_last")


def _read_curve(path: Path) -> list[list[float]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return [[float(cell) for cell in row] for row in list(csv.reader(handle))[1:]]


def lstm_training(models_dir: Path, eval_doc: dict, k_folds: int, heuristic_n: int) -> str | None:
    """Per fold: the training loss fell, and the evaluated model is the best checkpoint.

    The heuristic RMSE of an epoch covers the whole test set when it has at
    most heuristic_n windows, so the evaluated RMSE must equal the lowest
    heuristic RMSE in the curve.
    """
    folds = {f["fold"]: f for f in model_entry(eval_doc, "lstm")["folds"]}
    for fold in range(k_folds):
        curve = _read_curve(models_dir / f"lstm_fold{fold}_curve.csv")
        losses = [row[1] for row in curve]
        if not losses[-1] < losses[0]:
            return f"fold {fold}: training loss did not fall ({losses[0]!r} -> {losses[-1]!r})"
        best = min(row[3] for row in curve)
        if folds[fold]["n_examples"] <= heuristic_n and not math.isclose(
            folds[fold]["rmse"], best, rel_tol=RMSE_REL_TOL
        ):
            return f"fold {fold}: evaluated RMSE {folds[fold]['rmse']!r} is not the best checkpoint's {best!r}"
    return None


def log_likelihood_monotone(models_dir: Path, k_folds: int) -> str | None:
    for fold in range(k_folds):
        path = models_dir / f"hmm_fold{fold}_curve.csv"
        history = [row[1] for row in _read_curve(path)]
        if len(history) < 2:
            return f"fold {fold}: {len(history)} EM iterations, need at least 2"
        for i, (before, after) in enumerate(zip(history, history[1:])):
            if after < before - LL_REL_TOL * abs(before):
                return f"fold {fold}: log-likelihood fell at iteration {i + 2}: {before!r} -> {after!r}"
    return None


def segment_csv(path: Path, max_gap_s: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, sequence starts) of a sorted CGM CSV, split at gaps and patient changes."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        patients, stamps, values = zip(*reader)
    stamps = np.asarray(stamps, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    patients = np.asarray(patients)
    breaks = (patients[1:] != patients[:-1]) | (np.diff(stamps) > max_gap_s)
    starts = np.concatenate([[0], np.flatnonzero(breaks) + 1, [len(values)]])
    return values, starts


def _side_problem(side, seq_ids, offsets, inputs, targets, step, total, window_count,
                  values, starts) -> str | None:
    lengths = np.diff(starts)
    ids, counts = np.unique(seq_ids, return_counts=True)
    expected = np.array([window_count(int(lengths[i]), total, step) for i in ids], dtype=np.int64)
    if not np.array_equal(counts, expected):
        return f"{side}: per-sequence window counts differ from window_count"
    if inputs.shape[0] != int(expected.sum()):
        return f"{side}: {inputs.shape[0]} windows, window_count sums to {int(expected.sum())}"
    span = np.arange(total)
    for lo in range(0, inputs.shape[0], CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        rows = (starts[seq_ids[lo:hi]] + offsets[lo:hi])[:, None] + span
        window = np.concatenate([inputs[lo:hi], targets[lo:hi]], axis=1)
        if not np.array_equal(window, values[rows]):
            return f"{side}: window values differ from the corpus near row {lo}"
    return None


def prepared_windows(fold_files: list[Path], corpus_csv: Path, config) -> str | None:
    """Window counts, sequence-level disjointness and window contents of every fold."""
    from glyco import pipeline

    values, starts = segment_csv(corpus_csv, config.max_gap_s)
    eligible = set(np.flatnonzero(np.diff(starts) >= config.window_total).tolist())
    for path in fold_files:
        prepared = pipeline.load_prepared(path)
        fold = prepared.provenance["fold"]
        train_ids = set(np.unique(prepared.train_seq_ids).tolist())
        test_ids = set(np.unique(prepared.test_seq_ids).tolist())
        if train_ids & test_ids:
            return f"fold {fold}: sequences {sorted(train_ids & test_ids)[:5]} on both sides"
        if train_ids | test_ids != eligible:
            return f"fold {fold}: folds do not cover exactly the eligible sequences"
        for side, step in (("train", config.train_step), ("test", config.test_step)):
            problem = _side_problem(
                f"fold {fold} {side}",
                getattr(prepared, f"{side}_seq_ids"),
                getattr(prepared, f"{side}_offsets"),
                getattr(prepared, f"{side}_inputs"),
                getattr(prepared, f"{side}_targets"),
                step,
                config.window_total,
                pipeline.window_count,
                values,
                starts,
            )
            if problem:
                return problem
    return None


def copy_last_rmse(fold_files: list[Path], eval_doc: dict) -> str | None:
    """Per-fold and aggregate copy-last RMSE recomputed from the prepared arrays."""
    from glyco import pipeline

    folds = {f["fold"]: f["rmse"] for f in model_entry(eval_doc, "copy_last")["folds"]}
    recomputed = []
    for path in fold_files:
        prepared = pipeline.load_prepared(path)
        fold = prepared.provenance["fold"]
        err = prepared.test_targets - prepared.test_inputs[:, -1:]
        value = float(np.sqrt(np.mean(err * err)))
        recomputed.append(value)
        if not math.isclose(value, folds[fold], rel_tol=RMSE_REL_TOL):
            return f"fold {fold}: copy-last RMSE {folds[fold]!r}, NumPy gives {value!r}"
    mean = float(np.mean(recomputed))
    reported = aggregate_rmse(eval_doc, "copy_last")
    if not math.isclose(mean, reported, rel_tol=RMSE_REL_TOL):
        return f"aggregate copy-last RMSE {reported!r}, NumPy gives {mean!r}"
    return None


def finite(metrics: dict) -> str | None:
    bad = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    return f"non-finite metrics: {', '.join(bad)}" if bad else None
