"""Command-line front end.

Configuration precedence (lowest first): defaults, GLYCO_SEED, --config JSON
file, command-line flags. Failures print one machine-parsable JSON line on
stderr, remove the files the failed run created, and exit 2 (config), 3 (data,
including a file that cannot be read or written), or 4 (numeric).
"""

from __future__ import annotations

import functools
import json
import sys
from typing import NoReturn

import click

from . import workflows
from .clinical import BolusInputs, bolus as compute_bolus
from .config import resolve_config
from .core import mmoll_to_mgdl
from .errors import ConfigError, GlycoError, InvalidValueError, NumericError
from .workflows import ALL_MODELS, OutputTracker


def _exit_code(error: GlycoError | OSError) -> int:
    if isinstance(error, (ConfigError, InvalidValueError)):
        return 2
    if isinstance(error, NumericError):
        return 4
    return 3


def _fail(error: GlycoError | OSError) -> NoReturn:
    click.echo(json.dumps({"error": error.__class__.__name__, "message": str(error)}), err=True)
    sys.exit(_exit_code(error))


def _execute(config_path, overrides, step):
    try:
        config = resolve_config(config_path, overrides)
    except (GlycoError, OSError) as error:
        _fail(error)
    tracker = OutputTracker()
    try:
        summary = step(tracker, config)
    except BaseException as error:
        tracker.cleanup()  # on any failure, typed or not; an untyped one propagates as it is
        if not isinstance(error, (GlycoError, OSError)):
            raise
        _fail(error)
    if summary is not None:
        click.echo(json.dumps(summary, sort_keys=True))


def config_options(fn):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON config file; flags override its values.")
    @click.option("--seed", type=int, default=None, help="Random seed (default 42).")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@click.group()
def main():
    """Glucose forecasting experiments: data prep, training, evaluation."""


@main.command()
@config_options
@click.option("--patients", "n_patients", type=int, required=True, help="Number of patients.")
@click.option("--days", type=int, required=True, help="Days of readings per patient.")
@click.option("--out-cgm", type=click.Path(), default="synth_cgm.csv", show_default=True)
@click.option("--out-patients", type=click.Path(), default="synth_patients.csv", show_default=True)
def synth(config_path, seed, n_patients, days, out_cgm, out_patients):
    """Generate a deterministic synthetic corpus."""
    _execute(
        config_path,
        {"seed": seed},
        lambda tracker, config: {
            "out_cgm": out_cgm,
            "out_patients": out_patients,
            **workflows.run_synth(tracker, config, n_patients, days, out_cgm, out_patients),
        },
    )


@main.command()
@config_options
@click.option("--cgm", "cgm_path", type=click.Path(), required=True)
@click.option("--patients", "patients_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--max-malformed", type=float, default=0.01, show_default=True,
              help="Fraction of malformed rows, in [0, 1], tolerated before a hard error.")
def ingest(config_path, seed, cgm_path, patients_path, out_dir, max_malformed):
    """Parse raw CSVs into a canonical corpus cache."""
    _execute(
        config_path,
        {"seed": seed},
        lambda tracker, config: workflows.run_ingest(
            tracker, config, cgm_path, patients_path, out_dir, max_malformed
        )["cgm"],
    )


@main.command()
@config_options
@click.option("--cgm", "cgm_path", type=click.Path(), required=True)
@click.option("--patients", "patients_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--variance-tau", type=float, default=0.0, show_default=True)
@click.option("--max-gap-s", type=int, default=None)
def stats(config_path, seed, cgm_path, patients_path, out_dir, variance_tau, max_gap_s):
    """Corpus statistics, daily profile, and patient-feature matrices."""
    _execute(
        config_path,
        {"seed": seed, "max_gap_s": max_gap_s},
        lambda tracker, config: {
            "corpus": workflows.run_stats(
                tracker, config, cgm_path, patients_path, out_dir, variance_tau
            )["corpus"]
        },
    )


@main.command()
@config_options
@click.option("--patients", "patients_path", type=click.Path(), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--features", type=str, default=None,
              help="Comma-separated patient features (default hba1c,annual_income_usd).")
@click.option("--k", "gmm_k", type=int, default=None, help="Number of cohorts (default 3).")
def cluster(config_path, seed, patients_path, out_dir, features, gmm_k):
    """Cluster patients into cohorts with a Gaussian mixture."""
    _execute(
        config_path,
        {"seed": seed, "cluster_features": features, "gmm_k": gmm_k},
        lambda tracker, config: {
            "cohort_sizes": workflows.run_cluster(tracker, config, patients_path, out_dir)[
                "cohort_sizes"
            ]
        },
    )


@main.command()
@config_options
@click.option("--cgm", "cgm_path", type=click.Path(), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--cohorts", "cohorts_path", type=click.Path(), default=None)
@click.option("--cohort", type=str, default=None, help="Cohort label to keep (default all).")
@click.option("--folds", "k_folds", type=int, default=None)
@click.option("--train-step", type=int, default=None)
@click.option("--test-step", type=int, default=None)
@click.option("--max-gap-s", type=int, default=None)
def prepare(config_path, seed, cgm_path, out_dir, cohorts_path, cohort, k_folds,
            train_step, test_step, max_gap_s):
    """Segment, fold-split, and window the corpus into prepared sets."""
    overrides = {
        "seed": seed,
        "cohort": cohort,
        "k_folds": k_folds,
        "train_step": train_step,
        "test_step": test_step,
        "max_gap_s": max_gap_s,
    }
    _execute(
        config_path,
        overrides,
        lambda tracker, config: workflows.run_prepare(
            tracker, config, cgm_path, out_dir, cohorts_path
        ),
    )


@main.command()
@config_options
@click.option("--prepared-dir", type=click.Path(), required=True)
@click.option("--model", type=click.Choice(ALL_MODELS), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--folds", "k_folds", type=int, default=None)
@click.option("--epochs", "lstm_epochs", type=int, default=None)
@click.option("--batch", "lstm_batch", type=int, default=None)
@click.option("--lr", "lstm_lr", type=float, default=None)
@click.option("--hidden", "lstm_hidden", type=int, default=None)
@click.option("--layers", "lstm_layers", type=int, default=None)
@click.option("--feedback", "lstm_feedback", type=click.Choice(["recursive", "teacher"]),
              default=None)
@click.option("--hmm-states", type=int, default=None)
@click.option("--hmm-max-iter", type=int, default=None)
@click.option("--jobs", type=int, default=None, help="Folds trained in parallel.")
def train(config_path, seed, prepared_dir, model, out_dir, k_folds, lstm_epochs, lstm_batch,
          lstm_lr, lstm_hidden, lstm_layers, lstm_feedback, hmm_states, hmm_max_iter, jobs):
    """Train one model per prepared fold."""
    overrides = {
        "seed": seed,
        "k_folds": k_folds,
        "lstm_epochs": lstm_epochs,
        "lstm_batch": lstm_batch,
        "lstm_lr": lstm_lr,
        "lstm_hidden": lstm_hidden,
        "lstm_layers": lstm_layers,
        "lstm_feedback": lstm_feedback,
        "hmm_states": hmm_states,
        "hmm_max_iter": hmm_max_iter,
        "jobs": jobs,
    }
    _execute(
        config_path,
        overrides,
        lambda tracker, config: workflows.run_train(tracker, config, prepared_dir, model, out_dir),
    )


@main.command()
@config_options
@click.option("--mode", type=click.Choice(["standard", "cohort-compare"]), default="standard",
              show_default=True)
@click.option("--prepared-dir", type=click.Path(), default=None)
@click.option("--models", type=str, default="copy_last,linreg",
              help="Comma-separated model names to compare side by side.")
@click.option("--models-dir", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--scatter", is_flag=True, help="Export reference,predicted scatter CSVs.")
@click.option("--folds", "k_folds", type=int, default=None)
@click.option("--cgm", "cgm_path", type=click.Path(), default=None,
              help="Corpus CSV (cohort-compare mode).")
@click.option("--cohorts", "cohorts_path", type=click.Path(), default=None,
              help="Cohort assignment CSV (cohort-compare mode).")
@click.option("--model", type=click.Choice(ALL_MODELS), default="lstm", show_default=True,
              help="Model trained per cohort (cohort-compare mode).")
@click.option("--fold", type=int, default=0, show_default=True,
              help="Fold index used for the cohort comparison.")
@click.option("--epochs", "lstm_epochs", type=int, default=None)
@click.option("--hmm-states", type=int, default=None)
@click.option("--hmm-max-iter", type=int, default=None)
def evaluate(config_path, seed, mode, prepared_dir, models, models_dir, out_dir, scatter,
             k_folds, cgm_path, cohorts_path, model, fold, lstm_epochs, hmm_states, hmm_max_iter):
    """Score models over the shared folds, or compare pooled vs cohort training."""
    overrides = {
        "seed": seed,
        "k_folds": k_folds,
        "lstm_epochs": lstm_epochs,
        "hmm_states": hmm_states,
        "hmm_max_iter": hmm_max_iter,
    }

    def step(tracker, config):
        if mode == "cohort-compare":
            if cgm_path is None or cohorts_path is None:
                raise ConfigError("cohort-compare mode needs --cgm and --cohorts")
            document = workflows.run_cohort_compare(
                tracker, config, cgm_path, cohorts_path, model, fold, out_dir
            )
            click.echo(json.dumps({"warning": document["warning"]}), err=True)
            return {"comparison": document["comparison"]}
        if prepared_dir is None:
            raise ConfigError("standard mode needs --prepared-dir")
        names = [m.strip() for m in models.split(",") if m.strip()]
        document = workflows.run_evaluate(
            tracker, config, prepared_dir, names, models_dir, out_dir, scatter
        )
        return {
            "models": {
                entry["model"]: entry["aggregate"]["rmse"] for entry in document["models"]
            }
        }

    _execute(config_path, overrides, step)


@main.command()
@config_options
@click.option("--model", "model_file", type=click.Path(), required=True,
              help="Trained LSTM model file.")
@click.option("--prepared", "prepared_file", type=click.Path(), required=True)
@click.option("--example", "example_index", type=int, default=0, show_default=True)
@click.option("--split", type=click.Choice(["train", "test"]), default="test", show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def explain(config_path, seed, model_file, prepared_file, example_index, split, out_path):
    """Export the forget-gate activation trace for one example."""
    _execute(
        config_path,
        {"seed": seed},
        lambda tracker, config: workflows.run_explain(
            tracker, config, model_file, prepared_file, example_index, out_path, split
        ),
    )


@main.command()
@click.option("--cho", type=float, required=True, help="Carbohydrate intake, grams.")
@click.option("--cr", type=float, required=True, help="Carb-to-insulin ratio, g per unit.")
@click.option("--gc", type=float, required=True, help="Measured glucose.")
@click.option("--gt", type=float, required=True, help="Target glucose.")
@click.option("--cf", type=float, required=True, help="Correction factor per insulin unit.")
@click.option("--ps", type=float, default=1.0, show_default=True,
              help="Physiological state multiplier.")
@click.option("--iob", type=float, default=0.0, show_default=True, help="Insulin on board.")
@click.option("--mmol", is_flag=True, help="Glucose flags (gc, gt, cf) are in mmol/L.")
def bolus(cho, cr, gc, gt, cf, ps, iob, mmol):
    """Insulin bolus from meal carbs, measured vs target glucose, and IOB."""
    try:
        if mmol:
            gc, gt, cf = mmoll_to_mgdl(gc), mmoll_to_mgdl(gt), mmoll_to_mgdl(cf)
        result = compute_bolus(
            BolusInputs(cho_g=cho, cr=cr, gc_mgdl=gc, gt_mgdl=gt, cf=cf, ps=ps, iob=iob)
        )
    except GlycoError as error:
        _fail(error)
    click.echo(json.dumps({"units": result.units, "no_bolus_needed": result.no_bolus_needed}))


if __name__ == "__main__":
    main()
