"""Command-line front end.

Configuration precedence (lowest first): defaults, GLYCO_SEED, --config JSON
file, command-line flags. A flag whose destination names a RunConfig field is
that field's override. Failures print one machine-parsable JSON line on
stderr, remove the files the failed run created, and exit 2 (config), 3 (data,
including a file that cannot be read or written), 4 (numeric), 5 (out of
memory, or a dead --jobs worker) or 130 (interrupted).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from concurrent.futures.process import BrokenProcessPool

import click

from . import workflows
from .clinical import BolusInputs, bolus as compute_bolus
from .config import RunConfig, resolve_config
from .core import mmoll_to_mgdl
from .errors import ConfigError, GlycoError, InvalidValueError, NumericError
from .workflows import ALL_MODELS, OutputTracker

# Exit code per failure kind, first match first; any other exception propagates.
_EXIT_CODES = (
    ((ConfigError, InvalidValueError), 2),
    (NumericError, 4),
    ((GlycoError, OSError), 3),
    ((MemoryError, BrokenProcessPool), 5),
    (KeyboardInterrupt, 130),
)

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _exit_code(error: BaseException) -> int | None:
    return next((code for kinds, code in _EXIT_CODES if isinstance(error, kinds)), None)


@contextlib.contextmanager
def _guard(tracker: OutputTracker):
    """On any failure, remove the files tracker holds; then end a mapped
    failure as one JSON line on stderr and its exit code."""
    try:
        yield
    except BaseException as error:
        tracker.cleanup()
        code = _exit_code(error)
        if code is None:
            raise
        click.echo(json.dumps({"error": type(error).__name__, "message": str(error)}), err=True)
        sys.exit(code)


def _execute(params: dict, step, summary=lambda result: result) -> None:
    """Run ``step(tracker, config, **rest)`` under the guard and print its summary.

    ``params`` are the command's click parameters: ``config_path`` names the
    config file, each one named after a RunConfig field is that field's
    override (unset when None), and the rest go to step.
    """
    overrides = {name: params.pop(name) for name in _CONFIG_FIELDS & params.keys()}
    tracker = OutputTracker()
    with _guard(tracker):
        config = resolve_config(params.pop("config_path"), overrides)
        result = step(tracker, config, **params)
    click.echo(json.dumps(summary(result), sort_keys=True))


def config_options(fn):
    fn = click.option("--seed", type=int, default=None, help="Random seed (default 42).")(fn)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="JSON config file; flags override its values.")(fn)


@click.group()
def main():
    """Glucose forecasting experiments: data prep, training, evaluation."""


@main.command()
@config_options
@click.option("--patients", "n_patients", type=int, required=True, help="Number of patients.")
@click.option("--days", type=int, required=True, help="Days of readings per patient.")
@click.option("--out-cgm", type=click.Path(), default="synth_cgm.csv", show_default=True)
@click.option("--out-patients", type=click.Path(), default="synth_patients.csv", show_default=True)
def synth(**params):
    """Generate a deterministic synthetic corpus."""
    outputs = {"out_cgm": params["out_cgm"], "out_patients": params["out_patients"]}
    _execute(params, workflows.run_synth, lambda result: {**outputs, **result})


@main.command()
@config_options
@click.option("--cgm", "cgm_path", type=click.Path(), required=True)
@click.option("--patients", "patients_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--max-malformed", "max_malformed_fraction", type=float, default=0.01,
              show_default=True,
              help="Fraction of malformed rows, in [0, 1], tolerated before a hard error.")
def ingest(**params):
    """Parse raw CSVs into a canonical corpus cache."""
    _execute(params, workflows.run_ingest, lambda result: result["cgm"])


@main.command()
@config_options
@click.option("--cgm", "cgm_path", type=click.Path(), required=True)
@click.option("--patients", "patients_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--variance-tau", type=float, default=0.0, show_default=True)
@click.option("--max-gap-s", type=int, default=None)
def stats(**params):
    """Corpus statistics, daily profile, and patient-feature matrices."""
    _execute(params, workflows.run_stats, lambda result: {"corpus": result["corpus"]})


@main.command()
@config_options
@click.option("--patients", "patients_path", type=click.Path(), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--features", "cluster_features", type=str, default=None,
              help="Comma-separated patient features (default hba1c,annual_income_usd).")
@click.option("--k", "gmm_k", type=int, default=None, help="Number of cohorts (default 3).")
def cluster(**params):
    """Cluster patients into cohorts with a Gaussian mixture."""
    _execute(
        params, workflows.run_cluster, lambda result: {"cohort_sizes": result["cohort_sizes"]}
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
def prepare(**params):
    """Segment, fold-split, and window the corpus into prepared sets."""
    _execute(params, workflows.run_prepare)


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
def train(**params):
    """Train one model per prepared fold."""
    _execute(params, workflows.run_train)


def _evaluate(tracker, config, mode, prepared_dir, models, models_dir, out_dir, scatter,
              cgm_path, cohorts_path, model, fold) -> dict:
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
    return {"models": {entry["model"]: entry["aggregate"]["rmse"] for entry in document["models"]}}


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
def evaluate(**params):
    """Score models over the shared folds, or compare pooled vs cohort training."""
    _execute(params, _evaluate)


@main.command()
@config_options
@click.option("--model", "model_file", type=click.Path(), required=True,
              help="Trained LSTM model file.")
@click.option("--prepared", "prepared_file", type=click.Path(), required=True)
@click.option("--example", "example_index", type=int, default=0, show_default=True)
@click.option("--split", type=click.Choice(["train", "test"]), default="test", show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def explain(**params):
    """Export the forget-gate activation trace for one example."""
    _execute(params, workflows.run_explain)


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
    with _guard(OutputTracker()):  # no config: GLYCO_SEED and --config play no part here
        if mmol:
            gc, gt, cf = mmoll_to_mgdl(gc), mmoll_to_mgdl(gt), mmoll_to_mgdl(cf)
        result = compute_bolus(
            BolusInputs(cho_g=cho, cr=cr, gc_mgdl=gc, gt_mgdl=gt, cf=cf, ps=ps, iob=iob)
        )
    click.echo(json.dumps({"units": result.units, "no_bolus_needed": result.no_bolus_needed}))


if __name__ == "__main__":
    main()
