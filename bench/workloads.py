"""The benchmark's workloads: a seeded synthetic corpus plus glyco's CLI steps.

Each pass calls the public `glyco.workflows.run_*` steps in the order the CLI
runs them, with jobs=1, in one process. Sizes are scaled so that a run fits
the benchmark's time budget; BENCHMARK.json and README.md say why each
workload exists.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # Seeded synth corpus of patients x days, cut to `windows` windows at train_step.
    patients: int
    days: int
    windows: int
    config: dict
    steps: tuple[str, ...]
    train_model: str | None = None
    eval_models: tuple[str, ...] = ()
    # Layers whose self time together must be most of a traced pass.
    dominant: tuple[str, ...] = ()
    # Layers that must record no time at all.
    absent: tuple[str, ...] = ()
    extra_checks: tuple[str, ...] = ()

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self)) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Workload":
        fields = json.loads(path.read_text(encoding="utf-8"))
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_lstm",
            patients=8,
            days=10,
            windows=1024,
            config=dict(
                k_folds=2, train_step=8, test_step=144, lstm_hidden=8, lstm_layers=3,
                lstm_epochs=3, lstm_batch=128, lstm_lr=0.01,
            ),
            steps=("prepare", "train", "evaluate", "explain"),
            train_model="lstm",
            eval_models=("copy_last", "lstm"),
            dominant=("lstm",),
            absent=("hmm",),
            extra_checks=("lstm_training",),
        ),
        Workload(
            name="hmm_100",
            patients=8,
            days=8,
            windows=24,
            config=dict(
                k_folds=2, train_step=144, test_step=144, hmm_states=100, hmm_max_iter=2,
            ),
            steps=("prepare", "train", "evaluate"),
            train_model="hmm",
            eval_models=("hmm", "copy_last"),
            dominant=("hmm",),
            absent=("lstm",),
            extra_checks=("log_likelihood",),
        ),
        Workload(
            name="step1_data",
            patients=16,
            days=12,
            windows=20000,
            config=dict(k_folds=2, train_step=1, test_step=1),
            steps=("ingest", "stats", "cluster", "prepare", "evaluate"),
            eval_models=("copy_last",),
            dominant=("ingest", "pipeline", "baselines", "metrics"),
            absent=("lstm", "hmm"),
            extra_checks=("windows", "copy_last_rmse"),
        ),
    )
}


@dataclass(frozen=True)
class Paths:
    """Where one pass reads its inputs and writes its outputs."""

    raw_cgm: Path
    raw_patients: Path
    out: Path
    ingested: bool

    @classmethod
    def for_workload(cls, workload: Workload) -> "Paths":
        """Paths relative to the run's work directory, so no output records where it ran."""
        return cls(Path("raw/cgm.csv"), Path("raw/patients.csv"), Path("pass"),
                   "ingest" in workload.steps)

    @property
    def cgm(self) -> Path:
        """The CGM CSV that stats and prepare read: the ingested copy when ingest runs."""
        return self.out / "ingest" / "corpus.csv" if self.ingested else self.raw_cgm

    @property
    def patients(self) -> Path:
        return self.out / "ingest" / "patients.csv" if self.ingested else self.raw_patients

    @property
    def prep(self) -> Path:
        return self.out / "prep"

    @property
    def models(self) -> Path:
        return self.out / "models"

    @property
    def eval(self) -> Path:
        return self.out / "eval"


def run_config(RunConfig, workload: Workload, seed: int):
    config = RunConfig(seed=seed, jobs=1, **workload.config)
    config.validate()
    return config


def run_step(step: str, workload: Workload, workflows, tracker, config, paths: Paths):
    """One CLI step through glyco's public workflow functions."""
    if step == "ingest":
        return workflows.run_ingest(
            tracker, config, paths.raw_cgm, paths.raw_patients, paths.out / "ingest"
        )
    if step == "stats":
        return workflows.run_stats(
            tracker, config, paths.cgm, paths.patients, paths.out / "stats"
        )
    if step == "cluster":
        return workflows.run_cluster(tracker, config, paths.patients, paths.out / "cluster")
    if step == "prepare":
        return workflows.run_prepare(tracker, config, paths.cgm, paths.prep)
    if step == "train":
        return workflows.run_train(tracker, config, paths.prep, workload.train_model, paths.models)
    if step == "evaluate":
        models_dir = paths.models if workload.train_model else None
        return workflows.run_evaluate(
            tracker, config, paths.prep, list(workload.eval_models), models_dir, paths.eval
        )
    if step == "explain":
        return workflows.run_explain(
            tracker,
            config,
            workflows.model_path(paths.models, "lstm", 0),
            workflows.prepared_path(paths.prep, 0),
            0,
            paths.out / "explain" / "trace.csv",
        )
    raise ValueError(f"unknown step {step!r}")
