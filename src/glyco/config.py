"""Run configuration: defaults, JSON file, environment, and flag overrides.

Precedence, lowest first: built-in defaults, GLYCO_SEED environment variable,
JSON config file, command-line flags. The resolved configuration is embedded
in every emitted report so results are self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .core import PATIENT_NUMERIC_FEATURES, is_int, is_real
from .errors import ConfigError


# Integer fields that must be at least 1.
_POSITIVE_COUNTS = (
    "window_input", "max_gap_s", "train_step", "test_step", "jobs", "lstm_hidden",
    "lstm_layers", "lstm_epochs", "lstm_batch", "lstm_heuristic_n", "hmm_states",
    "hmm_max_iter", "gmm_k", "gmm_n_init", "gmm_max_iter",
)


@dataclass
class RunConfig:
    seed: int = 42
    k_folds: int = 5
    window_total: int = 144
    window_input: int = 132
    max_gap_s: int = 900
    train_step: int = 1
    test_step: int = 1
    hypo_mgdl: float = 70.0
    hyper_mgdl: float = 280.0
    cohort: str = "all"
    lstm_hidden: int = 8
    lstm_layers: int = 3
    lstm_epochs: int = 20
    lstm_batch: int = 128
    lstm_lr: float = 0.001
    lstm_clip_norm: float | None = 5.0
    lstm_feedback: str = "recursive"
    lstm_heuristic_n: int = 1000
    hmm_states: int = 100
    hmm_max_iter: int = 10000
    gmm_k: int = 3
    gmm_n_init: int = 20
    gmm_max_iter: int = 200
    cluster_features: str = "hba1c,annual_income_usd"
    jobs: int = 1

    @property
    def horizon(self) -> int:
        return self.window_total - self.window_input

    @property
    def cluster_feature_names(self) -> tuple[str, ...]:
        """The names in ``cluster_features``, empty entries dropped."""
        return tuple(name.strip() for name in self.cluster_features.split(",") if name.strip())

    def validate(self) -> None:
        if self.window_input >= self.window_total:
            raise ConfigError(
                f"window_input ({self.window_input}) must be below window_total "
                f"({self.window_total})"
            )
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in _POSITIVE_COUNTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lstm_lr) and self.lstm_lr > 0):
            raise ConfigError(f"lstm_lr must be positive and finite, got {self.lstm_lr}")
        clip = self.lstm_clip_norm
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ConfigError(f"lstm_clip_norm must be positive and finite or null, got {clip}")
        if not (math.isfinite(self.hypo_mgdl) and math.isfinite(self.hyper_mgdl)
                and self.hypo_mgdl < self.hyper_mgdl):
            raise ConfigError(
                f"need finite hypo_mgdl < hyper_mgdl, got {self.hypo_mgdl} and {self.hyper_mgdl}"
            )
        names = self.cluster_feature_names
        if not names or len(set(names) & set(PATIENT_NUMERIC_FEATURES)) != len(names):
            raise ConfigError(
                "cluster_features must name distinct features among "
                f"{', '.join(PATIENT_NUMERIC_FEATURES)}; got {self.cluster_features!r}"
            )
        if self.lstm_feedback not in ("recursive", "teacher"):
            raise ConfigError(
                f"lstm_feedback must be recursive or teacher, got {self.lstm_feedback!r}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# Accepted JSON values per RunConfig field annotation: a bool is not an int,
# an int is fine where a float is expected.
_TYPE_CHECKS = {
    "int": is_int,
    "float": is_real,
    "float | None": lambda v: v is None or is_real(v),
    "str": lambda v: isinstance(v, str),
}


def resolve_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Merge sources into a validated RunConfig; unknown keys are errors."""
    values: dict = {}
    env_seed = os.environ.get("GLYCO_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"GLYCO_SEED must be an integer, got {env_seed!r}")
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})

    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for name, value in values.items():
        if not _TYPE_CHECKS[types[name]](value):
            raise ConfigError(f"config key {name} must be {types[name]}, got {value!r}")
    config = RunConfig(**values)
    config.validate()
    return config
