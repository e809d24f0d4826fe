import json

import pytest

from glyco.config import RunConfig, resolve_config
from glyco.errors import ConfigError


def test_defaults_match_reference_protocol():
    config = RunConfig()
    assert config.seed == 42
    assert config.k_folds == 5
    assert (config.window_total, config.window_input, config.horizon) == (144, 132, 12)
    assert config.max_gap_s == 900
    assert (config.lstm_hidden, config.lstm_layers) == (8, 3)
    assert (config.lstm_epochs, config.lstm_batch, config.lstm_lr) == (20, 128, 0.001)
    assert (config.hmm_states, config.hmm_max_iter) == (100, 10000)
    assert (config.gmm_k, config.gmm_n_init, config.gmm_max_iter) == (3, 20, 200)
    assert (config.hypo_mgdl, config.hyper_mgdl) == (70.0, 280.0)


def test_precedence_env_file_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("GLYCO_SEED", "100")
    assert resolve_config(None, {}).seed == 100

    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"seed": 200, "k_folds": 4}))
    assert resolve_config(str(config_file), {}).seed == 200

    merged = resolve_config(str(config_file), {"seed": 300})
    assert merged.seed == 300 and merged.k_folds == 4


def test_none_overrides_are_ignored(tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"train_step": 9}))
    config = resolve_config(str(config_file), {"train_step": None, "seed": None})
    assert config.train_step == 9 and config.seed == 42


def test_unknown_keys_rejected(tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(ConfigError, match="not_a_key"):
        resolve_config(str(config_file), {})


def test_bad_env_seed(monkeypatch):
    monkeypatch.setenv("GLYCO_SEED", "oops")
    with pytest.raises(ConfigError):
        resolve_config(None, {})


def test_validation():
    with pytest.raises(ConfigError):
        resolve_config(None, {"window_input": 200, "window_total": 144})
    with pytest.raises(ConfigError):
        resolve_config(None, {"k_folds": 1})
    with pytest.raises(ConfigError):
        resolve_config(None, {"lstm_feedback": "oracle"})


def test_missing_config_file():
    with pytest.raises(ConfigError):
        resolve_config("/nonexistent/config.json", {})


def test_config_echo_is_json_serializable():
    payload = json.dumps(RunConfig().to_dict(), sort_keys=True)
    assert "window_total" in payload


@pytest.mark.parametrize(
    "values",
    [{"k_folds": "5"}, {"lstm_hidden": "8"}, {"seed": True}, {"hypo_mgdl": "70"},
     {"lstm_lr": False}, {"lstm_clip_norm": "5"}, {"cohort": 1}, {"train_step": 1.0}],
)
def test_value_types_checked(tmp_path, values):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match=next(iter(values))):
        resolve_config(str(config_file), {})


def test_int_for_float_and_null_clip_norm_accepted(tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"hypo_mgdl": 65, "lstm_clip_norm": None}))
    config = resolve_config(str(config_file), {})
    assert config.hypo_mgdl == 65 and config.lstm_clip_norm is None
