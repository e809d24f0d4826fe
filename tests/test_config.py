import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ConfigError, match="recursive or teacher, got 'oracle'"):
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


@pytest.mark.parametrize(
    "values, field",
    [({"lstm_lr": float("nan")}, "lstm_lr"), ({"lstm_lr": -1}, "lstm_lr"),
     ({"lstm_lr": float("inf")}, "lstm_lr"), ({"lstm_hidden": 0}, "lstm_hidden"),
     ({"hmm_states": 0}, "hmm_states"), ({"max_gap_s": -5}, "max_gap_s"),
     ({"window_input": 0}, "window_input"), ({"seed": -1}, "seed"),
     ({"lstm_clip_norm": 0}, "lstm_clip_norm"), ({"gmm_k": 0}, "gmm_k"),
     ({"hypo_mgdl": 280, "hyper_mgdl": 280}, "hypo_mgdl"),
     ({"hypo_mgdl": 300.0}, "hypo_mgdl"), ({"hyper_mgdl": float("inf")}, "hyper_mgdl")],
)
def test_value_ranges_checked(tmp_path, values, field):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(values))  # NaN and Infinity are JSON extensions json reads
    with pytest.raises(ConfigError, match=field):
        resolve_config(str(config_file), {})


@pytest.mark.parametrize(
    "payload",
    [b'{"seed": 1\xff}', b"[" * 100_000 + b"]" * 100_000, b'{"seed": ' + b"9" * 5000 + b"}"],
    ids=["bad-utf8", "deep-nesting", "long-int"],
)
def test_unreadable_json_is_config_error(tmp_path, payload):
    config_file = tmp_path / "c.json"
    config_file.write_bytes(payload)
    with pytest.raises(ConfigError, match="c.json"):
        resolve_config(str(config_file), {})


FUZZ_TOKENS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1", "0", "null", "true", '"x"', "[]", "{}",
     "9" * 5000, "[" * 5000]
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_resolve_config_fuzz_raises_only_config_errors(tmp_path, data):
    """Truncated, bit-flipped or re-valued config files, with a BOM, CRLF,
    quotes or invalid UTF-8, resolve or raise a ConfigError."""
    raw = bytearray(json.dumps(RunConfig().to_dict(), indent=1).encode())
    mutation = data.draw(st.sampled_from(["truncate", "flip", "token", "bom", "crlf", "utf8"]))
    if mutation == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    elif mutation == "token":
        text = raw.decode()
        values = [m.span(1) for m in re.finditer(r": (.+?),?\n", text)]
        lo, hi = data.draw(st.sampled_from(values))
        raw = bytearray((text[:lo] + data.draw(FUZZ_TOKENS) + text[hi:]).encode())
    elif mutation == "bom":
        raw = bytearray(b"\xef\xbb\xbf") + raw
    elif mutation == "crlf":
        raw = raw.replace(b"\n", b"\r\n")
    else:
        at = data.draw(st.integers(0, len(raw)))
        raw[at:at] = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    config_file = tmp_path / "c.json"
    config_file.write_bytes(bytes(raw))
    try:
        config = resolve_config(str(config_file), {})
    except ConfigError:
        return
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()
