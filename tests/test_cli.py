import json
import shutil

import pytest
from click.testing import CliRunner

from glyco import hmm
from glyco.cli import _exit_code, main
from glyco.errors import ConfigError, DataError, FormatError, InvalidValueError, NumericError
from glyco.lstm import load_model, save_model

TINY = [
    "--folds", "3", "--seed", "11",
]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, runner):
    """One shared synth -> prepare -> train run for the command tests."""
    root = tmp_path_factory.mktemp("cli")
    steps = [
        ["synth", "--patients", "4", "--days", "8", "--seed", "11",
         "--out-cgm", str(root / "cgm.csv"), "--out-patients", str(root / "patients.csv")],
        ["prepare", "--cgm", str(root / "cgm.csv"), "--out-dir", str(root / "prep"),
         "--train-step", "12", "--test-step", "144", *TINY],
        ["train", "--prepared-dir", str(root / "prep"), "--model", "lstm",
         "--out-dir", str(root / "models"), "--epochs", "2", "--batch", "64",
         "--hidden", "4", "--layers", "2", "--lr", "0.01", *TINY],
    ]
    for args in steps:
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return root


def test_end_to_end_evaluate(runner, pipeline_dir):
    root = pipeline_dir
    result = runner.invoke(
        main,
        ["evaluate", "--prepared-dir", str(root / "prep"), "--models", "copy_last,lstm",
         "--models-dir", str(root / "models"), "--out-dir", str(root / "eval"), *TINY],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    report = json.loads((root / "eval" / "eval_report.json").read_text())
    assert {entry["model"] for entry in report["models"]} == {"copy_last", "lstm"}
    assert report["config"]["seed"] == 11  # resolved config is embedded
    flat = (root / "eval" / "eval_flat.csv").read_text().splitlines()
    assert flat[0] == "model,fold,metric,value"


def test_shared_folds_across_models(runner, pipeline_dir):
    root = pipeline_dir
    report = json.loads((root / "eval" / "eval_report.json").read_text())
    fold_ids = [[f["fold"] for f in entry["folds"]] for entry in report["models"]]
    assert fold_ids[0] == fold_ids[1]


def test_explain_command(runner, pipeline_dir):
    root = pipeline_dir
    result = runner.invoke(
        main,
        ["explain", "--model", str(root / "models" / "lstm_fold0.glstm"),
         "--prepared", str(root / "prep" / "fold0.gprep"), "--example", "0",
         "--out", str(root / "trace.csv")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    header = (root / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("layer,timestep,phase,unit0")


def test_stats_and_cluster_commands(runner, pipeline_dir, tmp_path):
    root = pipeline_dir
    result = runner.invoke(
        main,
        ["stats", "--cgm", str(root / "cgm.csv"), "--patients", str(root / "patients.csv"),
         "--out-dir", str(tmp_path / "st"), "--seed", "11"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["cluster", "--patients", str(root / "patients.csv"), "--out-dir", str(tmp_path / "cl"),
         "--k", "2", "--seed", "11"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "cl" / "cohorts.csv").exists()


def test_rerun_is_byte_identical(runner, pipeline_dir, tmp_path):
    root = pipeline_dir
    for out in ("eval_a", "eval_b"):
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(root / "prep"), "--models", "copy_last,linreg",
             "--out-dir", str(tmp_path / out), *TINY],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
    a = (tmp_path / "eval_a" / "eval_report.json").read_bytes()
    b = (tmp_path / "eval_b" / "eval_report.json").read_bytes()
    assert a == b
    assert (tmp_path / "eval_a" / "eval_flat.csv").read_bytes() == (
        tmp_path / "eval_b" / "eval_flat.csv"
    ).read_bytes()


def test_prepare_rerun_identical_fold_files(runner, pipeline_dir, tmp_path):
    root = pipeline_dir
    for out in ("p1", "p2"):
        result = runner.invoke(
            main,
            ["prepare", "--cgm", str(root / "cgm.csv"), "--out-dir", str(tmp_path / out),
             "--train-step", "12", "--test-step", "144", *TINY],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
    for name in ("fold0.gprep", "fold1.gprep", "prepare_report.json"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


def test_config_file_and_flag_precedence(runner, pipeline_dir, tmp_path):
    root = pipeline_dir
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"k_folds": 3, "seed": 99, "train_step": 12}))
    result = runner.invoke(
        main,
        ["prepare", "--cgm", str(root / "cgm.csv"), "--out-dir", str(tmp_path / "pc"),
         "--config", str(config_file), "--seed", "11", "--test-step", "144"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "pc" / "prepare_report.json").read_text())
    assert report["config"]["seed"] == 11  # flag beats config file
    assert report["config"]["k_folds"] == 3


def test_env_seed_lowest_precedence(runner, pipeline_dir, tmp_path, monkeypatch):
    root = pipeline_dir
    monkeypatch.setenv("GLYCO_SEED", "123")
    result = runner.invoke(
        main,
        ["stats", "--cgm", str(root / "cgm.csv"), "--out-dir", str(tmp_path / "s1")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert json.loads((tmp_path / "s1" / "stats.json").read_text())["config"]["seed"] == 123
    result = runner.invoke(
        main,
        ["stats", "--cgm", str(root / "cgm.csv"), "--out-dir", str(tmp_path / "s2"),
         "--seed", "7"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert json.loads((tmp_path / "s2" / "stats.json").read_text())["config"]["seed"] == 7


class TestErrors:
    def test_exit_code_mapping(self):
        assert _exit_code(ConfigError("x")) == 2
        assert _exit_code(InvalidValueError("x")) == 2
        assert _exit_code(DataError("x")) == 3
        assert _exit_code(FormatError("x")) == 3
        assert _exit_code(NumericError("x")) == 4

    def test_missing_cgm_is_data_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["stats", "--cgm", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 3
        line = result.output.strip().splitlines()[-1]
        parsed = json.loads(line)
        assert parsed["error"] == "DataError"

    @pytest.mark.parametrize(
        "body",
        [b"patient_id,cohort\np\xff1,A\n", b"patient_id,cohort\np1," + b"A" * 131_073 + b"\n"],
        ids=["not-utf8", "oversized-field"],
    )
    def test_unreadable_cohorts_file_is_format_error(self, runner, pipeline_dir, tmp_path, body):
        cohorts = tmp_path / "cohorts.csv"
        cohorts.write_bytes(body)
        out = tmp_path / "prep"
        result = runner.invoke(
            main,
            ["prepare", "--cgm", str(pipeline_dir / "cgm.csv"), "--out-dir", str(out),
             "--cohorts", str(cohorts), "--cohort", "A", *TINY],
        )
        assert result.exit_code == 3
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "FormatError"
        assert not out.exists() or not any(out.iterdir())

    def test_bad_config_file_is_config_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["synth", "--patients", "1", "--days", "1", "--config", str(bad),
                   "--out-cgm", str(tmp_path / "c.csv"), "--out-patients", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2

    def test_wrongly_typed_config_value_is_config_error(self, runner, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"k_folds": "5"}))
        result = runner.invoke(
            main, ["synth", "--patients", "1", "--days", "1", "--config", str(config),
                   "--out-cgm", str(tmp_path / "c.csv"), "--out-patients", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "ConfigError"

    def test_failed_rerun_keeps_earlier_outputs(self, runner, pipeline_dir, tmp_path):
        prep, models = tmp_path / "prep", tmp_path / "models"
        shutil.copytree(pipeline_dir / "prep", prep)
        args = ["train", "--prepared-dir", str(prep), "--model", "copy_last",
                "--out-dir", str(models), *TINY]
        assert runner.invoke(main, args).exit_code == 0
        before = {p.name: p.read_bytes() for p in models.iterdir()}
        assert "copy_last_fold2.json" in before
        (prep / "fold1.gprep").write_bytes(b"corrupt")
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert {p.name: p.read_bytes() for p in models.iterdir()} == before

    def test_unknown_model_is_config_error(self, runner, pipeline_dir, tmp_path):
        root = pipeline_dir
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(root / "prep"), "--models", "nonsense",
             "--out-dir", str(tmp_path / "e"), *TINY],
        )
        assert result.exit_code == 2

    def test_overflowing_lstm_is_numeric_error(self, runner, pipeline_dir, tmp_path):
        # Finite in scaled space, the forecasts overflow to inf in mg/dL.
        models = tmp_path / "models"
        models.mkdir()
        for fold in range(3):
            name = f"lstm_fold{fold}.glstm"
            net, provenance = load_model(pipeline_dir / "models" / name)
            net.head_bias[...] = 1e306
            save_model(net, models / name, provenance)
        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(pipeline_dir / "prep"), "--models", "copy_last,lstm",
             "--models-dir", str(models), "--out-dir", str(out), "--scatter", *TINY],
        )
        assert result.exit_code == 4
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "NumericError"
        assert not out.exists() or not any(out.iterdir())

    def test_bolus_domain_error(self, runner):
        result = runner.invoke(
            main, ["bolus", "--cho", "60", "--cr", "0", "--gc", "180", "--gt", "120", "--cf", "30"]
        )
        assert result.exit_code == 2

    def test_partial_outputs_removed(self, runner, pipeline_dir, tmp_path):
        root = pipeline_dir
        # patients file with no usable numeric features fails after the
        # daily profile was already written; the partial CSV must be removed
        bad = tmp_path / "patients.csv"
        bad.write_text(
            "patient_id,age,weight_kg,height_cm,hba1c,hba1c_unit,annual_income_usd,education_level,sex\n"
            "p1,,,,,,,,\n"
        )
        out = tmp_path / "st"
        result = runner.invoke(
            main,
            ["stats", "--cgm", str(root / "cgm.csv"), "--patients", str(bad),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 3
        assert not (out / "daily_profile.csv").exists()
        assert not (out / "stats.json").exists()

    def test_os_error_is_reported_and_cleaned_up(self, runner, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        cgm = tmp_path / "cgm.csv"
        result = runner.invoke(
            main,
            ["synth", "--patients", "1", "--days", "1", "--out-cgm", str(cgm),
             "--out-patients", str(blocker / "patients.csv")],
        )
        assert result.exit_code == 3
        parsed = json.loads(result.output.strip().splitlines()[-1])
        assert parsed["error"] == "FileExistsError"
        assert not cgm.exists()  # written before the failure, then removed

    def test_unreadable_config_is_reported(self, runner, tmp_path):
        result = runner.invoke(
            main, ["synth", "--patients", "1", "--days", "1", "--config", str(tmp_path),
                   "--out-cgm", str(tmp_path / "c.csv")]
        )
        assert result.exit_code == 3
        parsed = json.loads(result.output.strip().splitlines()[-1])
        assert parsed["error"] == "IsADirectoryError"

    @pytest.mark.parametrize(
        "features, via_config",
        [("foo", False), ("sex", False), ("patient_id", True), ("hba1c_unit", True),
         (",", False), ("hba1c,hba1c", False)],
    )
    def test_bad_cluster_features_are_config_error(
        self, runner, pipeline_dir, tmp_path, features, via_config
    ):
        args = ["cluster", "--patients", str(pipeline_dir / "patients.csv"),
                "--out-dir", str(tmp_path / "cl"), "--k", "2"]
        if via_config:
            (tmp_path / "c.json").write_text(json.dumps({"cluster_features": features}))
            args += ["--config", str(tmp_path / "c.json")]
        else:
            args += ["--features", features]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        (line,) = result.output.strip().splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert not (tmp_path / "cl").exists()

    @pytest.mark.parametrize("limit", ["nan", "-1", "1.5", "inf"])
    def test_max_malformed_outside_unit_interval_is_rejected(self, runner, tmp_path, limit):
        cgm = tmp_path / "cgm.csv"
        cgm.write_text("patient_id,timestamp,glucose_mgdl\np1,1000,100\np1,oops,100\n")
        out = tmp_path / "ing"
        result = runner.invoke(
            main, ["ingest", "--cgm", str(cgm), "--out-dir", str(out), "--max-malformed", limit]
        )
        assert result.exit_code == 2, result.output
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "InvalidValueError"
        assert not out.exists()

    def test_untyped_failure_removes_partial_outputs(self, runner, pipeline_dir, tmp_path,
                                                      monkeypatch):
        fit, calls = hmm.baum_welch, []

        def fail_on_fold1(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("injected")
            return fit(*args, **kwargs)

        monkeypatch.setattr(hmm, "baum_welch", fail_on_fold1)
        models = tmp_path / "models"
        result = runner.invoke(
            main,
            ["train", "--prepared-dir", str(pipeline_dir / "prep"), "--model", "hmm",
             "--out-dir", str(models), "--hmm-states", "3", "--hmm-max-iter", "2", *TINY],
        )
        assert isinstance(result.exception, MemoryError) and len(calls) == 2
        assert not (models / "hmm_fold0.json").exists()


class TestBolusCommand:
    def test_worked_example(self, runner):
        result = runner.invoke(
            main,
            ["bolus", "--cho", "60", "--cr", "10", "--gc", "180", "--gt", "120",
             "--cf", "30", "--iob", "2"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        parsed = json.loads(result.output)
        assert parsed["units"] == 6.0
        assert parsed["no_bolus_needed"] is False

    def test_mmol_flag_converts(self, runner):
        # 10 mmol/L = 180 mg/dL; same dose as the mg/dL example
        result = runner.invoke(
            main,
            ["bolus", "--cho", "60", "--cr", "10", "--gc", "10", "--gt", str(120 / 18),
             "--cf", str(30 / 18), "--iob", "2", "--mmol"],
            catch_exceptions=False,
        )
        parsed = json.loads(result.output)
        assert parsed["units"] == pytest.approx(6.0, abs=1e-9)

    def test_negative_dose_advisory(self, runner):
        result = runner.invoke(
            main,
            ["bolus", "--cho", "0", "--cr", "10", "--gc", "80", "--gt", "120", "--cf", "30",
             "--iob", "1"],
            catch_exceptions=False,
        )
        parsed = json.loads(result.output)
        assert parsed["units"] < 0 and parsed["no_bolus_needed"] is True
