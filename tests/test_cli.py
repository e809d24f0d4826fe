import concurrent.futures
import dataclasses
import errno
import functools
import inspect
import itertools
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import PROTOCOL, PROTOCOL_COHORTS, leftovers, protocol_args, protocol_digests

from glyco import cli, hmm, workflows
from glyco.cli import _exit_code, main
from glyco.config import RunConfig
from glyco.errors import ConfigError, DataError, FormatError, InvalidValueError, NumericError
from glyco.ingest import Corpus, write_cgm_csv
from glyco.lstm import load_model, save_model
from glyco.pipeline import load_prepared, save_prepared

TINY = [
    "--folds", "3", "--seed", "11",
]
TESTS = Path(__file__).resolve().parent


def src_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    path = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


# ``glyco`` with every fold stalled inside ``atomic_write``, in a fork pool so
# the workers run the stalled step.
STALLED_TRAIN = """
import concurrent.futures, functools, multiprocessing, sys, time
from concurrent.futures import ProcessPoolExecutor
from glyco import cli, workflows
from glyco.core import atomic_write

def stall(config, model, prepared, out):
    with atomic_write(out) as handle:
        handle.write(b"partial")
        handle.flush()
        time.sleep(600)

workflows.train_fold = stall
concurrent.futures.ProcessPoolExecutor = functools.partial(
    ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
cli.main(sys.argv[1:], prog_name="glyco")
"""


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


def test_synth_writes_patients_beside_the_cgm_file(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(
        main, ["synth", "--patients", "1", "--days", "1", "--out-cgm", "sub/cgm.csv"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["out_patients"] == str(Path("sub", "synth_patients.csv"))
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == [
        "cgm.csv", "cgm.csv.gcorpus", "synth_patients.csv"
    ]


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
        assert _exit_code(MemoryError()) == 5
        assert _exit_code(BrokenProcessPool("x")) == 5
        assert _exit_code(KeyboardInterrupt()) == 130
        assert _exit_code(RuntimeError("x")) is None
        assert _exit_code(SystemExit(1)) is None

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

    def test_failed_rerun_changes_no_earlier_model(self, runner, pipeline_dir, tmp_path):
        # Fold 0 trains anew before the corrupt fold 1 fails the rerun.
        prep, models = tmp_path / "prep", tmp_path / "models"
        shutil.copytree(pipeline_dir / "prep", prep)
        args = ["train", "--prepared-dir", str(prep), "--model", "lstm", "--out-dir", str(models),
                "--hidden", "2", "--layers", "1", *TINY]
        assert runner.invoke(main, [*args, "--epochs", "1"]).exit_code == 0
        before = {p.name: p.read_bytes() for p in models.iterdir()}
        assert "lstm_fold0.glstm" in before and "train_lstm_report.json" in before
        (prep / "fold1.gprep").write_bytes(b"garbage")
        result = runner.invoke(main, [*args, "--epochs", "2"])
        assert result.exit_code == 3, result.output
        (line,) = result.stderr.strip().splitlines()
        assert json.loads(line)["error"] == "FormatError"
        assert {p.name: p.read_bytes() for p in models.iterdir()} == before
        assert not leftovers(models)

    def test_unknown_model_is_config_error(self, runner, pipeline_dir, tmp_path):
        root = pipeline_dir
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(root / "prep"), "--models", "nonsense",
             "--out-dir", str(tmp_path / "e"), *TINY],
        )
        assert result.exit_code == 2

    def test_overflowing_lstm_is_numeric_error(self, runner, pipeline_dir, tmp_path):
        # With zero weights and a saturated g gate every hidden state is
        # positive, so the head's largest float32 weights and bias overflow.
        models = tmp_path / "models"
        models.mkdir()
        for fold in range(3):
            name = f"lstm_fold{fold}.glstm"
            net, provenance = load_model(pipeline_dir / "models" / name)
            h, largest = net.hidden_size, np.finfo(np.float32).max
            net.params[:] = 0.0
            net.b_input[:, 2 * h : 3 * h] = 30.0
            net.head_weights[:] = net.head_bias[...] = largest
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

    @pytest.mark.parametrize("fault", ["version-1", "not-float32"])
    def test_evaluate_refuses_an_unreadable_lstm_model(
        self, runner, pipeline_dir, tmp_path, fault
    ):
        models = tmp_path / "models"
        shutil.copytree(pipeline_dir / "models", models)
        path = models / "lstm_fold1.glstm"
        raw = bytearray(path.read_bytes())
        if fault == "version-1":
            raw[8] = 1  # the version field follows the 8-byte magic
        else:  # the head bias, one float64 step away from its float32 value
            raw[-8:] = np.nextafter(np.frombuffer(raw[-8:], "<f8"), np.inf).tobytes()
        path.write_bytes(bytes(raw))
        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(pipeline_dir / "prep"), "--models", "copy_last,lstm",
             "--models-dir", str(models), "--out-dir", str(out), *TINY],
        )
        assert result.exit_code == 3, result.output
        parsed = json.loads(result.output.strip().splitlines()[-1])
        assert parsed["error"] == "FormatError" and "lstm_fold1.glstm" in parsed["message"]
        reason = {"version-1": "re-run train", "not-float32": "not a float32 value"}[fault]
        assert reason in parsed["message"]
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
        assert parsed["error"] == "NotADirectoryError"  # the stage cannot go under a file
        assert not cgm.exists()  # staged before the failure, never committed

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
        assert result.exit_code == 5 and len(calls) == 2
        (line,) = result.output.strip().splitlines()
        assert json.loads(line) == {"error": "MemoryError", "message": "injected"}
        assert list(models.iterdir()) == []  # fold 0's model was written, then removed

    def test_interrupt_exits_130_and_removes_partial_outputs(
        self, runner, pipeline_dir, tmp_path, monkeypatch
    ):
        fit, calls = hmm.baum_welch, []

        def interrupt_fold1(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return fit(*args, **kwargs)

        monkeypatch.setattr(hmm, "baum_welch", interrupt_fold1)
        models = tmp_path / "models"
        result = runner.invoke(
            main,
            ["train", "--prepared-dir", str(pipeline_dir / "prep"), "--model", "hmm",
             "--out-dir", str(models), "--hmm-states", "3", "--hmm-max-iter", "2", *TINY],
        )
        assert result.exit_code == 130 and len(calls) == 2
        (line,) = result.output.strip().splitlines()
        assert json.loads(line)["error"] == "KeyboardInterrupt"
        assert list(models.iterdir()) == []  # fold 0's model was written, then removed

    def test_dead_worker_exits_5_and_removes_partial_outputs(
        self, runner, pipeline_dir, tmp_path, monkeypatch
    ):
        models = tmp_path / "models"
        fold0_file = models / "copy_last_fold0.json"
        fit = workflows.train_fold

        def die_in_fold1(config, model, prepared, out):
            if prepared.provenance["fold"] == 1:
                # Fold 0 is queued first; let its staged file land so there is one to remove.
                deadline = time.monotonic() + 30
                while not list(models.glob(".glyco-stage-*/copy_last_fold0.json")) and (
                    time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                os._exit(1)
            return fit(config, model, prepared, out)

        monkeypatch.setattr(workflows, "train_fold", die_in_fold1)
        fork_pool = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        # run_train imports the pool class from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fork_pool)
        result = runner.invoke(
            main,
            ["train", "--prepared-dir", str(pipeline_dir / "prep"), "--model", "copy_last",
             "--out-dir", str(models), "--jobs", "2", *TINY],
        )
        assert result.exit_code == 5, result.output
        (line,) = result.output.strip().splitlines()
        assert json.loads(line)["error"] == "BrokenProcessPool"
        assert not fold0_file.exists() and list(models.iterdir()) == []

    def test_one_ctrl_c_ends_a_parallel_train(self, pipeline_dir, tmp_path):
        """One SIGINT to the process group of ``train --jobs 2`` ends the run at
        once: the two running folds stop mid-write, the queued third never
        starts, and the run exits 130 with one JSON line and nothing left."""
        models = tmp_path / "models"
        args = ["train", "--prepared-dir", str(pipeline_dir / "prep"), "--model", "copy_last",
                "--out-dir", str(models), "--jobs", "2", *TINY]
        run = subprocess.Popen([sys.executable, "-c", STALLED_TRAIN, *args], env=src_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(list(models.glob(".glyco-stage-*/.*.tmp"))) < 2:
                assert run.poll() is None, run.communicate()[1]
                assert time.monotonic() < deadline, "the folds never started"
                time.sleep(0.05)
            os.killpg(run.pid, signal.SIGINT)
            _, stderr = run.communicate(timeout=30)
        finally:
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)
                run.wait()
        assert run.returncode == 130, stderr
        assert "Traceback" not in stderr
        (line,) = stderr.strip().splitlines()
        assert json.loads(line)["error"] == "KeyboardInterrupt"
        assert list(models.iterdir()) == []

    def test_cli_import_loads_no_worker_pool(self):
        """The pools are imported where they run, so a run without --jobs or
        threaded decoding never loads multiprocessing or the pool modules."""
        pools = ["multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"]
        code = f"import sys, glyco.cli; print([m for m in {pools!r} if m in sys.modules])"
        run = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_evaluate_does_not_read_an_old_json_hmm(self, runner, pipeline_dir, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for fold in range(3):
            (models / f"hmm_fold{fold}.json").write_text('{"format": "glyco-hmm", "version": 1}')
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(pipeline_dir / "prep"), "--models", "hmm",
             "--models-dir", str(models), "--out-dir", str(tmp_path / "eval"), *TINY],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "DataError" and "hmm_fold0.ghmm" in parsed["message"]

    @pytest.mark.parametrize("fault", ["no-fold", "copy-of-fold0"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_fold_file_must_name_its_fold(self, runner, pipeline_dir, tmp_path, fault, command):
        prep, out = tmp_path / "prep", tmp_path / "out"
        shutil.copytree(pipeline_dir / "prep", prep)
        if fault == "no-fold":
            prepared = load_prepared(prep / "fold1.gprep")
            provenance = {k: v for k, v in prepared.provenance.items() if k != "fold"}
            save_prepared(dataclasses.replace(prepared, provenance=provenance), prep / "fold1.gprep")
        else:
            shutil.copyfile(prep / "fold0.gprep", prep / "fold1.gprep")
        if command == "train":
            args = ["train", "--model", "copy_last"]
        else:
            args = ["evaluate", "--models", "copy_last,lstm",
                    "--models-dir", str(pipeline_dir / "models")]
        result = runner.invoke(
            main, [*args, "--prepared-dir", str(prep), "--out-dir", str(out), *TINY]
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError" and "fold1.gprep" in parsed["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_evaluate_refuses_folds_of_two_prepare_runs(self, runner, pipeline_dir, tmp_path):
        # Fold 1 of a run with another test step and seed replaces fold 1. It
        # still names fold 1, so only fold 0's provenance can tell it apart.
        first, second, out = tmp_path / "first", tmp_path / "second", tmp_path / "eval"
        for prep, test_step, seed in ((first, "144", "1"), (second, "12", "2")):
            result = runner.invoke(
                main,
                ["prepare", "--cgm", str(pipeline_dir / "cgm.csv"), "--out-dir", str(prep),
                 "--folds", "2", "--test-step", test_step, "--seed", seed],
            )
            assert result.exit_code == 0, result.output
        shutil.copyfile(second / "fold1.gprep", first / "fold1.gprep")
        result = runner.invoke(
            main,
            ["evaluate", "--prepared-dir", str(first), "--models", "copy_last",
             "--out-dir", str(out), "--folds", "2"],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError"
        assert "fold1.gprep" in parsed["message"] and "'seed' is 2" in parsed["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_train_refuses_folds_of_two_prepare_runs(self, runner, pipeline_dir, tmp_path):
        # A --seed 2 fold 1 copied into a --seed 1 prepare directory: no fold trains.
        first, second, out = tmp_path / "first", tmp_path / "second", tmp_path / "models"
        for prep, seed in ((first, "1"), (second, "2")):
            result = runner.invoke(
                main,
                ["prepare", "--cgm", str(pipeline_dir / "cgm.csv"), "--out-dir", str(prep),
                 "--folds", "2", "--test-step", "144", "--seed", seed],
            )
            assert result.exit_code == 0, result.output
        shutil.copyfile(second / "fold1.gprep", first / "fold1.gprep")
        result = runner.invoke(
            main,
            ["train", "--prepared-dir", str(first), "--model", "lstm", "--out-dir", str(out),
             "--folds", "2", "--epochs", "1", "--hidden", "2", "--layers", "1", "--seed", "1"],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError"
        assert "fold1.gprep" in parsed["message"] and "'seed' is 2" in parsed["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_a_corrupt_store_fails_before_any_fold_trains(
        self, runner, pipeline_dir, tmp_path, monkeypatch
    ):
        # The lowest mantissa bit of the last reading in fold 0's store: the
        # value stays finite, so only the store's SHA-256 can tell.
        prep, out = tmp_path / "prep", tmp_path / "models"
        shutil.copytree(pipeline_dir / "prep", prep)
        path = prep / "fold0.gprep"
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1  # little-endian: the last reading's lowest byte
        path.write_bytes(bytes(raw))
        calls = []
        monkeypatch.setattr(workflows, "train_fold", lambda *args: calls.append(args))
        result = runner.invoke(
            main, ["train", "--prepared-dir", str(prep), "--model", "lstm", "--out-dir", str(out),
                   "--epochs", "1", "--hidden", "2", "--layers", "1", *TINY],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError" and "SHA-256" in parsed["message"]
        assert calls == []
        assert not out.exists() or not any(out.iterdir())

    def test_train_refuses_a_fold_of_another_corpus(
        self, runner, pipeline_dir, tmp_path, monkeypatch
    ):
        # The same flags on two corpora: the provenances agree, the store digests do not.
        first, second, out = tmp_path / "first", tmp_path / "second", tmp_path / "models"
        other = tmp_path / "other.csv"
        result = runner.invoke(
            main, ["synth", "--patients", "4", "--days", "8", "--seed", "12",
                   "--out-cgm", str(other), "--out-patients", str(tmp_path / "patients.csv")],
        )
        assert result.exit_code == 0, result.output
        for prep, cgm in ((first, pipeline_dir / "cgm.csv"), (second, other)):
            result = runner.invoke(
                main, ["prepare", "--cgm", str(cgm), "--out-dir", str(prep), "--folds", "2",
                       "--test-step", "144", "--seed", "1"],
            )
            assert result.exit_code == 0, result.output
        shutil.copyfile(second / "fold1.gprep", first / "fold1.gprep")
        calls = []
        monkeypatch.setattr(workflows, "train_fold", lambda *args: calls.append(args))
        result = runner.invoke(
            main, ["train", "--prepared-dir", str(first), "--model", "copy_last",
                   "--out-dir", str(out), "--folds", "2", "--seed", "1"],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError"
        assert "fold1.gprep: store SHA-256" in parsed["message"]
        assert calls == []
        assert not out.exists() or not any(out.iterdir())

    def test_evaluate_refuses_a_v2_fold(self, runner, pipeline_dir, tmp_path):
        prep, out = tmp_path / "prep", tmp_path / "eval"
        shutil.copytree(pipeline_dir / "prep", prep)
        path = prep / "fold1.gprep"
        raw = bytearray(path.read_bytes())
        raw[8] = 2  # the version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        result = runner.invoke(
            main, ["evaluate", "--prepared-dir", str(prep), "--models", "copy_last",
                   "--out-dir", str(out), *TINY],
        )
        assert result.exit_code == 3, result.output
        (line,) = result.output.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "FormatError" and "fold1.gprep" in parsed["message"]
        assert "re-run prepare" in parsed["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_variance_tau_is_rejected(self, runner, pipeline_dir, tmp_path, tau):
        out = tmp_path / "stats"
        result = runner.invoke(
            main,
            ["stats", "--cgm", str(pipeline_dir / "cgm.csv"),
             "--patients", str(pipeline_dir / "patients.csv"), "--out-dir", str(out),
             "--variance-tau", tau],
        )
        assert result.exit_code == 2, result.output
        (line,) = result.output.strip().splitlines()
        assert json.loads(line)["error"] == "InvalidValueError"
        assert not out.exists()


# The faults injected into the k-th OutputTracker.register call, rotated with
# k, and the exit code each must end in.
FAULTS = [
    (lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 3),
    (lambda: MemoryError("injected"), 5),
    (KeyboardInterrupt, 130),
]


def _tree(base):
    """Every entry under base: a file's bytes, None for a directory."""
    return {p.relative_to(base): p.read_bytes() if p.is_file() else None for p in base.rglob("*")}


def test_lstm_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """synth, prepare, train --model lstm and evaluate --models lstm write the
    same bytes under one and under two OpenBLAS threads, with full 128-row
    training minibatches."""
    commands = [
        ["synth", "--patients", "4", "--days", "6", "--out-cgm", "{base}/cgm.csv",
         "--out-patients", "{base}/patients.csv"],
        ["prepare", "--cgm", "{base}/cgm.csv", "--out-dir", "{base}/prep", "--folds", "2",
         "--train-step", "8", "--test-step", "144"],
        ["train", "--prepared-dir", "{base}/prep", "--model", "lstm", "--out-dir",
         "{base}/models", "--folds", "2", "--epochs", "1", "--batch", "128", "--hidden", "4",
         "--layers", "2"],
        ["evaluate", "--prepared-dir", "{base}/prep", "--models", "lstm", "--models-dir",
         "{base}/models", "--out-dir", "{base}/eval", "--folds", "2"],
    ]
    digests = {}
    for threads in ("1", "2"):
        base = tmp_path / f"threads{threads}"
        env = dict(src_env(), OPENBLAS_NUM_THREADS=threads)
        for command in commands:
            subprocess.run([sys.executable, "-m", "glyco.cli", *protocol_args(command, base, 5)],
                           env=env, cwd=tmp_path, capture_output=True, check=True)
        digests[threads] = protocol_digests(base)
    assert {
        "models/lstm_fold1.glstm", "models/lstm_fold1_curve.csv", "eval/eval_report.json",
    } <= set(digests["1"])
    assert digests["1"] == digests["2"]


def test_a_failed_step_leaves_the_tree_as_it_was(runner, tmp_path, monkeypatch):
    """Run the protocol once, then rerun each command with another seed and
    its k-th output registration failing, for every k: each rerun must end
    in its exit code and one JSON line, with every entry as it was."""
    base = tmp_path / "run"
    base.mkdir()
    (base / "cohorts.csv").write_text(PROTOCOL_COHORTS)
    register, registered = workflows.OutputTracker.register, []

    def counted(self, path):
        registered.append(path)
        return register(self, path)

    monkeypatch.setattr(workflows.OutputTracker, "register", counted)
    counts = []
    for command in PROTOCOL:
        registered.clear()
        result = runner.invoke(main, protocol_args(command, base, 21))
        assert result.exit_code == 0, result.output
        counts.append(len(registered))
    before = _tree(base)

    for command, count in zip(PROTOCOL, counts):
        assert count > 0, command[0]
        for k in range(1, count + 1):
            fault, code = FAULTS[(k - 1) % len(FAULTS)]
            calls = itertools.count(1)

            def failing(self, path, k=k, fault=fault, calls=calls):
                if next(calls) == k:
                    raise fault()
                return register(self, path)

            monkeypatch.setattr(workflows.OutputTracker, "register", failing)
            result = runner.invoke(main, protocol_args(command, base, 22))
            where = f"{command[0]} with registration {k} of {count} failing"
            assert result.exit_code == code, (where, result.output)
            assert result.stdout == "", where
            (line,) = result.stderr.splitlines()
            assert json.loads(line)["error"] == type(fault()).__name__, where
            assert not leftovers(base), where
            assert _tree(base) == before, where


def test_a_failed_rename_in_the_commit_leaves_new_files_before_it(
    runner, pipeline_dir, tmp_path, monkeypatch
):
    """Fail the k-th rename of a train run's commit, for every k: the run ends
    in exit 3 and one JSON line, the files renamed before k are the new ones,
    the rest and the report are as they were, no stage is left, and a rerun
    then succeeds."""

    def train(out, epochs):
        return runner.invoke(main, [
            "train", "--prepared-dir", str(pipeline_dir / "prep"), "--model", "lstm",
            "--out-dir", str(out), "--hidden", "2", "--layers", "1", "--epochs", str(epochs),
            *TINY])

    def files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    for out, epochs in ((tmp_path / "old", 1), (tmp_path / "new", 2)):
        assert train(out, epochs).exit_code == 0
    old, new = files(tmp_path / "old"), files(tmp_path / "new")
    assert old.keys() == new.keys() and all(old[name] != new[name] for name in old)

    commit, replace, order = workflows.OutputTracker.commit, os.replace, []

    def failing_commit(self, k):
        order[:] = [path.name for path in self.staged]
        calls = itertools.count(1)

        def failing_replace(src, dst):
            if next(calls) == k:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace)
            commit(self)

    for k in range(1, len(old) + 1):
        out = tmp_path / f"run{k}"
        shutil.copytree(tmp_path / "old", out)
        monkeypatch.setattr(
            workflows.OutputTracker, "commit", functools.partialmethod(failing_commit, k=k)
        )
        result = train(out, 2)
        assert result.exit_code == 3, (k, result.output)
        assert result.stdout == "", k
        (line,) = result.stderr.splitlines()
        assert json.loads(line)["error"] == "OSError", k
        assert not leftovers(out), k
        assert sorted(order) == sorted(old) and order[-1] == "train_lstm_report.json"
        renamed = set(order[: k - 1])
        assert files(out) == {name: (new if name in renamed else old)[name] for name in old}, k
        monkeypatch.setattr(workflows.OutputTracker, "commit", commit)
        assert train(out, 2).exit_code == 0, k
        assert files(out) == new, k


def _one_sequence_cohort(base):
    """A CGM CSV in which p0 has five sequences of 150 readings and p1 one, and
    cohorts a = {p0} and b = {p1}: b's one sequence leaves a side of every fold empty."""
    ids, stamps = [], []
    for pid, n_sequences in (("p0", 5), ("p1", 1)):
        for s in range(n_sequences):
            start = 1_000_000 + s * 100_000
            ids += [pid] * 150
            stamps += range(start, start + 150 * 300, 300)
    values = 100.0 + 30.0 * np.sin(np.arange(len(ids)) / 20.0)
    write_cgm_csv(Corpus(ids, stamps, values), base / "cgm.csv")
    (base / "cohorts.csv").write_text("patient_id,cohort\np0,a\np1,b\n")


@pytest.mark.parametrize(
    "command, fold", [("prepare", 0), ("cohort-compare", 0), ("cohort-compare", 1),
                      ("cohort-compare", 2)]
)
def test_a_cohort_with_an_empty_fold_side_fails_before_training(
    runner, tmp_path, monkeypatch, command, fold
):
    _one_sequence_cohort(tmp_path)

    def no_training(*args):
        raise AssertionError("a model trained")

    monkeypatch.setattr(workflows, "train_fold", no_training)
    out = tmp_path / "out"
    shared = ["--cgm", str(tmp_path / "cgm.csv"), "--cohorts", str(tmp_path / "cohorts.csv"),
              "--out-dir", str(out), "--folds", "3"]
    if command == "prepare":
        args = ["prepare", *shared, "--cohort", "b"]
    else:
        args = ["evaluate", "--mode", "cohort-compare", *shared, "--model", "hmm",
                "--fold", str(fold)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "DataError"
    assert re.fullmatch(f"cohort 'b' has no (train|test) sequence in fold {fold}", error["message"])
    assert not out.exists()


# The step each config-resolving command runs; bolus resolves no config.
STEPS = {
    "synth": workflows.run_synth,
    "ingest": workflows.run_ingest,
    "stats": workflows.run_stats,
    "cluster": workflows.run_cluster,
    "prepare": workflows.run_prepare,
    "train": workflows.run_train,
    "evaluate": cli._evaluate,
    "explain": workflows.run_explain,
}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


class TestNamingRule:
    def test_every_command_is_covered(self):
        assert set(main.commands) == {*STEPS, "bolus"}

    @pytest.mark.parametrize("command", sorted(STEPS))
    def test_each_parameter_is_the_config_file_a_field_or_a_step_argument(self, command):
        step_args = set(inspect.signature(STEPS[command]).parameters) - {"tracker", "config"}
        assert not step_args & CONFIG_FIELDS
        for param in main.commands[command].params:
            assert param.name == "config_path" or param.name in CONFIG_FIELDS | step_args, (
                param.name
            )

    def test_bolus_takes_no_config(self):
        names = {param.name for param in main.commands["bolus"].params}
        assert not names & (CONFIG_FIELDS | {"config_path"})

    def test_bolus_ignores_glyco_seed(self, runner, monkeypatch):
        monkeypatch.setenv("GLYCO_SEED", "not a number")
        result = runner.invoke(
            main,
            ["bolus", "--cho", "60", "--cr", "10", "--gc", "180", "--gt", "120", "--cf", "30"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["units"] == 8.0

    @pytest.mark.parametrize("command", sorted([*STEPS, "bolus"]))
    def test_help_exits_0(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0 and result.output.startswith("Usage: ")


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
