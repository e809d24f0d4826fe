"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them live).

The final criterion needs a real externally-supplied corpus and is skipped
with an explanatory message when the GLYCO_CITY_CGM environment variable
does not point at one.
"""

import itertools
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import (
    PROTOCOL, PROTOCOL_COHORTS, in_float64, leftovers, protocol_args, protocol_digests,
)

from glyco.baselines import copy_last, linreg_forecast
from glyco.cli import main as cli_main
from glyco.clinical import BolusInputs, bolus
from glyco.config import RunConfig
from glyco.hmm import HmmModel, _floor_normalize, baum_welch, viterbi
from glyco.ingest import synth_corpus
from glyco.lstm import (
    _loss_and_gradients_batch,
    forget_trace,
    new_network,
    param_count,
    rollout_batch,
    train,
)
from glyco.metrics import esod_n, prf1, rmse
from glyco.pipeline import kfold_split, prepare, segment, window_count
from glyco.stats import FeatureMatrix, gmm_assign, gmm_fit


@contextmanager
def criterion(number: int, label: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE C{number:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    within = budget_s is None or elapsed < budget_s
    budget = "n/a" if budget_s is None else f"{budget_s:.0f}s"
    print(
        f"\nACCEPTANCE C{number:02d} {'PASS' if within else 'FAIL'} {label} "
        f"({elapsed:.1f}s, budget {budget})"
    )
    assert within, f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s"


def test_c01_parameter_count_oracle():
    with criterion(1, "parameter count of the reference architecture is 1513", 1.0):
        net = new_network(hidden_size=8, n_layers=3, seed=0)
        assert param_count(8, 3) == 1513
        assert net.params.size == 1513


def test_c02_gradient_correctness():
    with criterion(2, "BPTT gradients match central finite differences (20 configs)", 60.0):
        rng = np.random.default_rng(1234)
        eps = 1e-5
        for config_index in range(20):
            h = int(rng.integers(1, 5))
            n_layers = int(rng.integers(1, 3))
            seq = int(rng.integers(2, 9))
            horizon = int(rng.integers(1, 4))
            # float64, the reference precision: the finite differences need its digits
            net = in_float64(new_network(hidden_size=h, n_layers=n_layers, seed=config_index))
            values = net.scaler.scale(rng.uniform(60, 350, (1, seq)))
            target = net.scaler.scale(rng.uniform(60, 350, (1, horizon)))
            _, analytic = _loss_and_gradients_batch(net, values, target)

            flat = net.params.copy()
            numeric = np.empty_like(analytic)
            for index in range(flat.size):
                net.params[index] += eps
                up, _ = _loss_and_gradients_batch(net, values, target)
                net.params[index] -= 2 * eps
                down, _ = _loss_and_gradients_batch(net, values, target)
                numeric[index] = (up - down) / (2 * eps)
                net.params[index] = flat[index]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = float(np.max(np.abs(analytic - numeric) / denom))
            assert worst < 1e-4, f"config {config_index}: relative error {worst:.2e}"


def test_c03_viterbi_oracle_equivalence():
    with criterion(3, "Viterbi equals exhaustive enumeration (100 random models)", 30.0):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 5))
            t = int(rng.integers(1, 9))
            model = HmmModel(
                _floor_normalize(rng.random(n)),
                _floor_normalize(rng.random((n, n))),
                _floor_normalize(rng.random((n, m))),
            )
            symbols = rng.integers(0, m, size=t)
            (path,), (log_prob,) = viterbi(model, symbols[None])

            log_pi, log_a, log_b = map(np.log, (model.initial, model.transition, model.emission))
            paths = np.array(list(itertools.product(range(n), repeat=t)), dtype=np.int64)
            scores = log_pi[paths[:, 0]] + log_b[paths[:, 0], symbols[0]]
            for step in range(1, t):
                scores = scores + log_a[paths[:, step - 1], paths[:, step]]
                scores = scores + log_b[paths[:, step], symbols[step]]
            best = float(np.max(scores))
            assert log_prob == pytest.approx(best, abs=1e-9)
            # the returned path must be one of the exact argmax paths; ties
            # between distinct optimal paths are real (equal transition and
            # emission multisets), so equality is only forced when unique
            argmax_rows = paths[scores >= best - 1e-12]
            assert any(np.array_equal(path, row) for row in argmax_rows)
            if argmax_rows.shape[0] == 1:
                np.testing.assert_array_equal(path, argmax_rows[0])


def test_c04_baum_welch_monotone_and_recovery():
    with criterion(4, "Baum-Welch log-likelihood monotone; recovers 2-state chain", 60.0):
        rng = np.random.default_rng(2024)
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        states = np.empty(5000, dtype=int)
        observations = np.empty(5000, dtype=int)
        states[0] = rng.choice(2)
        for t in range(1, 5000):
            states[t] = rng.choice(2, p=a[states[t - 1]])
        for t in range(5000):
            observations[t] = rng.choice(2, p=b[states[t]])

        model = baum_welch(observations[None], n_states=2, n_symbols=2, max_iter=60, seed=0)
        history = np.array(model.log_likelihood_history)
        assert np.all(np.diff(history) >= -1e-8), "log-likelihood dropped"
        recovery = min(
            np.abs(np.eye(2)[list(perm)] @ model.transition @ np.eye(2)[list(perm)].T - a).max()
            for perm in itertools.permutations(range(2))
        )
        assert recovery < 0.05, f"transition recovery error {recovery:.3f}"


def test_c05_gmm_em_purity():
    with criterion(5, "GMM-EM monotone; 3 blobs clustered at >=99% purity", 30.0):
        rng = np.random.default_rng(31)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        points = np.concatenate([rng.normal(c, 0.05, (60, 2)) for c in centers])
        truth = np.repeat(np.arange(3), 60)
        matrix = FeatureMatrix(tuple(f"p{i}" for i in range(len(points))), ("x", "y"), points)
        model = gmm_fit(matrix, k=3, n_init=20, max_iter=200, seed=5)
        history = np.array(model.log_likelihood_history)
        assert np.all(np.diff(history) >= -1e-8)
        labels = gmm_assign(model, matrix)
        purity = max(
            float(np.mean(np.array([perm[l] for l in labels]) == truth))
            for perm in itertools.permutations(range(3))
        )
        assert purity >= 0.99, f"purity {purity:.3f}"


def test_c06_metric_identities_and_bolus():
    with criterion(6, "metric identities and the bolus worked example", 5.0):
        rng = np.random.default_rng(7)
        reference = rng.uniform(60, 350, (1, 12))
        assert rmse(reference, reference) == 0.0
        assert rmse(reference + 7.5, reference) == pytest.approx(7.5, abs=1e-12)
        assert esod_n(reference, reference)[0] == pytest.approx(1.0, abs=1e-12)

        for _ in range(25):
            window_values = rng.uniform(60, 350, 132)
            curved_target = rng.uniform(60, 350, (1, 12))
            for forecast in (copy_last(window_values), linreg_forecast(window_values)):
                ratio = esod_n(forecast[None], curved_target)[0]
                assert np.isnan(ratio) or ratio < 1e-12

        scores = prf1(rng.uniform(40, 400, (60, 12)), rng.uniform(40, 400, (60, 12)))["abnormal"]
        p, r, f1 = scores["precision"], scores["recall"], scores["f1"]
        assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

        dose = bolus(BolusInputs(cho_g=60, cr=10, gc_mgdl=180, gt_mgdl=120, cf=30, ps=1, iob=2))
        assert dose.units == pytest.approx(6.0, abs=1e-12)


def test_c07_pipeline_safety():
    with criterion(7, "window-count formula, leakage freedom, fold partition", 30.0):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            length = int(rng.integers(0, 600))
            total = int(rng.integers(2, 200))
            step = int(rng.integers(1, 160))
            brute = sum(1 for o in range(0, length + 1, step) if o + total <= length)
            assert window_count(length, total, step) == brute

        corpus = synth_corpus(6, 10, seed=3)
        sequences = segment(corpus)
        folds = kfold_split(sequences, k=5, seed=3)

        eligible = set(np.flatnonzero(sequences.lengths >= 144).tolist())
        test_ids = [set(f.test_sequence_ids) for f in folds]
        assert set().union(*test_ids) == eligible
        assert sum(len(t) for t in test_ids) == len(eligible)

        for fold in folds:
            prepared = prepare(sequences, fold, train_step=12, test_step=144)
            train_points = {
                (int(sid), int(offset) + j)
                for sid, offset in zip(prepared.train_seq_ids, prepared.train_offsets)
                for j in range(144)
            }
            test_points = {
                (int(sid), int(offset) + j)
                for sid, offset in zip(prepared.test_seq_ids, prepared.test_offsets)
                for j in range(144)
            }
            assert not (train_points & test_points), f"fold {fold.fold_index} leaks readings"


def test_c08_end_to_end_learning_signal():
    with criterion(8, "5-epoch network beats copy-last pooled over 5 folds", 600.0):
        corpus = synth_corpus(20, 30, seed=7)
        sequences = segment(corpus)
        folds = kfold_split(sequences, k=5, seed=7)

        lstm_preds, copy_preds, targets = [], [], []
        best_net = None
        for fold in folds:
            prepared = prepare(sequences, fold, train_step=8, test_step=144)
            seed = 7 + fold.fold_index
            net = new_network(hidden_size=8, n_layers=3, seed=seed)
            best_net, _, _ = train(
                net, prepared, epochs=5, batch=128, lr=0.01, heuristic_test_n=1000, seed=seed
            )
            lstm_preds.append(rollout_batch(best_net, prepared.test_inputs))
            copy_preds.append(copy_last(prepared.test_inputs))
            targets.append(prepared.test_targets)

        lstm_rmse = rmse(np.concatenate(lstm_preds), np.concatenate(targets))
        copy_rmse = rmse(np.concatenate(copy_preds), np.concatenate(targets))
        assert lstm_rmse < copy_rmse, f"{lstm_rmse:.2f} not below copy-last {copy_rmse:.2f}"

        probe = synth_corpus(1, 2, seed=9).values[:132]
        trace = forget_trace(best_net, probe[None], horizon=12)
        assert trace.shape == (3, 143, 8)
        assert np.all(trace > 0.0) and np.all(trace < 1.0)


def test_c09_subcommand_determinism(tmp_path):
    with criterion(9, "reruns with identical config produce byte-identical outputs", None):
        runner = CliRunner()

        def run(args):
            result = runner.invoke(cli_main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output

        outputs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            (base / "cohorts.csv").write_text(PROTOCOL_COHORTS)
            for command in PROTOCOL:
                run(protocol_args(command, base, 21))
            assert not leftovers(base)
            outputs[tag] = protocol_digests(base)
        assert sorted(outputs["a"]) == sorted(outputs["b"])
        assert {
            "models/lstm_fold2.glstm", "models/hmm_fold2.ghmm", "eval/scatter_hmm.csv",
            "trace.csv", "compare/hmm_b.ghmm", "compare/cohort_compare.json",
            "cgm.csv.gcorpus", "ingest/corpus.csv.gcorpus", "prep_a/fold2.gprep",
        } <= set(outputs["a"])
        for name, digest in outputs["a"].items():
            assert digest == outputs["b"][name], f"{name} differs between identical reruns"


CITY_ENV = "GLYCO_CITY_CGM"


def test_c10_optional_real_corpus_protocol():
    path = os.environ.get(CITY_ENV)
    if not path:
        pytest.skip(
            f"criterion 10 needs a user-supplied real corpus: set {CITY_ENV} to a "
            "patient_id,timestamp,glucose_mgdl CSV to run the full protocol"
        )
    with criterion(10, "full protocol on the supplied corpus reproduces the ordering", None):
        from glyco.workflows import OutputTracker, run_evaluate, run_prepare, run_train

        out = os.environ.get("GLYCO_CITY_OUT", "city_run")
        tracker = OutputTracker()
        lstm_config = RunConfig()
        heuristic_config = RunConfig(train_step=144, test_step=144)
        run_prepare(tracker, lstm_config, path, f"{out}/prep_lstm")
        run_prepare(tracker, heuristic_config, path, f"{out}/prep_seg")
        run_train(tracker, lstm_config, f"{out}/prep_lstm", "lstm", f"{out}/models")
        run_train(tracker, heuristic_config, f"{out}/prep_seg", "hmm", f"{out}/models")
        lstm_doc = run_evaluate(
            tracker, lstm_config, f"{out}/prep_lstm", ["lstm"], f"{out}/models", f"{out}/eval_lstm"
        )
        seg_doc = run_evaluate(
            tracker, heuristic_config, f"{out}/prep_seg", ["copy_last", "linreg", "hmm"],
            f"{out}/models", f"{out}/eval_seg",
        )
        scores = {
            entry["model"]: entry["aggregate"]["rmse"]["mean"]
            for entry in lstm_doc["models"] + seg_doc["models"]
        }
        print(json.dumps(scores, sort_keys=True))
        assert scores["lstm"] < scores["copy_last"] < scores["linreg"] < scores["hmm"]
        assert abs(scores["lstm"] - 28.55) <= 0.2 * 28.55
