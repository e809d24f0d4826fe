import itertools
import json

import numpy as np
import pytest

from glyco.errors import DataError, FormatError, InvalidValueError
from glyco.hmm import (
    HmmModel,
    Quantizer,
    _floor_normalize,
    baum_welch,
    hmm_forecast,
    load_hmm,
    log_backward,
    log_forward,
    save_hmm,
    sequence_log_likelihood,
    viterbi,
)


def random_model(rng, n_states, n_symbols):
    pi = _floor_normalize(rng.random(n_states))
    a = _floor_normalize(rng.random((n_states, n_states)))
    b = _floor_normalize(rng.random((n_states, n_symbols)))
    return HmmModel(np.log(pi), np.log(a), np.log(b))


def near_deterministic_model(a, b, pi=None):
    """Build a model from hard 0/1 matrices, smoothed by the probability floor."""
    a = _floor_normalize(np.asarray(a, dtype=float))
    b = _floor_normalize(np.asarray(b, dtype=float))
    n = a.shape[0]
    pi = _floor_normalize(np.asarray(pi if pi is not None else np.full(n, 1.0 / n)))
    return HmmModel(np.log(pi), np.log(a), np.log(b))


def brute_force_path(model, symbols):
    """Exhaustive argmax over all state paths, in lexicographic order."""
    n, t = model.n_states, len(symbols)
    paths = np.array(list(itertools.product(range(n), repeat=t)), dtype=np.int64)
    lp = model.log_initial[paths[:, 0]] + model.log_emission[paths[:, 0], symbols[0]]
    for i in range(1, t):
        lp = lp + model.log_transition[paths[:, i - 1], paths[:, i]]
        lp = lp + model.log_emission[paths[:, i], symbols[i]]
    best = int(np.argmax(lp))
    return paths[best], float(lp[best])


def path_score(model, path, symbols):
    """Joint log-probability of one explicit state path."""
    total = model.log_initial[path[0]] + model.log_emission[path[0], symbols[0]]
    for i in range(1, len(symbols)):
        total += model.log_transition[path[i - 1], path[i]]
        total += model.log_emission[path[i], symbols[i]]
    return float(total)


def sample_sequence(rng, a, b, pi, length):
    states = np.empty(length, dtype=int)
    obs = np.empty(length, dtype=int)
    states[0] = rng.choice(len(pi), p=pi)
    for t in range(1, length):
        states[t] = rng.choice(len(pi), p=a[states[t - 1]])
    for t in range(length):
        obs[t] = rng.choice(b.shape[1], p=b[states[t]])
    return obs


class TestQuantizer:
    def test_encode_bounds(self):
        q = Quantizer(10, 40.0, 400.0)
        values = np.array([-5.0, 40.0, 400.0, 1000.0, 220.0])
        symbols = q.encode(values)
        assert symbols.min() >= 0 and symbols.max() <= 9
        assert symbols[0] == 0 and symbols[3] == 9

    def test_decode_is_midpoint(self):
        q = Quantizer(4, 0.0, 8.0)
        np.testing.assert_allclose(q.decode(np.arange(4)), [1.0, 3.0, 5.0, 7.0])

    def test_round_trip_within_half_bin(self):
        q = Quantizer(25, 40.0, 400.0)
        values = np.linspace(40.0, 399.999, 113)
        recovered = q.decode(q.encode(values))
        assert np.max(np.abs(recovered - values)) <= q.width / 2 + 1e-9

    def test_from_values(self):
        q = Quantizer.from_values(np.array([70.0, 180.0, 250.0]), 5)
        assert q.lo == 70.0 and q.hi == 250.0

    def test_invalid(self):
        with pytest.raises(InvalidValueError):
            Quantizer(0, 0.0, 1.0)
        with pytest.raises(InvalidValueError):
            Quantizer(3, 5.0, 5.0)
        with pytest.raises(InvalidValueError):
            Quantizer(3, 0.0, 3.0).decode(3)


class TestBaumWelch:
    def test_one_state_concentrates_emission(self):
        model = baum_welch([np.zeros(3, dtype=int)], n_states=1, n_symbols=2, max_iter=20, seed=0)
        assert model.emission[0, 0] > 0.999
        assert abs(model.final_log_likelihood) < 1e-6

    def test_two_state_recovery_up_to_permutation(self):
        rng = np.random.default_rng(2024)
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        pi = np.array([0.5, 0.5])
        obs = sample_sequence(rng, a, b, pi, 5000)
        model = baum_welch([obs], n_states=2, n_symbols=2, max_iter=60, tol=1e-6, seed=0)
        errors = []
        for perm in itertools.permutations(range(2)):
            p = np.eye(2)[list(perm)]
            errors.append(np.abs(p @ model.transition @ p.T - a).max())
        assert min(errors) < 0.05

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(77)
        obs = [rng.integers(0, 4, size=60) for _ in range(5)]
        model = baum_welch(obs, n_states=3, n_symbols=4, max_iter=40, seed=1)
        history = np.array(model.log_likelihood_history)
        assert np.all(np.diff(history) >= -1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        obs = [rng.integers(0, 3, size=40) for _ in range(3)]
        a = baum_welch(obs, n_states=2, n_symbols=3, max_iter=25, seed=9)
        b = baum_welch(obs, n_states=2, n_symbols=3, max_iter=25, seed=9)
        np.testing.assert_array_equal(a.log_transition, b.log_transition)
        np.testing.assert_array_equal(a.log_emission, b.log_emission)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(6)
        obs = [rng.integers(0, 3, size=50)]
        model = baum_welch(obs, n_states=3, n_symbols=3, max_iter=30, seed=2)
        np.testing.assert_allclose(model.initial.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)

    def test_smoothing_floor_keeps_logs_finite(self):
        # a symbol never observed would otherwise drive its emission to zero
        obs = [np.zeros(40, dtype=int)]
        model = baum_welch(obs, n_states=2, n_symbols=4, max_iter=20, seed=3)
        assert np.all(np.isfinite(model.log_initial))
        assert np.all(np.isfinite(model.log_transition))
        assert np.all(np.isfinite(model.log_emission))

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            baum_welch([], n_states=2, n_symbols=2)

    def test_symbol_out_of_range(self):
        with pytest.raises(DataError):
            baum_welch([np.array([0, 5])], n_states=2, n_symbols=2)


class TestForwardBackward:
    def test_alpha_beta_agree_on_total_likelihood(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 5)), 4)
            symbols = rng.integers(0, 4, size=int(rng.integers(2, 12)))
            la = log_forward(model, symbols)
            lb = log_backward(model, symbols)
            from_alpha = np.logaddexp.reduce(la[-1])
            from_beta = np.logaddexp.reduce(
                model.log_initial + model.log_emission[:, symbols[0]] + lb[0]
            )
            assert from_alpha == pytest.approx(from_beta, abs=1e-9)


class TestViterbi:
    def test_single_state(self):
        model = near_deterministic_model([[1.0]], [[0.3, 0.7]])
        symbols = np.array([0, 1, 1])
        path, lp = viterbi(model, symbols)
        np.testing.assert_array_equal(path, [0, 0, 0])
        expected = float(np.sum(model.log_emission[0, symbols])) + model.log_initial[0]
        assert lp == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            model = random_model(rng, n, 3)
            symbols = rng.integers(0, 3, size=int(rng.integers(2, 7)))
            path, lp = viterbi(model, symbols)
            brute_path, brute_lp = brute_force_path(model, symbols)
            assert lp == pytest.approx(brute_lp, abs=1e-9)
            # the returned path must itself achieve the optimum; exact ties
            # between distinct optimal paths are real, so identity with the
            # enumerator's pick is only required when they do not tie
            assert path_score(model, path, symbols) == pytest.approx(brute_lp, abs=1e-12)
            if not np.array_equal(path, brute_path):
                assert path_score(model, brute_path, symbols) == pytest.approx(
                    path_score(model, path, symbols), abs=1e-12
                )

    def test_identity_emissions_echo_symbols(self):
        model = near_deterministic_model(np.full((3, 3), 1.0 / 3), np.eye(3))
        symbols = np.array([2, 0, 1, 1, 2])
        path, _ = viterbi(model, symbols)
        np.testing.assert_array_equal(path, symbols)

    def test_empty_rejected(self):
        model = near_deterministic_model([[1.0]], [[1.0]])
        with pytest.raises(DataError):
            viterbi(model, np.array([], dtype=int))


class TestForecast:
    def test_identity_transition_constant_forecast(self):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        q = Quantizer(2, 0.0, 2.0)
        out = hmm_forecast(model, q, np.array([0.5, 0.5, 0.5]), horizon=5)
        np.testing.assert_allclose(out, np.full(5, 0.5))

    def test_two_state_cycle_alternates(self):
        # transition swaps the states; emissions echo the state index
        model = near_deterministic_model([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
        q = Quantizer(2, 0.0, 2.0)
        out = hmm_forecast(model, q, np.array([0.5, 1.5, 0.5]), horizon=4)
        np.testing.assert_allclose(out, [1.5, 0.5, 1.5, 0.5])

    def test_symbol_count_mismatch(self):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        with pytest.raises(DataError):
            hmm_forecast(model, Quantizer(3, 0.0, 3.0), np.array([1.0]))


class TestRoundTrip:
    def test_save_load_within_1e12(self, tmp_path):
        rng = np.random.default_rng(3)
        obs = [rng.integers(0, 5, size=80) for _ in range(2)]
        model = baum_welch(obs, n_states=4, n_symbols=5, max_iter=15, seed=4)
        q = Quantizer(5, 40.0, 400.0)
        path = tmp_path / "model.json"
        save_hmm(model, q, path)
        loaded, loaded_q = load_hmm(path)
        np.testing.assert_allclose(loaded.transition, model.transition, atol=1e-12)
        np.testing.assert_allclose(loaded.emission, model.emission, atol=1e-12)
        np.testing.assert_allclose(loaded.initial, model.initial, atol=1e-12)
        assert loaded_q == q

        values = rng.uniform(50, 390, size=40)
        np.testing.assert_array_equal(
            hmm_forecast(model, q, values), hmm_forecast(loaded, loaded_q, values)
        )

    def test_bad_payload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{\"format\": \"other\"}", encoding="utf-8")
        with pytest.raises(FormatError):
            load_hmm(path)

    def test_version_mismatch(self, tmp_path):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        path = tmp_path / "m.json"
        save_hmm(model, Quantizer(2, 0.0, 2.0), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="version"):
            load_hmm(path)

    def test_missing_key_is_format_error(self, tmp_path):
        path = tmp_path / "m.json"
        save_hmm(near_deterministic_model(np.eye(2), np.eye(2)), Quantizer(2, 0.0, 2.0), path)
        doc = json.loads(path.read_text())
        del doc["initial"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="initial"):
            load_hmm(path)

    @pytest.mark.parametrize("payload", ["[1, 2]", "7", "null", "\"glyco-hmm\""])
    def test_non_object_json_is_format_error(self, tmp_path, payload):
        path = tmp_path / "m.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(FormatError, match="not an HMM model file"):
            load_hmm(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quantizer", [2, 0.0, 2.0]),
            ("initial", "abc"),
            ("transition", {"a": 1}),
            ("trained_iterations", 1.5),
            ("quantizer", {"n_symbols": "2", "lo": 0.0, "hi": 2.0}),
            ("quantizer", {"n_symbols": 2, "lo": "0", "hi": 2.0}),
        ],
    )
    def test_wrongly_typed_field_is_format_error(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        save_hmm(near_deterministic_model(np.eye(2), np.eye(2)), Quantizer(2, 0.0, 2.0), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_hmm(path)

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format": "glyco-hmm", "note": "\xff\xfe"}')
        with pytest.raises(FormatError):
            load_hmm(path)

    def test_sequence_log_likelihood_finite(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 4)
        assert np.isfinite(sequence_log_likelihood(model, rng.integers(0, 4, 20)))
