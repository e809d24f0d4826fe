import itertools
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from conftest import edit_header
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco import hmm
from glyco.core import write_framed
from glyco.errors import DataError, FormatError, GlycoError, InvalidValueError, NumericError
from glyco.hmm import (
    HmmModel,
    Quantizer,
    _e_step,
    _floor_normalize,
    baum_welch,
    hmm_forecast,
    load_hmm,
    save_hmm,
    viterbi,
)


# Log-space oracle: the per-sequence forward/backward and E-step that the
# batched, scaled E-step in glyco.hmm replaced. It never leaves log space, so
# it cannot underflow, and the scaled E-step must match it within 1e-12.


def logs(model):
    """The model's initial, transition and emission log-probabilities."""
    with np.errstate(divide="ignore"):  # an exact zero has a log of -inf
        return np.log(model.initial), np.log(model.transition), np.log(model.emission)


def ref_logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def log_forward(model, symbols):
    """Log alpha matrix, shape (T, N)."""
    log_pi, log_a, log_b = logs(model)
    t_max = symbols.shape[0]
    la = np.empty((t_max, model.n_states))
    la[0] = log_pi + log_b[:, symbols[0]]
    for t in range(1, t_max):
        la[t] = ref_logsumexp(la[t - 1][:, None] + log_a, axis=0)
        la[t] += log_b[:, symbols[t]]
    return la


def log_backward(model, symbols):
    """Log beta matrix, shape (T, N)."""
    _, log_a, log_b = logs(model)
    t_max = symbols.shape[0]
    lb = np.zeros((t_max, model.n_states))
    for t in range(t_max - 2, -1, -1):
        inner = log_a + log_b[:, symbols[t + 1]][None, :]
        lb[t] = ref_logsumexp(inner + lb[t + 1][None, :], axis=1)
    return lb


def sequence_log_likelihood(model, symbols):
    return float(ref_logsumexp(log_forward(model, symbols)[-1], axis=0))


def ref_expectations(model, sequences):
    """Per-sequence log-likelihoods and pi/A/B accumulators, one sequence at a time."""
    n, m = model.n_states, model.n_symbols
    _, log_a, log_b = logs(model)
    pi_acc, a_acc, b_acc = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    log_likelihoods = []
    for symbols in sequences:
        la = log_forward(model, symbols)
        lb = log_backward(model, symbols)
        ll = float(ref_logsumexp(la[-1], axis=0))
        log_likelihoods.append(ll)
        gamma = np.exp(la + lb - ll)
        pi_acc += gamma[0]
        np.add.at(b_acc.T, symbols, gamma)
        if symbols.shape[0] > 1:
            emit_next = log_b[:, symbols[1:]].T
            xi = np.exp(
                la[:-1, :, None]
                + log_a[None, :, :]
                + (emit_next + lb[1:])[:, None, :]
                - ll
            )
            a_acc += xi.sum(axis=0)
    return np.array(log_likelihoods), pi_acc, a_acc, b_acc


# Frozen per-sequence Viterbi and forecast: the implementation the batched
# ones in glyco.hmm replaced. Paths must be equal and log-probabilities and
# forecasts equal byte for byte, since models and reports are compared byte
# for byte across versions.


def ref_viterbi(model, symbols):
    symbols = np.asarray(symbols, dtype=np.int64)
    log_pi, log_a, log_b = logs(model)
    t_max = symbols.shape[0]
    delta = log_pi + log_b[:, symbols[0]]
    backpointers = np.empty((t_max, model.n_states), dtype=np.int64)
    for t in range(1, t_max):
        scores = delta[:, None] + log_a
        backpointers[t] = np.argmax(scores, axis=0)
        delta = scores[backpointers[t], np.arange(model.n_states)]
        delta = delta + log_b[:, symbols[t]]
    path = np.empty(t_max, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = backpointers[t, path[t]]
    return path, float(delta[path[-1]])


def ref_hmm_forecast(model, quantizer, values, horizon=12):
    symbols = quantizer.encode(np.asarray(values, dtype=float))
    path, _ = ref_viterbi(model, symbols)
    state = int(path[-1])
    out = np.empty(horizon)
    for step in range(horizon):
        state = int(np.argmax(model.transition[state]))
        symbol = int(np.argmax(model.emission[state]))
        out[step] = float(quantizer.decode(symbol))
    return out


def random_model(rng, n_states, n_symbols):
    pi = _floor_normalize(rng.random(n_states))
    a = _floor_normalize(rng.random((n_states, n_states)))
    b = _floor_normalize(rng.random((n_states, n_symbols)))
    return HmmModel(pi, a, b)


def near_deterministic_model(a, b, pi=None):
    """Build a model from hard 0/1 matrices, smoothed by the probability floor."""
    a = _floor_normalize(np.asarray(a, dtype=float))
    b = _floor_normalize(np.asarray(b, dtype=float))
    n = a.shape[0]
    pi = _floor_normalize(np.asarray(pi if pi is not None else np.full(n, 1.0 / n)))
    return HmmModel(pi, a, b)


def brute_force_path(model, symbols):
    """Exhaustive argmax over all state paths, in lexicographic order."""
    n, t = model.n_states, len(symbols)
    log_pi, log_a, log_b = logs(model)
    paths = np.array(list(itertools.product(range(n), repeat=t)), dtype=np.int64)
    lp = log_pi[paths[:, 0]] + log_b[paths[:, 0], symbols[0]]
    for i in range(1, t):
        lp = lp + log_a[paths[:, i - 1], paths[:, i]]
        lp = lp + log_b[paths[:, i], symbols[i]]
    best = int(np.argmax(lp))
    return paths[best], float(lp[best])


def path_score(model, path, symbols):
    """Joint log-probability of one explicit state path."""
    log_pi, log_a, log_b = logs(model)
    total = log_pi[path[0]] + log_b[path[0], symbols[0]]
    for i in range(1, len(symbols)):
        total += log_a[path[i - 1], path[i]]
        total += log_b[path[i], symbols[i]]
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

    @pytest.mark.parametrize(
        "lo, hi", [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf), (0.0, 5e-324)]
    )
    def test_non_finite_bounds_or_width_rejected(self, lo, hi):
        with pytest.raises(InvalidValueError):
            Quantizer(2, lo, hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            Quantizer(10, 40.0, 400.0).encode(np.array([120.0, bad]))

    def test_huge_values_clip_to_the_end_bins(self):
        # beyond the int64 range a cast before the clip would wrap to bin 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            symbols = Quantizer(10, 40.0, 400.0).encode(np.array([1e300, -1e300]))
        assert symbols.tolist() == [9, 0]


class TestBaumWelch:
    def test_one_state_concentrates_emission(self):
        obs = np.zeros((1, 3), dtype=int)
        model = baum_welch(obs, n_states=1, n_symbols=2, max_iter=20, seed=0)
        assert model.emission[0, 0] > 0.999
        assert abs(model.final_log_likelihood) < 1e-6

    def test_two_state_recovery_up_to_permutation(self):
        rng = np.random.default_rng(2024)
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        pi = np.array([0.5, 0.5])
        obs = sample_sequence(rng, a, b, pi, 5000)
        model = baum_welch(obs[None], n_states=2, n_symbols=2, max_iter=60, tol=1e-6, seed=0)
        errors = []
        for perm in itertools.permutations(range(2)):
            p = np.eye(2)[list(perm)]
            errors.append(np.abs(p @ model.transition @ p.T - a).max())
        assert min(errors) < 0.05

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(77)
        obs = rng.integers(0, 4, size=(5, 60))
        model = baum_welch(obs, n_states=3, n_symbols=4, max_iter=40, seed=1)
        history = np.array(model.log_likelihood_history)
        assert np.all(np.diff(history) >= -1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        obs = rng.integers(0, 3, size=(3, 40))
        a = baum_welch(obs, n_states=2, n_symbols=3, max_iter=25, seed=9)
        b = baum_welch(obs, n_states=2, n_symbols=3, max_iter=25, seed=9)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.emission, b.emission)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(6)
        obs = rng.integers(0, 3, size=(1, 50))
        model = baum_welch(obs, n_states=3, n_symbols=3, max_iter=30, seed=2)
        np.testing.assert_allclose(model.initial.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)

    def test_smoothing_floor_keeps_logs_finite(self):
        # a symbol never observed would otherwise drive its emission to zero
        obs = np.zeros((1, 40), dtype=int)
        model = baum_welch(obs, n_states=2, n_symbols=4, max_iter=20, seed=3)
        for log in logs(model):
            assert np.all(np.isfinite(log))

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            baum_welch(np.zeros((0, 5), dtype=int), n_states=2, n_symbols=2)

    def test_symbol_out_of_range(self):
        with pytest.raises(DataError):
            baum_welch(np.array([[0, 5]]), n_states=2, n_symbols=2)

    def test_stops_on_gain_per_observation(self):
        rng = np.random.default_rng(11)
        obs = rng.integers(0, 4, size=(40, 50))
        tol = 1e-4
        model = baum_welch(obs, n_states=3, n_symbols=4, max_iter=500, tol=tol, seed=1)
        assert model.trained_iterations < 500
        gains = np.diff(model.log_likelihood_history) / (40 * 50)
        assert gains[-1] < tol
        assert np.all(gains[:-1] >= tol)

    def test_history_matches_the_oracle_likelihood(self):
        rng = np.random.default_rng(12)
        obs = rng.integers(0, 3, size=(6, 5))
        model = baum_welch(obs, n_states=2, n_symbols=3, max_iter=3, seed=4)
        again = baum_welch(obs, n_states=2, n_symbols=3, max_iter=2, seed=4)
        # the last history entry is the likelihood of the model after two M-steps
        expected = sum(sequence_log_likelihood(again, o) for o in obs)
        assert model.log_likelihood_history[-1] == pytest.approx(expected, rel=1e-12)


class TestScaledEStep:
    @pytest.mark.parametrize("n_states, n_symbols, seed", [(1, 3, 0), (3, 5, 1), (7, 4, 2)])
    def test_matches_log_space_oracle(self, monkeypatch, n_states, n_symbols, seed):
        # a chunk of 4 rows splits every array, so chunk boundaries are exercised
        monkeypatch.setattr(hmm, "E_STEP_CHUNK", 4)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states, n_symbols)
        for length, n_rows in ((1, 5), (2, 6), (37, 9), (144, 6)):
            symbols = rng.integers(0, n_symbols, size=(n_rows, length))
            got = _e_step(model.initial, model.transition, model.emission, symbols)
            expected = ref_expectations(model, symbols)
            for name, g, e in zip(("log-likelihood", "pi", "A", "B"), got, expected):
                np.testing.assert_allclose(g, e, rtol=1e-12, atol=0, err_msg=f"T={length} {name}")

    @pytest.mark.parametrize(
        "n_rows, n_states, n_symbols",
        [(1, 2, 4), (700, 2, 3), (9_000, 3, 1), (5_000, 7, 50), (20_000, 4, 2),
         (12 * 144, 100, 100)],
    )
    def test_add_by_symbol_is_add_at_bit_for_bit(self, monkeypatch, n_rows, n_states, n_symbols):
        # Small blocks and a symbol with many rows make every run span blocks.
        monkeypatch.setattr(hmm, "SYMBOL_SUM_BLOCK", 97)
        rng = np.random.default_rng(n_rows)
        rows = rng.random((n_rows, n_states)) * 10.0 ** rng.integers(-8, 8, (n_rows, 1))
        symbols = np.minimum(rng.integers(0, 2 * n_symbols, n_rows), n_symbols - 1)
        expected = rng.random((n_symbols, n_states))
        got = expected.copy()
        np.add.at(expected, symbols, rows)
        hmm._add_by_symbol(got, symbols, rows)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_states, n_symbols", [(1, 5), (3, 4), (100, 100)])
    def test_emission_sums_equal_add_at_bit_for_bit(self, monkeypatch, n_states, n_symbols):
        """The whole E-step, over several slices, with np.add.at as the emission
        accumulator: every output is the same, bit for bit."""
        monkeypatch.setattr(hmm, "E_STEP_CHUNK", 16)
        rng = np.random.default_rng(n_states)
        model = random_model(rng, n_states, n_symbols)
        symbols = rng.integers(0, n_symbols, size=(40, 144))
        args = (model.initial, model.transition, model.emission, symbols)
        got = _e_step(*args)
        monkeypatch.setattr(hmm, "_add_by_symbol", np.add.at)
        expected = _e_step(*args)
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def test_zero_scale_is_numeric_error(self):
        pi = np.array([0.5, 0.5])
        a = np.full((2, 2), 0.5)
        b = np.array([[0.0, 1.0], [0.0, 1.0]])  # symbol 0 cannot be emitted
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                _e_step(pi, a, b, np.array([[1, 0, 1]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (2, 0)], ids=["1d", "3d", "T0"])
    def test_non_2d_or_empty_rows_rejected(self, shape):
        with pytest.raises(DataError):
            baum_welch(np.zeros(shape, dtype=int), n_states=2, n_symbols=2)


class TestForwardBackward:
    def test_alpha_beta_agree_on_total_likelihood(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 5)), 4)
            symbols = rng.integers(0, 4, size=int(rng.integers(2, 12)))
            la = log_forward(model, symbols)
            lb = log_backward(model, symbols)
            from_alpha = np.logaddexp.reduce(la[-1])
            log_pi, _, log_b = logs(model)
            from_beta = np.logaddexp.reduce(log_pi + log_b[:, symbols[0]] + lb[0])
            assert from_alpha == pytest.approx(from_beta, abs=1e-9)


class TestViterbi:
    def test_single_state(self):
        model = near_deterministic_model([[1.0]], [[0.3, 0.7]])
        symbols = np.array([0, 1, 1])
        (path,), (lp,) = viterbi(model, symbols[None])
        np.testing.assert_array_equal(path, [0, 0, 0])
        log_pi, _, log_b = logs(model)
        expected = float(np.sum(log_b[0, symbols])) + log_pi[0]
        assert lp == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            model = random_model(rng, n, 3)
            symbols = rng.integers(0, 3, size=int(rng.integers(2, 7)))
            (path,), (lp,) = viterbi(model, symbols[None])
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
        (path,), _ = viterbi(model, symbols[None])
        np.testing.assert_array_equal(path, symbols)

    def test_empty_rejected(self):
        model = near_deterministic_model([[1.0]], [[1.0]])
        with pytest.raises(DataError):
            viterbi(model, np.zeros((1, 0), dtype=int))

    @pytest.mark.parametrize("shape", [(0,), (3,), (1, 2, 2)])
    def test_not_a_matrix_rejected(self, shape):
        model = near_deterministic_model([[1.0]], [[1.0]])
        with pytest.raises(DataError):
            viterbi(model, np.zeros(shape, dtype=int))

    def test_no_rows(self):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        paths, log_probs = viterbi(model, np.zeros((0, 5), dtype=int))
        assert paths.shape == (0, 5) and log_probs.shape == (0,)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_symbol_out_of_range(self, bad):
        # -1 would index the last emission column, 3 would raise IndexError
        model = random_model(np.random.default_rng(0), 2, 3)
        with pytest.raises(DataError, match=r"symbol outside \[0, 3\)"):
            viterbi(model, np.array([[0, 1, 2], [0, bad, 1]]))


def zero_model(rng, n_states, n_symbols):
    """A model whose initial, transition and emission rows hold exact zeros
    (logs of -inf), so some rows have no possible path at all."""

    def rows(shape):
        p = rng.random(shape) * (rng.random(shape) < 0.4)
        p[..., 0] += p.sum(axis=-1) == 0  # no all-zero row
        return p / p.sum(axis=-1, keepdims=True)

    return HmmModel(rows(n_states), rows((n_states, n_states)), rows((n_states, n_symbols)))


class TestViterbiThreads:
    """Rows are decoded in chunks on up to one thread per usable core; the
    core count is patched, so no test starts more than 7 threads."""

    @pytest.mark.parametrize("n_rows", [1, 10, hmm.VITERBI_CHUNK + 9, 37])
    @pytest.mark.parametrize("kind", ["random", "zeros"])
    def test_bytes_do_not_depend_on_the_core_count(self, monkeypatch, kind, n_rows):
        rng = np.random.default_rng(n_rows)
        model = (random_model if kind == "random" else zero_model)(rng, 12, 6)
        symbols = rng.integers(0, 6, size=(n_rows, 40))
        quantizer = Quantizer(6, 40.0, 400.0)
        values = rng.uniform(30.0, 410.0, size=(n_rows, 40))
        outputs = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            for workers in (1, 2, 3, 7):
                monkeypatch.setattr(hmm, "_usable_cores", lambda: workers)
                threads = threading.active_count()
                # the filter is process-wide, so a warning in a worker thread fails the call
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    paths, log_probs = viterbi(model, symbols)
                    forecasts = hmm_forecast(model, quantizer, values, horizon=5)
                assert threading.active_count() == threads
                outputs.add((paths.tobytes(), log_probs.tobytes(), forecasts.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs) == 1
        for row, path, log_prob in zip(symbols, paths, log_probs):
            ref_path, ref_log_prob = ref_viterbi(model, row)
            assert np.array_equal(path, ref_path)
            assert np.float64(log_prob).tobytes() == np.float64(ref_log_prob).tobytes()

    @pytest.mark.parametrize(
        "workers, n_rows, sizes",
        [
            (1, 37, [5, 16, 16]),
            (2, 1, [1]),
            (2, 10, [5, 5]),
            (3, 10, [2, 4, 4]),
            (2, 37, [5, 16, 16]),
            (7, 37, [1, 6, 6, 6, 6, 6, 6]),
        ],
    )
    def test_chunks_and_threads(self, monkeypatch, workers, n_rows, sizes):
        real = hmm._viterbi_rows
        seen = []

        def spy(model, rows, paths_out, log_probs_out):
            seen.append((len(rows), threading.get_ident()))
            real(model, rows, paths_out, log_probs_out)

        monkeypatch.setattr(hmm, "_usable_cores", lambda: workers)
        monkeypatch.setattr(hmm, "_viterbi_rows", spy)
        model = random_model(np.random.default_rng(3), 4, 3)
        viterbi(model, np.random.default_rng(4).integers(0, 3, size=(n_rows, 6)))
        assert sorted(size for size, _ in seen) == sizes
        idents = {ident for _, ident in seen}
        if len(sizes) == 1 or workers == 1:
            assert idents == {threading.get_ident()}  # inline, no pool
        else:
            assert threading.get_ident() not in idents and len(idents) <= workers

    def test_a_chunk_error_keeps_its_type(self, monkeypatch):
        real = hmm._viterbi_rows

        def fail_on_the_ragged_chunk(model, rows, paths_out, log_probs_out):
            if len(rows) == 2:  # 10 rows on 3 cores are chunks of 4, 4 and 2
                raise NumericError("decode failed")
            real(model, rows, paths_out, log_probs_out)

        monkeypatch.setattr(hmm, "_usable_cores", lambda: 3)
        monkeypatch.setattr(hmm, "_viterbi_rows", fail_on_the_ragged_chunk)
        model = near_deterministic_model(np.eye(2), np.eye(2))
        threads = threading.active_count()
        with pytest.raises(NumericError, match="decode failed"):
            hmm_forecast(model, Quantizer(2, 0.0, 2.0), np.full((10, 3), 0.5), horizon=3)
        assert threading.active_count() == threads


def tie_heavy_model(rng, n):
    """Hard 0/1 rows smoothed by the floor: many exactly equal scores."""
    a = (rng.random((n, n)) < 0.3).astype(float)
    a[np.arange(n), rng.integers(0, n, n)] = 1.0
    b = (rng.random((n, 4)) < 0.3).astype(float)
    b[np.arange(n), rng.integers(0, 4, n)] = 1.0
    return near_deterministic_model(a, b)


@pytest.mark.parametrize("kind", ["random", "tie_heavy", "uniform"])
@pytest.mark.parametrize("n_states", [1, 3, 100])
@pytest.mark.parametrize("t_max", [1, 2, 132])
def test_batched_viterbi_byte_identical_to_frozen(kind, n_states, t_max):
    rng = np.random.default_rng(n_states * 1000 + t_max)
    if kind == "random":
        model = random_model(rng, n_states, 4)
    elif kind == "tie_heavy":
        model = tie_heavy_model(rng, n_states)
    else:
        model = near_deterministic_model(np.ones((n_states, n_states)), np.ones((n_states, 4)))
    # more rows than one Viterbi chunk where a row is cheap for the reference
    n_rows = hmm.VITERBI_CHUNK + 9 if n_states * t_max < 1000 else 5
    symbols = rng.integers(0, 4, size=(n_rows, t_max))
    paths, log_probs = viterbi(model, symbols)
    assert paths.shape == (n_rows, t_max) and log_probs.shape == (n_rows,)
    for row, path, log_prob in zip(symbols, paths, log_probs):
        ref_path, ref_log_prob = ref_viterbi(model, row)
        assert np.array_equal(path, ref_path)
        assert np.float64(log_prob).tobytes() == np.float64(ref_log_prob).tobytes()

    quantizer = Quantizer(4, 40.0, 400.0)
    values = rng.uniform(30.0, 410.0, size=(n_rows, t_max))
    forecasts = hmm_forecast(model, quantizer, values, horizon=7)
    expected = np.stack([ref_hmm_forecast(model, quantizer, row, horizon=7) for row in values])
    assert forecasts.tobytes() == expected.tobytes()


class TestForecast:
    def test_identity_transition_constant_forecast(self):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        q = Quantizer(2, 0.0, 2.0)
        out = hmm_forecast(model, q, np.array([[0.5, 0.5, 0.5]]), horizon=5)
        np.testing.assert_allclose(out, np.full((1, 5), 0.5))

    def test_two_state_cycle_alternates(self):
        # transition swaps the states; emissions echo the state index
        model = near_deterministic_model([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
        q = Quantizer(2, 0.0, 2.0)
        out = hmm_forecast(model, q, np.array([[0.5, 1.5, 0.5]]), horizon=4)
        np.testing.assert_allclose(out, [[1.5, 0.5, 1.5, 0.5]])

    def test_symbol_count_mismatch(self):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        with pytest.raises(DataError):
            hmm_forecast(model, Quantizer(3, 0.0, 3.0), np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_rejected(self, bad):
        model = near_deterministic_model(np.eye(2), np.eye(2))
        with pytest.raises(DataError, match="non-finite"):
            hmm_forecast(model, Quantizer(2, 0.0, 2.0), np.array([[0.5, 0.5], [0.5, bad]]))


class TestRoundTrip:
    def test_save_load_within_1e12(self, tmp_path):
        rng = np.random.default_rng(3)
        obs = rng.integers(0, 5, size=(2, 80))
        model = baum_welch(obs, n_states=4, n_symbols=5, max_iter=15, seed=4)
        q = Quantizer(5, 40.0, 400.0)
        path = tmp_path / "model.ghmm"
        save_hmm(model, q, path)
        loaded, loaded_q = load_hmm(path)
        # The file holds the model's probabilities, and the loaded model holds them too.
        for name in ("initial", "transition", "emission"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
        assert loaded_q == q
        assert loaded.trained_iterations == model.trained_iterations
        assert loaded.final_log_likelihood == model.final_log_likelihood

        values = rng.uniform(50, 390, size=(1, 40))
        np.testing.assert_array_equal(
            hmm_forecast(model, q, values), hmm_forecast(loaded, loaded_q, values)
        )

    def test_bad_payload(self, tmp_path):
        # A JSON model file, as glyco wrote before the framed format, is not read.
        path = tmp_path / "x.ghmm"
        path.write_text("{\"format\": \"glyco-hmm\", \"version\": 1}", encoding="utf-8")
        with pytest.raises(FormatError, match="bad magic"):
            load_hmm(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_hmm(path)

    def test_missing_key_is_format_error(self, tmp_path):
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path)
        edit_header(path, lambda header: header.pop("quantizer_lo"))
        with pytest.raises(FormatError, match="quantizer_lo"):
            load_hmm(path)

    @pytest.mark.parametrize("payload", ["[1, 2]", "7", "null", "\"glyco-hmm\""])
    def test_non_object_json_is_format_error(self, tmp_path, payload):
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path)
        edit_header(path, payload.encode())
        with pytest.raises(FormatError, match="not a JSON object"):
            load_hmm(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quantizer_lo", [0.0]),
            ("n_states", "2"),
            ("n_symbols", {"a": 1}),
            ("trained_iterations", 1.5),
            ("n_symbols", True),
            ("quantizer_hi", "2"),
            ("final_log_likelihood", None),
        ],
    )
    def test_wrongly_typed_field_is_format_error(self, tmp_path, field, value):
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path)
        edit_header(path, **{field: value})
        with pytest.raises(FormatError, match="wrong type"):
            load_hmm(path)

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path)
        edit_header(path, b'{"n_states": "\xff\xfe"}')
        with pytest.raises(FormatError, match="corrupt header"):
            load_hmm(path)

    def test_sequence_log_likelihood_finite(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 4)
        assert np.isfinite(sequence_log_likelihood(model, rng.integers(0, 4, 20)))

    @pytest.mark.parametrize(
        "changes",
        [
            # zero symbols: the row-sum check would take the max of an empty row
            ({"n_symbols": 0, "emission": [[], []]}, "at least one"),
            ({"n_symbols": 3}, "payload"),  # the header disagrees with the payload
            ({"quantizer_lo": -1e308, "quantizer_hi": 1e308}, "width"),
            ({"transition": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "payload"),
            ({"emission": [[2.0, -1.0], [0.0, 1.0]]}, "non-negative"),
            ({"initial": [0.5, 0.6]}, "sum to 1"),
            ({"quantizer_hi": 10**400}, "too large"),
            ({"quantizer_lo": 2.0, "quantizer_hi": 0.0}, "lo < hi"),
            # 1e-9 is an absolute bound, not a relative one of 1e-5
            ({"initial": [0.5, 0.5 + 1e-7]}, "sum to 1"),
        ],
    )
    def test_inconsistent_model_is_format_error(self, tmp_path, changes):
        fields, message = changes
        path = tmp_path / "m.ghmm"
        _hand_made_model_file(path, **fields)
        with pytest.raises(FormatError, match=message):
            load_hmm(path)


def _hand_made_model_file(path, **changes):
    """A framed HMM file of two states and two symbols (identity rows) with
    some header fields or probability rows replaced; nothing is checked."""
    rows = {"initial": [1.0, 0.0], "transition": np.eye(2), "emission": np.eye(2)}
    header = {"n_states": 2, "n_symbols": 2, "quantizer_lo": 0.0, "quantizer_hi": 2.0,
              "trained_iterations": 0, "final_log_likelihood": 0.0}
    for key, value in changes.items():
        (rows if key in rows else header)[key] = value
    payload = np.concatenate([np.ravel(rows[key]) for key in ("initial", "transition", "emission")])
    write_framed(path, hmm.HMM_MAGIC, hmm.HMM_VERSION, header, payload)


FUZZ_HEADER_VALUES = st.sampled_from(
    [0, -1, 1.5, float("nan"), float("inf"), None, True, "x", [], {}, 2**31, 10**400]
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_load_hmm_fuzz_raises_only_glyco_errors(tmp_path, data):
    """Truncated, bit-flipped, re-valued and non-finite model files load or raise a GlycoError.

    A size in the header is checked against the payload length before
    anything is allocated, so 2**31 states fail without asking for 32 EiB.
    Whatever loads must forecast, or fail with a GlycoError.
    """
    path = tmp_path / "m.ghmm"
    save_hmm(random_model(np.random.default_rng(0), 2, 3), Quantizer(3, 40.0, 400.0), path)
    raw = bytearray(path.read_bytes())
    mutation = data.draw(st.sampled_from(["truncate", "flip", "header", "payload"]))
    if mutation == "truncate":
        path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw) - 1))]))
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, 8 * len(raw) - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
    elif mutation == "header":
        keys = st.sampled_from(["n_states", "n_symbols", "quantizer_lo", "quantizer_hi",
                                "trained_iterations", "final_log_likelihood"])
        edit_header(path, **data.draw(st.dictionaries(keys, FUZZ_HEADER_VALUES, min_size=1)))
    else:
        position = len(raw) - 8 * data.draw(st.integers(1, 2 + 4 + 6))
        raw[position : position + 8] = struct.pack("<d", data.draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf"), -0.5, 2.0])))
        path.write_bytes(bytes(raw))
    try:
        model, quantizer = load_hmm(path)
    except GlycoError:
        return
    try:
        assert hmm_forecast(model, quantizer, np.full((2, 6), 150.0), horizon=3).shape == (2, 3)
    except GlycoError:
        pass


def test_zero_probabilities_load_and_forecast(tmp_path):
    # Exact zeros are valid: their logs are -inf, and Viterbi and the greedy
    # forecast take max/argmax over them without a numeric warning.
    path = tmp_path / "m.ghmm"
    _hand_made_model_file(path, transition=[[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, q = load_hmm(path)
        out = hmm_forecast(model, q, np.array([[0.5, 1.5, 0.5]]), horizon=4)
    assert model.initial[1] == 0.0
    np.testing.assert_array_equal(out, [[1.5, 0.5, 1.5, 0.5]])


def test_all_zero_row_is_format_error(tmp_path):
    path = tmp_path / "m.ghmm"
    _hand_made_model_file(path, transition=[[0.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="sum to 1"):
            load_hmm(path)
