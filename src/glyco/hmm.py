"""Discrete hidden-Markov forecaster.

Observations are quantized glucose values (uniform bins, midpoint decoding).
Training is Baum-Welch with a scaled forward/backward pass in probability
space over observation rows (n, T), in slices of up to E_STEP_CHUNK rows:
renormalizing at every step keeps 100-state, 144-step products from
underflowing, and each step is one matrix product for the whole slice. A
probability floor keeps every trained row distribution strictly positive so
no state or symbol becomes absorbing-zero. Models are stored as
log-probabilities, and Viterbi decoding runs in log space over batches of
rows; a loaded model may hold exact zeros, whose logs are -inf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import atomic_write, is_int, is_real
from .errors import DataError, FormatError, InvalidValueError, NumericError

PROB_FLOOR = 1e-10
# Rows per E-step slice: alpha is (512, 144, 100) float64, ~60 MB, at paper scale.
E_STEP_CHUNK = 512
# Rows per Viterbi batch: the (rows, N, N) step scores stay ~1.3 MB, in cache, at N = 100.
VITERBI_CHUNK = 16


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


@dataclass(frozen=True)
class Quantizer:
    """Uniform glucose binning over [lo, hi] with midpoint decoding."""

    n_symbols: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.n_symbols < 1:
            raise InvalidValueError("quantizer needs at least one symbol")
        if not (self.lo < self.hi):
            raise InvalidValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not (0.0 < self.width < math.inf):  # also rejects an infinite bound
            raise InvalidValueError(f"need a finite bin width > 0, got [{self.lo}, {self.hi}]")

    @classmethod
    def from_values(cls, values: np.ndarray, n_symbols: int) -> "Quantizer":
        lo = float(np.min(values))
        hi = float(np.max(values))
        if lo == hi:  # widen a constant corpus so bins have nonzero width
            hi = lo + 1.0
        return cls(n_symbols, lo, hi)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_symbols

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_symbols + 1)

    def encode(self, values: np.ndarray | float) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        idx = np.floor((values - self.lo) / self.width).astype(np.int64)
        return np.clip(idx, 0, self.n_symbols - 1)

    def decode(self, symbols: np.ndarray | int) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.int64)
        if np.any(symbols < 0) or np.any(symbols >= self.n_symbols):
            raise InvalidValueError("symbol outside quantizer range")
        return self.lo + (symbols + 0.5) * self.width


@dataclass(frozen=True)
class HmmModel:
    """Initial/transition/emission distributions, stored as log-probabilities."""

    log_initial: np.ndarray
    log_transition: np.ndarray
    log_emission: np.ndarray
    trained_iterations: int = 0
    final_log_likelihood: float = math.nan
    log_likelihood_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = self.log_initial.shape[0]
        if self.log_transition.shape != (n, n):
            raise InvalidValueError("transition matrix shape mismatch")
        if self.log_emission.shape[0] != n:
            raise InvalidValueError("emission matrix shape mismatch")
        for name, arr, axis in (
            ("initial", self.log_initial, None),
            ("transition", self.log_transition, 1),
            ("emission", self.log_emission, 1),
        ):
            sums = np.exp(_logsumexp(arr, axis=axis))
            if not np.allclose(sums, 1.0, atol=1e-9):
                raise InvalidValueError(f"{name} rows must sum to 1 within 1e-9")

    @property
    def n_states(self) -> int:
        return self.log_initial.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.log_emission.shape[1]

    @property
    def initial(self) -> np.ndarray:
        return np.exp(self.log_initial)

    @property
    def transition(self) -> np.ndarray:
        return np.exp(self.log_transition)

    @property
    def emission(self) -> np.ndarray:
        return np.exp(self.log_emission)


def _floor_normalize(rows: np.ndarray) -> np.ndarray:
    """Clamp to the probability floor and renormalize each row."""
    rows = np.maximum(rows, PROB_FLOOR)
    return rows / rows.sum(axis=-1, keepdims=True)


def _random_model(n_states: int, n_symbols: int, rng: np.random.Generator) -> HmmModel:
    pi = _floor_normalize(rng.random(n_states))
    a = _floor_normalize(rng.random((n_states, n_states)))
    b = _floor_normalize(rng.random((n_states, n_symbols)))
    return HmmModel(np.log(pi), np.log(a), np.log(b))


def _e_step(
    pi: np.ndarray, a: np.ndarray, b: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row log-likelihoods and the initial, transition, emission accumulators.

    Scaled forward-backward (Rabiner 1989, section V.A) over consecutive
    slices of E_STEP_CHUNK rows of symbols (n, T): alpha is renormalized at
    every step by its sum c_t, beta is divided by the same scales, so nothing
    underflows, gamma_t = alpha_t * beta_t and the log-likelihood is
    sum_t log c_t. Only alpha is kept for the whole slice; beta is one step
    at a time, and alpha becomes gamma as the backward pass goes. Slices are
    reduced in row order, so results are deterministic.
    """
    n_states = a.shape[0]
    b_by_symbol = b.T
    log_likelihoods = np.empty(symbols.shape[0])
    pi_acc = np.zeros(n_states)
    xi_acc = np.zeros((n_states, n_states))
    b_acc = np.zeros(b_by_symbol.shape)  # (M, N): one row per symbol
    for lo in range(0, symbols.shape[0], E_STEP_CHUNK):
        chunk = symbols[lo : lo + E_STEP_CHUNK]
        n_seq, t_max = chunk.shape
        alpha = np.empty((n_seq, t_max, n_states))
        scale = np.empty((n_seq, t_max))
        step = pi * b_by_symbol[chunk[:, 0]]
        for t in range(t_max):
            if t:
                step = (alpha[:, t - 1] @ a) * b_by_symbol[chunk[:, t]]
            scale[:, t] = step.sum(axis=1)
            alpha[:, t] = step / scale[:, t, None]
        if not (np.all(scale > 0) and np.all(np.isfinite(scale))):
            raise NumericError("forward scale is zero or not finite")
        log_likelihoods[lo : lo + n_seq] = np.log(scale).sum(axis=1)

        beta = np.ones((n_seq, n_states))
        for t in range(t_max - 1, 0, -1):
            weighted = b_by_symbol[chunk[:, t]] * beta / scale[:, t, None]
            xi_acc += alpha[:, t - 1].T @ weighted
            alpha[:, t] *= beta  # gamma_t
            beta = weighted @ a.T
        alpha[:, 0] *= beta
        pi_acc += alpha[:, 0].sum(axis=0)
        np.add.at(b_acc, chunk.ravel(), alpha.reshape(-1, n_states))
    return log_likelihoods, pi_acc, a * xi_acc, b_acc.T


def baum_welch(
    symbols: np.ndarray,
    n_states: int,
    n_symbols: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 42,
) -> HmmModel:
    """Estimate an HMM from observation rows symbols (n, T) by expectation-maximization.

    Stops at max_iter, or once the log-likelihood gain per observation (the
    total gain divided by the number of symbols) drops below tol, so the rule
    does not depend on the size of the training set.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 2 or symbols.shape[1] == 0:
        raise DataError("baum_welch needs observation rows of shape (n, T) with T >= 1")
    if symbols.shape[0] == 0:
        raise DataError("training set is empty")
    if symbols.min() < 0 or symbols.max() >= n_symbols:
        raise DataError(f"symbol outside [0, {n_symbols})")
    rng = np.random.default_rng(seed)
    model = _random_model(n_states, n_symbols, rng)
    pi, a, b = model.initial, model.transition, model.emission

    history: list[float] = []
    prev_ll = -np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        log_likelihoods, pi_acc, a_acc, b_acc = _e_step(pi, a, b, symbols)
        total_ll = float(log_likelihoods.sum())
        history.append(total_ll)
        pi = _floor_normalize(pi_acc)
        a = _floor_normalize(a_acc)
        b = _floor_normalize(b_acc)

        if (total_ll - prev_ll) / symbols.size < tol and iterations > 1:
            prev_ll = total_ll
            break
        prev_ll = total_ll

    return HmmModel(
        log_initial=np.log(pi),
        log_transition=np.log(a),
        log_emission=np.log(b),
        trained_iterations=iterations,
        final_log_likelihood=prev_ll,
        log_likelihood_history=tuple(history),
    )


def viterbi(model: HmmModel, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most likely state path and its joint log-probability for each row.

    symbols (n, T) -> (paths (n, T), log_probs (n,)). Ties resolve to the
    lowest state index at the final step and at every backtracked predecessor
    (argmax returns the first maximal index). Backpointers are not stored:
    the backtrack recomputes the one column each step needs from the kept
    forward scores, with the same additions, so the result does not depend
    on how rows are batched. Rows run in chunks of VITERBI_CHUNK to bound the
    (rows, N, N) score array.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 2 or symbols.shape[1] == 0:
        raise DataError("viterbi needs observation rows of shape (n, T) with T >= 1")
    n_rows, t_max = symbols.shape
    log_a = model.log_transition
    emission_by_symbol = model.log_emission.T
    paths = np.empty((n_rows, t_max), dtype=np.int64)
    log_probs = np.empty(n_rows)
    for lo in range(0, n_rows, VITERBI_CHUNK):
        rows = symbols[lo : lo + VITERBI_CHUNK]
        deltas = np.empty((t_max, rows.shape[0], model.n_states))
        deltas[0] = model.log_initial + emission_by_symbol[rows[:, 0]]
        for t in range(1, t_max):
            scores = deltas[t - 1][:, :, None] + log_a
            deltas[t] = scores.max(axis=1) + emission_by_symbol[rows[:, t]]
        path = paths[lo : lo + VITERBI_CHUNK]
        path[:, -1] = np.argmax(deltas[-1], axis=1)
        for t in range(t_max - 1, 0, -1):
            path[:, t - 1] = np.argmax(deltas[t - 1] + log_a[:, path[:, t]].T, axis=1)
        log_probs[lo : lo + VITERBI_CHUNK] = deltas[-1].max(axis=1)
    return paths, log_probs


def hmm_forecast(
    model: HmmModel, quantizer: Quantizer, values: np.ndarray, horizon: int = 12
) -> np.ndarray:
    """Recursive multi-step forecasts in mg/dL: values (n, T) -> (n, horizon).

    Decode the most likely terminal state of each encoded input row, then
    greedily follow the most probable transition at each step and emit the
    midpoint of that state's most probable symbol. The greedy tail depends
    only on the terminal state, so it is tabulated once per state.
    """
    if model.n_symbols != quantizer.n_symbols:
        raise DataError(
            f"model expects {model.n_symbols} symbols, quantizer has {quantizer.n_symbols}"
        )
    paths, _ = viterbi(model, quantizer.encode(np.asarray(values, dtype=float)))
    tails = np.empty((model.n_states, horizon))
    state = np.arange(model.n_states)
    for step in range(horizon):
        state = np.argmax(model.log_transition[state], axis=1)
        tails[:, step] = quantizer.decode(np.argmax(model.log_emission[state], axis=1))
    return tails[paths[:, -1]]


class HmmForecaster:
    name = "hmm"

    def __init__(self, model: HmmModel, quantizer: Quantizer, horizon: int = 12):
        self.model = model
        self.quantizer = quantizer
        self.horizon = horizon

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return hmm_forecast(self.model, self.quantizer, inputs, self.horizon)


def save_hmm(model: HmmModel, quantizer: Quantizer, path: str | Path) -> None:
    doc = {
        "format": "glyco-hmm",
        "version": 1,
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "quantizer": {"n_symbols": quantizer.n_symbols, "lo": quantizer.lo, "hi": quantizer.hi},
        "initial": model.initial.tolist(),
        "transition": model.transition.tolist(),
        "emission": model.emission.tolist(),
        "trained_iterations": model.trained_iterations,
        "final_log_likelihood": model.final_log_likelihood,
    }
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True))


def load_hmm(path: str | Path) -> tuple[HmmModel, Quantizer]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: not an HMM model file (JSON is not an object)")
    if doc.get("format") != "glyco-hmm":
        raise FormatError(f"{path}: not an HMM model file")
    if doc.get("version") != 1:
        raise FormatError(f"{path}: unsupported version {doc.get('version')!r}")
    try:
        matrices = [doc[key] for key in ("initial", "transition", "emission")]
        n_states, n_symbols = doc["n_states"], doc["n_symbols"]
        iterations, final_ll = doc["trained_iterations"], doc["final_log_likelihood"]
        q = doc["quantizer"]
        if not isinstance(q, dict):
            raise FormatError(f"{path}: quantizer is not a JSON object")
        q_symbols, lo, hi = q["n_symbols"], q["lo"], q["hi"]
    except KeyError as exc:
        raise FormatError(f"{path}: HMM file lacks key {exc}") from exc
    integers = (n_states, n_symbols, iterations, q_symbols)
    if not (all(is_int(v) for v in integers) and all(is_real(v) for v in (final_ll, lo, hi))):
        raise FormatError(f"{path}: HMM field of the wrong type")
    if n_states < 1 or n_symbols < 1:
        raise FormatError(f"{path}: HMM needs at least one state and one symbol")
    if q_symbols != n_symbols:
        raise FormatError(f"{path}: quantizer has {q_symbols} symbols, model has {n_symbols}")
    try:
        initial, transition, emission = (np.asarray(m, dtype=float) for m in matrices)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: HMM matrix is not numeric: {exc}") from exc
    if (
        initial.shape != (n_states,)
        or transition.shape != (n_states, n_states)
        or emission.shape != (n_states, n_symbols)
    ):
        raise FormatError(f"{path}: matrix shapes inconsistent with header")
    matrices = (initial, transition, emission)
    if not all(np.all(np.isfinite(m) & (m >= 0)) for m in matrices):
        raise FormatError(f"{path}: HMM probabilities must be finite and non-negative")
    with np.errstate(over="ignore", divide="ignore"):
        # A zero probability is valid (its log is -inf); a row that does not
        # sum to 1, all zeros say, is rejected before any log is taken.
        if not all(np.allclose(m.sum(axis=-1), 1.0, atol=1e-9) for m in matrices):
            raise FormatError(f"{path}: HMM rows must sum to 1 within 1e-9")
        logs = [np.log(m) for m in matrices]
    try:
        model = HmmModel(*logs, trained_iterations=iterations, final_log_likelihood=final_ll)
        quantizer = Quantizer(q_symbols, lo, hi)
    except InvalidValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model, quantizer
