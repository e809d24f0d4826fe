"""Discrete hidden-Markov forecaster.

Observations are quantized glucose values (uniform bins, midpoint decoding).
Training is Baum-Welch with forward/backward passes kept in log space
throughout: with 100 states and 132-step sequences the linear-space products
underflow. A probability floor keeps every row distribution strictly
positive so no state or symbol becomes absorbing-zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import is_int, is_real
from .errors import DataError, FormatError, InvalidValueError

PROB_FLOOR = 1e-10


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


def _check_symbols(sequences: list[np.ndarray], n_symbols: int) -> list[np.ndarray]:
    if not sequences:
        raise DataError("training set is empty")
    checked = []
    for seq in sequences:
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise DataError("observation sequence is empty")
        if arr.min() < 0 or arr.max() >= n_symbols:
            raise DataError(f"symbol outside [0, {n_symbols})")
        checked.append(arr)
    return checked


def log_forward(model: HmmModel, symbols: np.ndarray) -> np.ndarray:
    """Log alpha matrix, shape (T, N)."""
    t_max = symbols.shape[0]
    la = np.empty((t_max, model.n_states))
    la[0] = model.log_initial + model.log_emission[:, symbols[0]]
    for t in range(1, t_max):
        la[t] = _logsumexp(la[t - 1][:, None] + model.log_transition, axis=0)
        la[t] += model.log_emission[:, symbols[t]]
    return la


def log_backward(model: HmmModel, symbols: np.ndarray) -> np.ndarray:
    """Log beta matrix, shape (T, N)."""
    t_max = symbols.shape[0]
    lb = np.zeros((t_max, model.n_states))
    for t in range(t_max - 2, -1, -1):
        inner = model.log_transition + model.log_emission[:, symbols[t + 1]][None, :]
        lb[t] = _logsumexp(inner + lb[t + 1][None, :], axis=1)
    return lb


def sequence_log_likelihood(model: HmmModel, symbols: np.ndarray) -> float:
    return float(_logsumexp(log_forward(model, symbols)[-1], axis=0))


def baum_welch(
    symbol_sequences: list[np.ndarray],
    n_states: int,
    n_symbols: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 42,
) -> HmmModel:
    """Estimate an HMM from observation sequences by expectation-maximization.

    Sufficient statistics are accumulated per sequence in a fixed order, so a
    parallel map over sequences with an ordered reduction would give the same
    result. Stops when the total log-likelihood gain drops below tol or at
    max_iter.
    """
    sequences = _check_symbols(symbol_sequences, n_symbols)
    rng = np.random.default_rng(seed)
    model = _random_model(n_states, n_symbols, rng)

    history: list[float] = []
    prev_ll = -np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pi_acc = np.zeros(n_states)
        a_acc = np.zeros((n_states, n_states))
        b_acc = np.zeros((n_states, n_symbols))
        total_ll = 0.0

        for symbols in sequences:
            la = log_forward(model, symbols)
            lb = log_backward(model, symbols)
            ll = float(_logsumexp(la[-1], axis=0))
            total_ll += ll

            gamma = np.exp(la + lb - ll)
            pi_acc += gamma[0]
            np.add.at(b_acc.T, symbols, gamma)  # b_acc[:, m] += sum_t gamma[t] [y_t = m]
            if symbols.shape[0] > 1:
                emit_next = model.log_emission[:, symbols[1:]].T  # (T-1, N)
                xi = np.exp(
                    la[:-1, :, None]
                    + model.log_transition[None, :, :]
                    + (emit_next + lb[1:])[:, None, :]
                    - ll
                )
                a_acc += xi.sum(axis=0)

        history.append(total_ll)
        pi = _floor_normalize(pi_acc)
        a = _floor_normalize(a_acc)
        b = _floor_normalize(b_acc)
        model = HmmModel(np.log(pi), np.log(a), np.log(b))

        if total_ll - prev_ll < tol and iterations > 1:
            prev_ll = total_ll
            break
        prev_ll = total_ll

    return HmmModel(
        log_initial=model.log_initial,
        log_transition=model.log_transition,
        log_emission=model.log_emission,
        trained_iterations=iterations,
        final_log_likelihood=prev_ll,
        log_likelihood_history=tuple(history),
    )


def viterbi(model: HmmModel, symbols: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its joint log-probability.

    Ties resolve to the lowest state index at the final step and at every
    backtracked predecessor (argmax returns the first maximal index).
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size == 0:
        raise DataError("viterbi needs a non-empty observation sequence")
    t_max = symbols.shape[0]
    delta = model.log_initial + model.log_emission[:, symbols[0]]
    backpointers = np.empty((t_max, model.n_states), dtype=np.int64)
    for t in range(1, t_max):
        scores = delta[:, None] + model.log_transition
        backpointers[t] = np.argmax(scores, axis=0)
        delta = scores[backpointers[t], np.arange(model.n_states)]
        delta = delta + model.log_emission[:, symbols[t]]
    path = np.empty(t_max, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = backpointers[t, path[t]]
    return path, float(delta[path[-1]])


def hmm_forecast(
    model: HmmModel, quantizer: Quantizer, values: np.ndarray, horizon: int = 12
) -> np.ndarray:
    """Recursive multi-step forecast in mg/dL.

    Decode the most likely terminal state of the encoded input, then greedily
    follow the most probable transition at each step and emit the midpoint of
    that state's most probable symbol.
    """
    if model.n_symbols != quantizer.n_symbols:
        raise DataError(
            f"model expects {model.n_symbols} symbols, quantizer has {quantizer.n_symbols}"
        )
    symbols = quantizer.encode(np.asarray(values, dtype=float))
    path, _ = viterbi(model, symbols)
    state = int(path[-1])
    out = np.empty(horizon)
    for step in range(horizon):
        state = int(np.argmax(model.log_transition[state]))
        symbol = int(np.argmax(model.log_emission[state]))
        out[step] = float(quantizer.decode(symbol))
    return out


class HmmForecaster:
    name = "hmm"

    def __init__(self, model: HmmModel, quantizer: Quantizer, horizon: int = 12):
        self.model = model
        self.quantizer = quantizer
        self.horizon = horizon

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """One ``hmm_forecast`` per input window (row)."""
        out = np.empty((len(inputs), self.horizon))
        for i, row in enumerate(inputs):
            out[i] = hmm_forecast(self.model, self.quantizer, row, self.horizon)
        return out


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
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_hmm(path: str | Path) -> tuple[HmmModel, Quantizer]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    try:
        initial, transition, emission = (np.asarray(m, dtype=float) for m in matrices)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: HMM matrix is not numeric: {exc}") from exc
    if initial.shape != (n_states,) or emission.shape != (n_states, n_symbols):
        raise FormatError(f"{path}: matrix shapes inconsistent with header")
    model = HmmModel(
        log_initial=np.log(initial),
        log_transition=np.log(transition),
        log_emission=np.log(emission),
        trained_iterations=iterations,
        final_log_likelihood=final_ll,
    )
    return model, Quantizer(q_symbols, lo, hi)
