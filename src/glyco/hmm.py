"""Discrete hidden-Markov forecaster.

Observations are quantized glucose values (uniform bins, midpoint decoding).
Training is Baum-Welch with a scaled forward/backward pass in probability
space over observation rows (n, T), in slices of up to E_STEP_CHUNK rows:
renormalizing at every step keeps 100-state, 144-step products from
underflowing, and each step is one matrix product for the whole slice. A
probability floor keeps every trained row distribution strictly positive so
no state or symbol becomes absorbing-zero. A model holds the
probabilities EM computes; Viterbi takes their logs once per call and
decodes in log space over chunks of rows, one thread per usable core, with
the same bytes for any number of cores. A loaded model may hold exact
zeros, whose logs are -inf.

A model file (``.ghmm``) is framed (see ``core.write_framed``): magic
``GLYF_HMM``, version 1. The header holds ``n_states``, ``n_symbols``,
``quantizer_lo``, ``quantizer_hi``, ``trained_iterations`` and
``final_log_likelihood``; the payload is the initial, transition and emission
probabilities, each row-major. A file loads only with at least one state and
one symbol, no negative probability, and every row summing to 1 within 1e-9.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import finite_floats, is_int, is_real, read_framed, write_framed
from .errors import DataError, FormatError, InvalidValueError, NumericError

HMM_MAGIC = b"GLYF_HMM"
HMM_VERSION = 1
PROB_FLOOR = 1e-10
# Rows per E-step slice: alpha is (512, 144, 100) float64, ~60 MB, at paper scale.
E_STEP_CHUNK = 512
# Gamma rows summed per block when the emission accumulator is updated: ~3.3 MB at N = 100.
SYMBOL_SUM_BLOCK = 4096
# Most rows per Viterbi chunk: the (rows, N, N) step scores stay ~1.3 MB, in cache, at
# N = 100. Fewer rows per chunk when that leaves a chunk for every usable core; chunks
# are decoded on separate threads, with the same output bytes for any core count.
VITERBI_CHUNK = 16


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

    def encode(self, values: np.ndarray | float) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise DataError("cannot quantize a non-finite glucose value")
        idx = np.clip(np.floor((values - self.lo) / self.width), 0, self.n_symbols - 1)
        return idx.astype(np.int64)

    def decode(self, symbols: np.ndarray | int) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.int64)
        if np.any(symbols < 0) or np.any(symbols >= self.n_symbols):
            raise InvalidValueError("symbol outside quantizer range")
        return self.lo + (symbols + 0.5) * self.width


@dataclass(frozen=True)
class HmmModel:
    """Initial/transition/emission probabilities: every row non-negative and
    summing to 1 within 1e-9 (exact zeros allowed)."""

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray
    trained_iterations: int = 0
    final_log_likelihood: float = math.nan
    log_likelihood_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = self.initial.shape[0]
        if self.transition.shape != (n, n):
            raise InvalidValueError("transition matrix shape mismatch")
        if self.emission.shape[0] != n:
            raise InvalidValueError("emission matrix shape mismatch")
        for name in ("initial", "transition", "emission"):
            rows = getattr(self, name)
            if np.any(rows < 0):
                raise InvalidValueError(f"{name} probabilities must be non-negative")
            with np.errstate(over="ignore"):  # huge entries sum to inf, which is refused
                if not np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 1e-9):  # so is a NaN
                    raise InvalidValueError(f"{name} rows must sum to 1 within 1e-9")

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[1]


def _floor_normalize(rows: np.ndarray) -> np.ndarray:
    """Clamp to the probability floor and renormalize each row."""
    rows = np.maximum(rows, PROB_FLOOR)
    return rows / rows.sum(axis=-1, keepdims=True)


def _random_model(n_states: int, n_symbols: int, rng: np.random.Generator) -> HmmModel:
    pi = _floor_normalize(rng.random(n_states))
    a = _floor_normalize(rng.random((n_states, n_states)))
    b = _floor_normalize(rng.random((n_states, n_symbols)))
    return HmmModel(pi, a, b)


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
    reduced in row order, so results are deterministic for a fixed BLAS
    thread count; the matrix products may round differently under another.
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
        _add_by_symbol(b_acc, chunk.ravel(), alpha.reshape(-1, n_states))
    return log_likelihoods, pi_acc, a * xi_acc, b_acc.T


def _add_by_symbol(acc: np.ndarray, symbols: np.ndarray, rows: np.ndarray) -> None:
    """Add each of rows to acc's row for its symbol, in row order: the sums of
    ``np.add.at(acc, symbols, rows)``, bit for bit.

    A stable argsort groups each symbol's rows in row order. ``np.add.reduce``
    along axis 0 of a block holding the running row and then up to
    SYMBOL_SUM_BLOCK - 1 of those rows adds them one after another, as add.at
    does. (With one column the reduce sums pairwise; an HMM with one state
    has gamma rows of exactly 1, whose sums are exact in any order.)
    """
    order = np.argsort(symbols, kind="stable")
    grouped = symbols[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1)).tolist()  # symbols are >= 0
    block = np.empty((SYMBOL_SUM_BLOCK, rows.shape[1]))
    for lo, hi in zip(starts, [*starts[1:], len(order)]):
        target = acc[grouped[lo]]
        for start in range(lo, hi, SYMBOL_SUM_BLOCK - 1):
            part = block[: min(hi - start, SYMBOL_SUM_BLOCK - 1) + 1]
            part[0] = target
            np.take(rows, order[start : start + len(part) - 1], axis=0, out=part[1:])
            np.add.reduce(part, axis=0, out=target)


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

    return HmmModel(pi, a, b, iterations, prev_ll, tuple(history))


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def viterbi(model: HmmModel, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most likely state path and its joint log-probability for each row.

    symbols (n, T) -> (paths (n, T), log_probs (n,)). Ties resolve to the
    lowest state index at the final step and at every backtracked predecessor
    (argmax returns the first maximal index). Backpointers are not stored:
    the backtrack recomputes the one column each step needs from the kept
    forward scores, with the same additions, so the result does not depend
    on how rows are batched.

    Rows are split into chunks of min(VITERBI_CHUNK, ceil(n / cores)), and
    with more than one usable core and more than one chunk the chunks are
    decoded in a thread pool that lives only for this call (NumPy releases
    the GIL inside the ufunc loops). A row's work does not depend on its
    chunk or thread, and every score is a max over the same float64 sums,
    which is exact in any order, so the output bytes do not depend on the
    core count.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 2 or symbols.shape[1] == 0:
        raise DataError("viterbi needs observation rows of shape (n, T) with T >= 1")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= model.n_symbols):
        raise DataError(f"symbol outside [0, {model.n_symbols})")
    n_rows, t_max = symbols.shape
    paths = np.empty((n_rows, t_max), dtype=np.int64)
    log_probs = np.empty(n_rows)
    workers = _usable_cores()
    size = max(1, min(VITERBI_CHUNK, -(-n_rows // workers)))
    chunks = [slice(lo, lo + size) for lo in range(0, n_rows, size)]
    with np.errstate(divide="ignore"):  # a loaded exact zero has a log of -inf
        logs = (np.log(model.initial), np.log(model.transition), np.log(model.emission).T)

    def decode(rows: slice) -> None:
        _viterbi_rows(logs, symbols[rows], paths[rows], log_probs[rows])

    threads = min(workers, len(chunks))
    if threads <= 1:
        for rows in chunks:
            decode(rows)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only where threads run

        with ThreadPoolExecutor(threads) as pool:
            for _ in pool.map(decode, chunks):  # re-raises a chunk's error
                pass
    return paths, log_probs


def _viterbi_rows(
    logs: tuple, rows: np.ndarray, paths_out: np.ndarray, log_probs_out: np.ndarray
) -> None:
    """Decode symbol rows (r, T) into paths_out (r, T) and log_probs_out (r,),
    given the model's logs: initial (N,), transition (N, N) and emission by
    symbol (M, N).

    One (r, N, N) score buffer is reused at every step.
    """
    log_pi, log_a, emission_by_symbol = logs
    deltas = np.empty((rows.shape[1], rows.shape[0], len(log_pi)))
    scores = np.empty((rows.shape[0], *log_a.shape))
    deltas[0] = log_pi + emission_by_symbol[rows[:, 0]]
    for t in range(1, rows.shape[1]):
        np.add(deltas[t - 1][:, :, None], log_a, out=scores)
        np.maximum.reduce(scores, axis=1, out=deltas[t])
        deltas[t] += emission_by_symbol[rows[:, t]]
    paths_out[:, -1] = np.argmax(deltas[-1], axis=1)
    for t in range(rows.shape[1] - 1, 0, -1):
        paths_out[:, t - 1] = np.argmax(deltas[t - 1] + log_a[:, paths_out[:, t]].T, axis=1)
    log_probs_out[:] = deltas[-1].max(axis=1)


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
        state = np.argmax(model.transition[state], axis=1)
        tails[:, step] = quantizer.decode(np.argmax(model.emission[state], axis=1))
    return tails[paths[:, -1]]


def save_hmm(model: HmmModel, quantizer: Quantizer, path: str | Path) -> None:
    """Framed ``.ghmm`` file (see ``core.write_framed`` and the module docstring)."""
    header = {
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "quantizer_lo": quantizer.lo,
        "quantizer_hi": quantizer.hi,
        "trained_iterations": model.trained_iterations,
        "final_log_likelihood": model.final_log_likelihood,
    }
    payload = np.concatenate([model.initial, model.transition.ravel(), model.emission.ravel()])
    write_framed(path, HMM_MAGIC, HMM_VERSION, header, payload)


def load_hmm(path: str | Path) -> tuple[HmmModel, Quantizer]:
    version, header, payload = read_framed(path, HMM_MAGIC, "HMM model")
    if version != HMM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        n, m = header["n_states"], header["n_symbols"]
        lo, hi = header["quantizer_lo"], header["quantizer_hi"]
        iterations, final_ll = header["trained_iterations"], header["final_log_likelihood"]
    except KeyError as exc:
        raise FormatError(f"{path}: header lacks key {exc}") from exc
    integers, reals = (n, m, iterations), (lo, hi, final_ll)
    if not (all(is_int(v) for v in integers) and all(is_real(v) for v in reals)):
        raise FormatError(f"{path}: header field of the wrong type")
    if n < 1 or m < 1:
        raise FormatError(f"{path}: HMM needs at least one state and one symbol")
    flat = finite_floats(path, payload, n + n * n + n * m)
    initial, transition, emission = np.split(flat, [n, n + n * n])
    rows = (initial, transition.reshape(n, n), emission.reshape(n, m))
    try:
        model = HmmModel(*rows, trained_iterations=iterations, final_log_likelihood=final_ll)
        quantizer = Quantizer(m, lo, hi)
    except (InvalidValueError, OverflowError) as exc:  # an integer bound too large for a float
        raise FormatError(f"{path}: {exc}") from exc
    return model, quantizer
