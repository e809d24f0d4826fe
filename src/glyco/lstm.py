"""From-scratch stacked LSTM forecaster.

Cell update, per gate row-block order (i, f, g, o):

    i = sigmoid(W_ii x + b_ii + W_hi h_prev + b_hi)
    f = sigmoid(W_if x + b_if + W_hf h_prev + b_hf)
    g = tanh   (W_ig x + b_ig + W_hg h_prev + b_hg)
    o = sigmoid(W_io x + b_io + W_ho h_prev + b_ho)
    c = f * c_prev + i * g
    h = o * tanh(c)

Each gate keeps two bias vectors (input-side and hidden-side); collapsing
them to one would change the trainable parameter count. Training is
backpropagation through the full unrolled computation: the default mode
feeds each prediction back as the next input and differentiates through
those feedback paths as well. All internals carry a trailing batch axis so
a whole minibatch unrolls in one set of matrix products.

Forecasts have one entry point, ``rollout_batch(net, inputs (n, T))``;
``forget_trace`` is the same run on one window with every step kept.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import atomic_write, is_int, is_real
from .errors import DataError, FormatError, InvalidValueError, NumericError
from .pipeline import PreparedSet

MODEL_MAGIC = b"GLYFLSTM"
MODEL_VERSION = 1

SCALE_LO_MGDL = 20.0
SCALE_HI_MGDL = 600.0


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|.

    ``minimum(x, -x)`` rather than ``-abs(x)`` keeps the sign of a NaN input,
    so every output bit equals ``1/(1+exp(-x))`` for x >= 0 and
    ``exp(x)/(1+exp(x))`` otherwise.
    """
    e = np.exp(np.minimum(x, -x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


@dataclass
class LstmLayerParams:
    """One layer's weights. W_input is (4h, d), W_hidden (4h, h), biases (4h,)."""

    input_size: int
    hidden_size: int
    w_input: np.ndarray
    w_hidden: np.ndarray
    b_input: np.ndarray
    b_hidden: np.ndarray

    def __post_init__(self) -> None:
        h, d = self.hidden_size, self.input_size
        expected = {
            "w_input": (4 * h, d),
            "w_hidden": (4 * h, h),
            "b_input": (4 * h,),
            "b_hidden": (4 * h,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise InvalidValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidValueError(f"{name} contains non-finite entries")

    def param_count(self) -> int:
        h, d = self.hidden_size, self.input_size
        return 4 * h * d + 4 * h * h + 8 * h


@dataclass
class Scaler:
    """Fixed affine map between mg/dL and the unit interval."""

    lo: float = SCALE_LO_MGDL
    hi: float = SCALE_HI_MGDL

    def scale(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=float) - self.lo) / (self.hi - self.lo)

    def inverse(self, u: np.ndarray) -> np.ndarray:
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)

    @property
    def span(self) -> float:
        return self.hi - self.lo


@dataclass
class LstmNetwork:
    """Stacked layers plus a scalar output head applied to the top hidden state."""

    layers: list[LstmLayerParams]
    head_weights: np.ndarray
    head_bias: float
    scaler: Scaler = field(default_factory=Scaler)
    seed: int = 0

    @property
    def hidden_size(self) -> int:
        return self.head_weights.shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def clone(self) -> "LstmNetwork":
        return LstmNetwork(
            layers=[
                LstmLayerParams(
                    p.input_size,
                    p.hidden_size,
                    p.w_input.copy(),
                    p.w_hidden.copy(),
                    p.b_input.copy(),
                    p.b_hidden.copy(),
                )
                for p in self.layers
            ],
            head_weights=self.head_weights.copy(),
            head_bias=self.head_bias,
            scaler=Scaler(self.scaler.lo, self.scaler.hi),
            seed=self.seed,
        )


def new_network(
    hidden_size: int = 8,
    n_layers: int = 3,
    seed: int = 42,
    input_size: int = 1,
    scaler: Scaler | None = None,
) -> LstmNetwork:
    """Seeded uniform initialization in +-1/sqrt(hidden_size)."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(hidden_size)
    layers = []
    for layer_index in range(n_layers):
        d = input_size if layer_index == 0 else hidden_size
        layers.append(
            LstmLayerParams(
                input_size=d,
                hidden_size=hidden_size,
                w_input=rng.uniform(-bound, bound, (4 * hidden_size, d)),
                w_hidden=rng.uniform(-bound, bound, (4 * hidden_size, hidden_size)),
                b_input=rng.uniform(-bound, bound, 4 * hidden_size),
                b_hidden=rng.uniform(-bound, bound, 4 * hidden_size),
            )
        )
    return LstmNetwork(
        layers=layers,
        head_weights=rng.uniform(-bound, bound, hidden_size),
        head_bias=float(rng.uniform(-bound, bound)),
        scaler=scaler or Scaler(),
        seed=seed,
    )


def param_count(net: LstmNetwork) -> int:
    """Total trainable parameters: layers plus the scalar head."""
    return sum(p.param_count() for p in net.layers) + net.hidden_size + 1


def param_arrays(net: LstmNetwork) -> list[np.ndarray]:
    """Mutable views of all parameters in a fixed, documented order.

    Per layer: w_input, w_hidden, b_input, b_hidden; then head weights. The
    scalar head bias is handled separately because floats are immutable.
    """
    out: list[np.ndarray] = []
    for p in net.layers:
        out.extend([p.w_input, p.w_hidden, p.b_input, p.b_hidden])
    out.append(net.head_weights)
    return out


def get_flat_params(net: LstmNetwork) -> np.ndarray:
    parts = [a.ravel() for a in param_arrays(net)] + [np.array([net.head_bias])]
    return np.concatenate(parts)


def set_flat_params(net: LstmNetwork, flat: np.ndarray) -> None:
    if flat.shape != (param_count(net),):
        raise InvalidValueError(f"expected {param_count(net)} parameters, got {flat.shape}")
    cursor = 0
    for arr in param_arrays(net):
        arr[...] = flat[cursor : cursor + arr.size].reshape(arr.shape)
        cursor += arr.size
    net.head_bias = float(flat[cursor])


def _cell_step(layer: LstmLayerParams, bias, x, h_prev, c_prev, gates, c, tc, h) -> None:
    """Batched cell step; every array carries a trailing batch axis.

    Writes the activated gates (i, f, g, o stacked as (4h, B)), the cell
    state c, tanh(c) and h = o * tanh(c) into the given arrays. ``bias`` is
    (b_input + b_hidden) as a (4h, 1) column.
    """
    n = layer.hidden_size
    a = layer.w_input @ x + layer.w_hidden @ h_prev + bias
    _sigmoid(a, out=gates)
    np.tanh(a[2 * n : 3 * n], out=gates[2 * n : 3 * n])
    i, f, g, o = gates[:n], gates[n : 2 * n], gates[2 * n : 3 * n], gates[3 * n :]
    np.add(f * c_prev, i * g, out=c)
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


@dataclass
class ForgetTrace:
    """Forget-gate activations for one prediction run: (layers, steps, h)."""

    values: np.ndarray
    phases: tuple[str, ...]  # "observed" or "recursive" per processed step

    def to_csv_rows(self):
        n_layers, n_steps, h = self.values.shape
        yield ["layer", "timestep", "phase"] + [f"unit{u}" for u in range(h)]
        for layer in range(n_layers):
            for t in range(n_steps):
                yield [layer, t, self.phases[t]] + [repr(float(v)) for v in self.values[layer, t]]


class _Unroll:
    """Forward pass over observed steps plus recursive feedback steps.

    With keep_steps, every step's states and gates stay in arrays for a
    backward pass or a forget-gate trace: ``hs`` and ``cs`` are (T+1, L, h, B)
    with the zero state at index 0, ``gates`` is (T, L, 4h, B) and ``tcs``
    (tanh of the cell state) is (T, L, h, B). Without it, two state slots are
    used in turn and one gate slot is overwritten, so memory does not grow
    with the window length.
    """

    def __init__(self, net: LstmNetwork, keep_steps: bool):
        self.net = net
        self.keep_steps = keep_steps

    def input_at(self, t: int) -> np.ndarray:
        """Layer-0 input of step t as a (1, B) row."""
        if t < self.t_in:
            return self.x_scaled[:, t][None, :]
        if self.feedback_inputs is not None:
            return self.feedback_inputs[:, t - self.t_in][None, :]
        return self.preds[t - self.t_in][None, :]

    def run(self, x_scaled: np.ndarray, horizon: int, feedback_inputs: np.ndarray | None):
        """x_scaled is (B, T_in); returns scaled predictions of shape (horizon, B).

        feedback_inputs, when given (teacher forcing), is (B, horizon) scaled
        targets used as the recursive-phase inputs instead of predictions.
        """
        net = self.net
        n_batch, t_in = x_scaled.shape
        t_total = t_in + horizon - 1
        n_layers, h_size = net.n_layers, net.hidden_size
        self.x_scaled, self.feedback_inputs, self.t_in = x_scaled, feedback_inputs, t_in
        self.preds = preds = np.empty((horizon, n_batch))
        depth = t_total if self.keep_steps else 1
        self.hs = hs = np.empty((depth + 1, n_layers, h_size, n_batch))
        self.cs = cs = np.empty((depth + 1, n_layers, h_size, n_batch))
        hs[0] = cs[0] = 0.0
        self.gates = gates = np.empty((depth, n_layers, 4 * h_size, n_batch))
        self.tcs = tcs = np.empty((depth, n_layers, h_size, n_batch))
        biases = [(p.b_input + p.b_hidden)[:, None] for p in net.layers]

        for t in range(t_total):
            if self.keep_steps:
                s, prev, cur = t, t, t + 1
            else:
                s, prev, cur = 0, t % 2, 1 - t % 2
            x = self.input_at(t)
            for l, layer in enumerate(net.layers):
                _cell_step(
                    layer, biases[l], x, hs[prev, l], cs[prev, l],
                    gates[s, l], cs[cur, l], tcs[s, l], hs[cur, l],
                )
                x = hs[cur, l]
            if t >= t_in - 1:
                preds[t - (t_in - 1)] = net.head_weights @ hs[cur, -1] + net.head_bias
        return preds

    def trace(self) -> ForgetTrace:
        h_size = self.net.hidden_size
        forget = self.gates[:, :, h_size : 2 * h_size, 0]  # (T, L, h); inference batch is 1
        phases = tuple(
            "observed" if t < self.t_in else "recursive" for t in range(forget.shape[0])
        )
        return ForgetTrace(values=np.transpose(forget, (1, 0, 2)), phases=phases)


def _checked_forecast(
    net: LstmNetwork, inputs: np.ndarray, horizon: int, keep_steps: bool
) -> tuple[np.ndarray, _Unroll]:
    """Recursive forecasts in mg/dL for rows of inputs (n, T), and the run behind them.

    Each row's observed window is consumed first; each prediction is then fed
    back as the next input until the horizon is filled. A non-finite state
    stays in the cell state and reaches every later prediction, so one check
    of the mg/dL output covers states and predictions alike; it names the
    first bad horizon step.
    """
    if not net.layers:
        raise DataError("network has no layers")
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise DataError(f"forecast inputs must have shape (n, T) with T >= 1, got {inputs.shape}")
    unroll = _Unroll(net, keep_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        preds = unroll.run(net.scaler.scale(inputs), horizon, None)
        out = net.scaler.inverse(preds.T)
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise NumericError(f"non-finite forecast at horizon step {step} of {horizon}")
    return out, unroll


def rollout_batch(net: LstmNetwork, inputs: np.ndarray, horizon: int = 12) -> np.ndarray:
    """Recursive forecasts for rows of inputs (n, T) in mg/dL; returns (n, horizon)."""
    return _checked_forecast(net, np.asarray(inputs, dtype=float), horizon, keep_steps=False)[0]


def forget_trace(net: LstmNetwork, inputs: np.ndarray, horizon: int = 12) -> ForgetTrace:
    """Forget-gate activations of every step of one window's rollout, inputs (1, T)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != 1:
        raise DataError(f"forget_trace takes one window of shape (1, T), got {inputs.shape}")
    return _checked_forecast(net, inputs, horizon, keep_steps=True)[1].trace()


@dataclass
class Gradients:
    """Per-parameter gradients in the same order as ``param_arrays`` plus head bias."""

    arrays: list[np.ndarray]
    head_bias: float

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays] + [np.array([self.head_bias])])

    def global_norm(self) -> float:
        return float(math.sqrt(sum(float(np.sum(a * a)) for a in self.arrays) + self.head_bias**2))

    def scale(self, factor: float) -> None:
        for a in self.arrays:
            a *= factor
        self.head_bias *= factor


def _loss_and_gradients_batch(
    net: LstmNetwork,
    inputs_scaled: np.ndarray,
    targets_scaled: np.ndarray,
    feedback: str = "recursive",
) -> tuple[float, Gradients]:
    """Mean-over-batch MSE in scaled space plus full BPTT gradients.

    With recursive feedback the gradient of a fed-back prediction includes
    the path through every later step it influenced; with teacher forcing the
    recursive-phase inputs are the scaled targets and carry no gradient.
    """
    if feedback not in ("recursive", "teacher"):
        raise InvalidValueError(f"unknown feedback mode {feedback!r}")
    n_batch, t_in = inputs_scaled.shape
    horizon = targets_scaled.shape[1]
    t_total = t_in + horizon - 1
    n_layers = len(net.layers)
    h_size = net.hidden_size

    unroll = _Unroll(net, keep_steps=True)
    feed = targets_scaled if feedback == "teacher" else None
    preds = unroll.run(inputs_scaled, horizon, feed)
    residual = preds - targets_scaled.T  # (horizon, B)
    loss = float(np.mean(residual**2))
    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")

    grads = [
        (
            np.zeros_like(p.w_input),
            np.zeros_like(p.w_hidden),
            np.zeros_like(p.b_input),
            np.zeros_like(p.b_hidden),
        )
        for p in net.layers
    ]
    d_head_w = np.zeros(h_size)
    d_head_b = 0.0

    # d loss / d prediction; feedback contributions are added as the reverse
    # sweep reaches the step where each prediction was consumed as input.
    d_pred = 2.0 * residual / (horizon * n_batch)
    dh_next = [np.zeros((h_size, n_batch)) for _ in range(n_layers)]
    dc_next = [np.zeros((h_size, n_batch)) for _ in range(n_layers)]
    hs, cs, gates, tcs = unroll.hs, unroll.cs, unroll.gates, unroll.tcs
    da = np.empty((4 * h_size, n_batch))
    da_i, da_f, da_g, da_o = (da[k * h_size : (k + 1) * h_size] for k in range(4))

    for t in range(t_total - 1, -1, -1):
        routes_input = feedback == "recursive" and t >= t_in
        d_from_above: np.ndarray | None = None
        if t >= t_in - 1:
            gp = d_pred[t - (t_in - 1)]  # (B,)
            d_head_w += hs[t + 1, -1] @ gp
            d_head_b += float(gp.sum())
            d_from_above = net.head_weights[:, None] * gp[None, :]

        for l in range(n_layers - 1, -1, -1):
            layer = net.layers[l]
            step_gates = gates[t, l]
            i, f = step_gates[:h_size], step_gates[h_size : 2 * h_size]
            g, o = step_gates[2 * h_size : 3 * h_size], step_gates[3 * h_size :]
            tc = tcs[t, l]
            dh = dh_next[l] if d_from_above is None else dh_next[l] + d_from_above
            dc = dc_next[l] + dh * o * (1.0 - tc * tc)
            # Each product keeps its association, e.g. ((dc * g) * i) * (1 - i):
            # regrouping changes the last bits of the gradients and every model.
            np.multiply(dc * g * i, 1.0 - i, out=da_i)
            np.multiply(dc * cs[t, l] * f, 1.0 - f, out=da_f)
            np.multiply(dc * i, 1.0 - g * g, out=da_g)
            np.multiply(dh * tc * o, 1.0 - o, out=da_o)
            x = unroll.input_at(t) if l == 0 else hs[t + 1, l - 1]
            gw_i, gw_h, gb_i, gb_h = grads[l]
            gw_i += da @ x.T
            gw_h += da @ hs[t, l].T
            db = da.sum(axis=1)
            gb_i += db
            gb_h += db
            if l > 0 or routes_input:
                d_from_above = layer.w_input.T @ da  # gradient w.r.t. this layer's input
            dh_next[l] = layer.w_hidden.T @ da
            dc_next[l] = dc * f

        if routes_input:
            d_pred[t - t_in] += d_from_above[0]  # route into the fed-back prediction

    arrays: list[np.ndarray] = []
    for gw_i, gw_h, gb_i, gb_h in grads:
        arrays.extend([gw_i, gw_h, gb_i, gb_h])
    arrays.append(d_head_w)
    return loss, Gradients(arrays=arrays, head_bias=d_head_b)


class AdamOptimizer:
    """Adam with bias correction; moments parallel the parameter arrays."""

    def __init__(self, net: LstmNetwork, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        params = param_arrays(net)
        self.m = [np.zeros_like(p) for p in params] + [0.0]
        self.v = [np.zeros_like(p) for p in params] + [0.0]

    def step(self, net: LstmNetwork, grads: Gradients) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        params = param_arrays(net)
        for idx, (p, g) in enumerate(zip(params, grads.arrays)):
            self.m[idx] = self.beta1 * self.m[idx] + (1.0 - self.beta1) * g
            self.v[idx] = self.beta2 * self.v[idx] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[idx] / bc1) / (np.sqrt(self.v[idx] / bc2) + self.eps)
        gb = grads.head_bias
        self.m[-1] = self.beta1 * self.m[-1] + (1.0 - self.beta1) * gb
        self.v[-1] = self.beta2 * self.v[-1] + (1.0 - self.beta2) * gb * gb
        net.head_bias -= self.lr * (self.m[-1] / bc1) / (math.sqrt(self.v[-1] / bc2) + self.eps)


@dataclass
class Checkpoint:
    epoch: int
    network: LstmNetwork
    train_mse_scaled: float
    train_rmse_mgdl: float
    heuristic_rmse_mgdl: float


@dataclass
class TrainResult:
    checkpoints: list[Checkpoint]
    best_epoch: int  # 1-based epoch number of the selected checkpoint

    @property
    def best(self) -> Checkpoint:
        return self.checkpoints[self.best_epoch - 1]

    def curve_rows(self):
        yield ["epoch", "train_mse_scaled", "train_rmse_mgdl", "heuristic_rmse_mgdl"]
        for cp in self.checkpoints:
            yield [
                cp.epoch,
                repr(cp.train_mse_scaled),
                repr(cp.train_rmse_mgdl),
                repr(cp.heuristic_rmse_mgdl),
            ]


def train(
    net: LstmNetwork,
    prepared: PreparedSet,
    epochs: int = 20,
    batch: int = 128,
    lr: float = 0.001,
    heuristic_test_n: int = 1000,
    seed: int = 42,
    clip_norm: float | None = 5.0,
    feedback: str = "recursive",
) -> TrainResult:
    """Minibatch Adam training with a per-epoch held-out heuristic.

    Each epoch reshuffles the training examples with the seeded generator,
    averages gradients over each minibatch, and then scores RMSE (mg/dL) on a
    fixed seeded sample of at most heuristic_test_n test examples. The best
    checkpoint is the epoch with the lowest heuristic RMSE, earliest on ties.
    """
    if prepared.n_train == 0:
        raise DataError("training set is empty")
    if prepared.n_test == 0:
        raise DataError("heuristic checkpoint selection needs a non-empty test set")
    horizon = prepared.horizon
    rng = np.random.default_rng(seed)
    sample_rng = np.random.default_rng([seed, 1])
    sample_size = min(heuristic_test_n, prepared.n_test)
    sample = sample_rng.choice(prepared.n_test, size=sample_size, replace=False)
    sample_inputs, sample_targets = prepared.gather("test", sample)
    # Scaling is elementwise, so minibatches gathered from the scaled readings
    # hold the same bits as scaled minibatches of windows.
    readings_scaled = net.scaler.scale(prepared.readings)

    optimizer = AdamOptimizer(net, lr=lr)
    checkpoints: list[Checkpoint] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(prepared.n_train)
        epoch_loss = 0.0
        for start in range(0, prepared.n_train, batch):
            rows = order[start : start + batch]
            inputs, targets = prepared.gather("train", rows, readings_scaled)
            loss, grads = _loss_and_gradients_batch(net, inputs, targets, feedback)
            if clip_norm is not None:
                norm = grads.global_norm()
                if norm > clip_norm:
                    grads.scale(clip_norm / norm)
            optimizer.step(net, grads)
            epoch_loss += loss * rows.size
        epoch_loss /= prepared.n_train

        preds = rollout_batch(net, sample_inputs, horizon)
        heuristic = float(np.sqrt(np.mean((preds - sample_targets) ** 2)))
        checkpoints.append(
            Checkpoint(
                epoch=epoch,
                network=net.clone(),
                train_mse_scaled=epoch_loss,
                train_rmse_mgdl=math.sqrt(epoch_loss) * net.scaler.span,
                heuristic_rmse_mgdl=heuristic,
            )
        )

    best_epoch = min(checkpoints, key=lambda cp: (cp.heuristic_rmse_mgdl, cp.epoch)).epoch
    return TrainResult(checkpoints=checkpoints, best_epoch=best_epoch)


class LstmForecaster:
    name = "lstm"

    def __init__(self, net: LstmNetwork, horizon: int = 12):
        self.net = net
        self.horizon = horizon

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return rollout_batch(self.net, inputs, self.horizon)


def save_model(net: LstmNetwork, path: str | Path, provenance: dict | None = None) -> None:
    """Binary layout: magic, version, JSON header, then parameter tensors
    (per layer: w_input, w_hidden, b_input, b_hidden; then head) as f64 LE."""
    header = {
        "hidden_size": net.hidden_size,
        "n_layers": net.n_layers,
        "input_size": net.layers[0].input_size if net.layers else 1,
        "scaler_lo": net.scaler.lo,
        "scaler_hi": net.scaler.hi,
        "seed": net.seed,
        "provenance": provenance or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as handle:
        handle.write(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(blob)) + blob)
        handle.write(get_flat_params(net).astype("<f8").tobytes())


def load_model(path: str | Path) -> tuple[LstmNetwork, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MODEL_MAGIC:
        raise FormatError(f"{path}: not an LSTM model file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header_end = 16 + header_len
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")

    try:
        sizes = [header[key] for key in ("hidden_size", "n_layers", "input_size")]
        seed, lo, hi = header["seed"], header["scaler_lo"], header["scaler_hi"]
        provenance = header["provenance"]
    except KeyError as exc:
        raise FormatError(f"{path}: header lacks key {exc}") from exc
    typed = all(is_int(v) and v >= 1 for v in sizes) and is_int(seed) and seed >= 0
    if not (typed and is_real(lo) and is_real(hi) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: header field of the wrong type or out of range")
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError as exc:
        raise FormatError(f"{path}: scaler bound out of range: {exc}") from exc
    if not (lo < hi and math.isfinite(hi - lo)):
        raise FormatError(f"{path}: scaler bounds must be finite with lo < hi")
    h, n_layers, input_size = sizes
    # The payload length is checked against the header before anything is
    # allocated, so a corrupt size cannot ask for more memory than the file holds.
    n_params = 4 * h * (input_size + h + 2) + (n_layers - 1) * 8 * h * (h + 1) + h + 1
    payload = raw[header_end:]
    if len(payload) != 8 * n_params:
        raise FormatError(
            f"{path}: parameter payload is {len(payload)} bytes, expected {8 * n_params}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(float)
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"{path}: non-finite parameter in the payload")
    net = new_network(h, n_layers, seed, input_size, Scaler(lo, hi))
    set_flat_params(net, flat)
    return net, provenance
