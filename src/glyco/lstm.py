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

The kernel is a layer wavefront. Cell (t, l) needs only (t, l-1) and
(t-1, l), so every cell on one anti-diagonal t + l = d runs as one set of
stacked NumPy calls over (L, ., B) arrays, forward and in reverse for the
backward sweep. The recursive phase, where layer 0 at step t needs the
prediction of step t - 1, runs one cell per diagonal. States are stored
diagonal-major (cell (t, l) at index t + l), so each diagonal is a plain
slice; layer 0's inputs are (T, B) rows of their own. Training keeps every
cell's gates but the cell states only at checkpoint diagonals, and the
backward sweep rebuilds the rest with the forward's own arithmetic.

The gates are fused as in cuDNN (Appleyard, Kocisky and Blunsom,
arXiv:1604.01946): layer l's input and recurrent weights are one (4h, 2h)
block of a stack W (L, 4h, 2h), layer 0's one input column padded with
zeros, so one stacked matmul over the [input; h_prev] pairs gives every
pre-activation of a diagonal. The sigmoid gates take sigmoid(a) =
1/2 + tanh(a/2)/2 with their rows of W and of the bias halved, which is
exact, so one tanh covers all four gates: 11 NumPy calls per diagonal
forward. The reverse sweep makes one da @ [input; h_prev]^T for both weight
gradients and one W^T @ da for both input gradients, about 25 calls per
diagonal. The tests hold the kernel bit for bit to a per-cell reference of
the same arithmetic, in float32 and in float64.

The kernel computes in the dtype of ``net.params``: every state, gate, mark,
gradient and Adam moment is allocated in it. The package builds float32
networks (``new_network``, ``load_model``); float64 is the tests' reference
precision of the same code. Readings are scaled in float64 and rounded once
to the network's dtype (``_scaled``), and forecasts come back in float64
mg/dL.

Forecasts have one entry point, ``rollout_batch(net, inputs (n, T))``,
which runs the kernel on ROLLOUT_CHUNK windows at a time;
``forget_trace`` is the same run on one window with every step kept, and
returns its forget-gate activations as one (layers, steps, h) array.
``train`` returns plain values: the best epoch's network, that epoch and the
per-epoch curve rows; the workflow step writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import finite_floats, is_int, is_real, read_framed, write_framed
from .errors import DataError, FormatError, InvalidValueError, NumericError
from .pipeline import PreparedSet

MODEL_MAGIC = b"GLYFLSTM"
MODEL_VERSION = 2

SCALE_LO_MGDL = 20.0
SCALE_HI_MGDL = 600.0
# Windows per kernel run of a forecast: at 8 x 3 in float32 a full run peaks at
# about 3.7 MB, and larger chunks ran no faster on one BLAS thread.
ROLLOUT_CHUNK = 1024


@dataclass
class Scaler:
    """Fixed affine map between mg/dL and the unit interval."""

    lo: float = SCALE_LO_MGDL
    hi: float = SCALE_HI_MGDL

    def scale(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """v in the unit interval, computed in float64 and rounded once into out."""
        v = np.subtract(np.asarray(v, dtype=float), self.lo)
        return np.divide(v, self.hi - self.lo, out=v if out is None else out)

    def inverse(self, u: np.ndarray) -> np.ndarray:
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)

    @property
    def span(self) -> float:
        return self.hi - self.lo


def param_count(hidden_size: int, n_layers: int) -> int:
    """Trainable parameters of a stack of n_layers layers of hidden_size units.

    Layer 0 reads one value per step, so its input matrix is (4h, 1); every
    other weight matrix is (4h, h), each layer has two (4h,) bias vectors,
    and the head has h weights and a bias.
    """
    if hidden_size < 1 or n_layers < 1:
        raise DataError(
            f"a network needs at least one layer of one unit, got {n_layers} x {hidden_size}"
        )
    h = hidden_size
    return 4 * h + (2 * n_layers - 1) * 4 * h * h + 8 * n_layers * h + h + 1


def _views(flat: np.ndarray, hidden_size: int, n_layers: int) -> list[np.ndarray]:
    """Views of a parameter-sized vector in stacked order.

    w_input0 (4h, 1) for layer 0, w_input (L-1, 4h, h) for the upper layers,
    w_hidden (L, 4h, h), b_input and b_hidden (L, 4h), head_weights (h,) and
    head_bias (), a 0-d view. A stacked ``np.matmul`` makes one BLAS call per
    layer with the strides of the single product it replaces, so it gives the
    same bits. The backward sweep's transposes are views of the stacks for the
    same reason: a contiguous ``.T`` copy changes the BLAS call, and the bits
    with it.
    """
    g, h, n = 4 * hidden_size, hidden_size, n_layers
    out, cursor = [], 0
    for shape in [(g, 1), (n - 1, g, h), (n, g, h), (n, g), (n, g), (h,), ()]:
        size = math.prod(shape)
        out.append(flat[cursor : cursor + size].reshape(shape))
        cursor += size
    return out


def _file_order(flat: np.ndarray, hidden_size: int, n_layers: int) -> list[np.ndarray]:
    """The views of ``_views`` in .glstm payload order: per layer w_input,
    w_hidden, b_input, b_hidden; then head_weights and head_bias."""
    w_input0, w_input, w_hidden, b_input, b_hidden, *head = _views(flat, hidden_size, n_layers)
    order = []
    for l, w_in in enumerate([w_input0, *w_input]):
        order += [w_in, w_hidden[l], b_input[l], b_hidden[l]]
    return order + head


def _stacked(file_flat: np.ndarray, hidden_size: int, n_layers: int) -> np.ndarray:
    """The float32 parameter vector whose payload order is file_flat."""
    params, cursor = np.empty(len(file_flat), np.float32), 0
    for view in _file_order(params, hidden_size, n_layers):
        view[...] = file_flat[cursor : cursor + view.size].reshape(view.shape)
        cursor += view.size
    return params


@dataclass
class LstmNetwork:
    """Stacked layers plus a scalar output head applied to the top hidden state.

    Every parameter lives in the one vector ``params``, in stacked order, and
    the named attributes (``w_input0``, ``w_input``, ``w_hidden``, ``b_input``,
    ``b_hidden``, ``head_weights``, ``head_bias``) are views into it (see
    ``_views``): write through them, never rebind them. The vector's dtype is
    the network's precision: float32, or float64, the tests' reference
    precision, which is kept as given. The kernel computes in it.
    """

    params: np.ndarray
    hidden_size: int
    n_layers: int
    scaler: Scaler = field(default_factory=Scaler)
    seed: int = 0

    def __post_init__(self) -> None:
        n_params = param_count(self.hidden_size, self.n_layers)
        dtype = np.float64 if np.asarray(self.params).dtype == np.float64 else np.float32
        self.params = np.ascontiguousarray(self.params, dtype=dtype)
        if self.params.shape != (n_params,):
            raise InvalidValueError(f"expected {n_params} parameters, got {self.params.shape}")
        (self.w_input0, self.w_input, self.w_hidden, self.b_input, self.b_hidden,
         self.head_weights, self.head_bias) = _views(self.params, self.hidden_size, self.n_layers)


def new_network(hidden_size: int = 8, n_layers: int = 3, seed: int = 42) -> LstmNetwork:
    """Seeded uniform initialization in +-1/sqrt(hidden_size), drawn in payload
    order in float64 and rounded to float32."""
    n_params = param_count(hidden_size, n_layers)
    bound = 1.0 / math.sqrt(hidden_size)
    draws = np.random.default_rng(seed).uniform(-bound, bound, n_params)
    params = _stacked(draws, hidden_size, n_layers)
    return LstmNetwork(params, hidden_size, n_layers, Scaler(), seed)


def _scaled(net: LstmNetwork, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Readings in mg/dL scaled in float64 and rounded once to the network's dtype."""
    if out is None:
        out = np.empty(np.shape(values), net.params.dtype)
    return net.scaler.scale(values, out=out)


def _pairs(z: np.ndarray) -> np.ndarray:
    """The overlapping (L, 2h, B) view of a state slot z (L+1, h, B) whose item
    l is slots l and l + 1: layer l's input stacked on its own previous h."""
    n_slots, h, n_batch = z.shape
    return np.lib.stride_tricks.as_strided(
        z, (n_slots - 1, 2 * h, n_batch), z.strides, writeable=False
    )


def _schedule(n_layers: int, t_wave: int, t_total: int) -> list[tuple[int, int, int]]:
    """(diagonal, first layer, end layer) of each forward step, in order.

    Cell (t, l) needs only (t, l-1) and (t-1, l), so while t < t_wave every
    cell of a diagonal t + l = d runs in one step. Later steps are the
    recursive phase, where layer 0 at t needs the prediction of t - 1: they
    run one cell per step, layer by layer.
    """
    steps = [
        (d, max(0, d - t_wave + 1), min(n_layers, d + 1)) for d in range(t_wave + n_layers - 1)
    ]
    steps += [(t + l, l, l + 1) for t in range(t_wave, t_total) for l in range(n_layers)]
    return steps


class _Unroll:
    """Forward pass over observed steps plus recursive feedback steps.

    The cells run one diagonal t + l = d at a time, in the steps of
    ``_schedule``: the whole window (every step under teacher forcing) as a
    wavefront, then the recursive phase one cell at a time. States are stored
    diagonal-major, so a diagonal is a plain slice. The cell states c run
    through two diagonal slots used in turn, the hidden states through two
    state slots (L+1, h, B) (see ``cells``), and tanh(c) through the
    one-diagonal scratch ``tcs`` (L, h, B), whose row l ends holding tanh of
    layer l's last cell state. Without keep_steps one gate slot is
    overwritten too, so memory does not grow with the window length.

    With keep_steps, ``gates`` (T+L-1, L, 4h, B) holds cell (t, l) at index
    t + l; its cells before step 0 or past a layer's last step are zero.
    Of the cell states, only every ``span``-th slot is kept, in ``marks``:
    slot j is (L, h, B) with cell (t, l) at j = t + l + 1 and layer l's zero
    initial state at j = l, and ``marks[m]`` is slot m * span. ``c_slot``
    rebuilds the others for the backward sweep, which also recomputes
    tanh(c) from c and h from the two; both give the forward's bits.
    """

    def __init__(self, net: LstmNetwork, keep_steps: bool):
        self.net = net
        self.keep_steps = keep_steps
        n, dtype = net.hidden_size, net.params.dtype
        # The fused stack W (L, 4h, 2h): input weights in columns :h (layer
        # 0's one column, zeros beside it), w_hidden in columns h:.
        self.w = w = np.zeros((net.n_layers, 4 * n, 2 * n), dtype)
        w[0, :, :1] = net.w_input0
        w[1:, :, :n] = net.w_input
        w[:, :, n:] = net.w_hidden
        # sigmoid(a) = 1/2 + tanh(a/2)/2, and halving is exact: the i, f and
        # o rows of W and of the summed bias are halved, and the tanh of all
        # four gates is mapped by * scale + shift; g's shift is -0, which
        # keeps every bit of tanh. ``affine`` is (bias, scale, shift), each
        # (L, 4h, 1).
        scale, shift = np.full((2, 4 * n, 1), 0.5, dtype)
        scale[2 * n : 3 * n], shift[2 * n : 3 * n] = 1.0, -0.0
        self.w_half = w * scale
        bias = (net.b_input + net.b_hidden)[:, :, None] * scale
        self.affine = [bias] + [np.broadcast_to(a, bias.shape) for a in (scale, shift)]

    def cells(self, lo: int, affine, pairs, c_in, gates, c, tc, h) -> None:
        """One stacked step over the cells (d - l, l) of a diagonal d, layers lo..lo+m-1.

        Every array carries a trailing batch axis. ``pairs`` is the (m, 2h, B)
        view (see ``_pairs``) of the state slot of diagonal d - 1, which holds
        layer 0's input row in row 0 of slot 0 (its other rows zero) and
        layer l's h in slot l + 1; ``c_in`` is diagonal d - 1's cell states
        of all L layers; ``affine`` is ``self.affine`` or a copy of it
        broadcast to (L, 4h, B). Writes the gates (i, f, g, o stacked as
        (m, 4h, B)), the cell state c, tanh(c) and h = o * tanh(c) of the m
        cells.
        """
        n, hi = self.net.hidden_size, lo + len(gates)
        bias, scale, shift = affine
        np.matmul(self.w_half[lo:hi], pairs, out=gates)
        gates += bias[lo:hi]
        np.tanh(gates, out=gates)
        gates *= scale[lo:hi]
        gates += shift[lo:hi]
        i, f, g, o = (gates[:, k * n : (k + 1) * n] for k in range(4))
        np.add(f * c_in[lo:hi], i * g, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)

    def run(self, xs: np.ndarray, t_in: int, teacher: bool) -> np.ndarray:
        """Scaled predictions of shape (horizon, B) for layer 0's input rows xs.

        xs is (t_in + horizon, B): the window's scaled steps, then the
        recursive-phase inputs. Under teacher forcing these are given (the
        scaled targets); otherwise each prediction is written into the row
        after the window as the next step's input.
        """
        net = self.net
        horizon, n_batch = len(xs) - t_in, xs.shape[1]
        t_total = t_in + horizon - 1
        n_layers, h_size, dtype = net.n_layers, net.hidden_size, net.params.dtype
        self.t_total = t_total
        if teacher:
            preds = np.empty((horizon, n_batch), dtype)
            self.steps = _schedule(n_layers, t_total, t_total)
        else:
            preds = xs[t_in:]
            self.steps = _schedule(n_layers, t_in, t_total)
        # Slot d + 1 holds the states of diagonal d; the last diagonal is
        # t_total + n_layers - 2.
        self.depth = depth = t_total + n_layers
        state = (n_layers, h_size, n_batch)
        zs, cs = np.zeros((2, n_layers + 1, h_size, n_batch), dtype), np.zeros((2, *state), dtype)
        pairs = [_pairs(z) for z in zs]
        # Copied to the full (L, 4h, B) size: a broadcast operand costs two to
        # three times as much per call.
        full = (n_layers, 4 * h_size, n_batch)
        affine = [np.broadcast_to(a, full).copy() for a in self.affine]
        self.tcs = tcs = np.empty(state, dtype)
        self.gates = gates = np.empty(
            (depth - 1 if self.keep_steps else 1, n_layers, 4 * h_size, n_batch), dtype
        )
        if self.keep_steps:
            for l in range(n_layers):  # the cells before step 0 and past the last step
                gates[:l, l] = gates[t_total + l :, l] = 0.0
            # K ~ sqrt(T + L) slots per mark; at least L, so that the blocks of
            # c_slot can serve the backward sweep's revisits (see there).
            self.span = span = max(n_layers, math.isqrt(depth))
            self.marks = marks = np.zeros(((depth - 1) // span + 1, *state), dtype)
            self.blocks = None  # allocated by c_slot, so the forward's peak does not hold them
            self.held = [-1, -1]

        for d, lo, hi in self.steps:
            k = d % 2
            if lo == 0:
                zs[k, 0, 0] = xs[d]
            self.cells(
                lo, affine, pairs[k][lo:hi], cs[k], gates[d if self.keep_steps else 0, lo:hi],
                cs[1 - k, lo:hi], tcs[lo:hi], zs[1 - k, lo + 1 : hi + 1],
            )
            if self.keep_steps and (d + 1) % span == 0:
                marks[(d + 1) // span, lo:hi] = cs[1 - k, lo:hi]
            t = d - (n_layers - 1)
            if hi == n_layers and t >= t_in - 1:
                preds[t - (t_in - 1)] = net.head_weights @ zs[1 - k, -1] + net.head_bias
        return preds

    def c_slot(self, j: int) -> np.ndarray:
        """Cell-state slot j (L, h, B) of a kept run, rebuilt from its mark.

        Block b is the slots b * span onwards, up to the next mark. A block
        is rebuilt in full when first read: i * g of all its cells in one
        call, then ``np.add(f * c_prev, i * g)`` diagonal by diagonal, the
        forward's own operands and order, so every state keeps its bits.
        The cells before step 0 or past a layer's last step have zero gates
        and rebuild to zero: before step 0 that is the initial state, and
        past the last step it is never read. Block b lives in buffer b % 2.
        The backward sweep reads the slots in decreasing order, but its
        recursive phase goes back up to L - 2 slots, so it still reads block
        b + 1 while it is in block b, and never block b + 2 again, since
        span >= L.
        """
        b, r = divmod(j, self.span)
        if self.blocks is None:
            self.blocks = np.empty((2, self.span, *self.marks.shape[1:]), self.marks.dtype)
        block = self.blocks[b % 2]
        if self.held[b % 2] != b:
            n, first = self.net.hidden_size, b * self.span
            m = min(self.span, self.depth - first) - 1  # the slots after the mark
            gates = self.gates[first : first + m]
            block[0] = self.marks[b]
            np.multiply(gates[:, :, :n], gates[:, :, 2 * n : 3 * n], out=block[1 : m + 1])
            for k in range(m):
                np.add(gates[k, :, n : 2 * n] * block[k], block[k + 1], out=block[k + 1])
            self.held[b % 2] = b
        return block[r]


def _checked_forecast(
    net: LstmNetwork, inputs: np.ndarray, horizon: int, keep_steps: bool
) -> tuple[np.ndarray, _Unroll]:
    """Recursive forecasts in mg/dL for rows of inputs (n, T), and the last run behind them.

    Each row's observed window is consumed first; each prediction is then fed
    back as the next input until the horizon is filled. A non-finite state
    stays in the cell state and reaches every later prediction, so one check
    of the mg/dL output covers states and predictions alike; it names the
    first bad horizon step.

    The rows run ROLLOUT_CHUNK at a time, so the kernel's working set does
    not grow with n. A one-row batch would run every product as a
    matrix-vector call, whose bits differ from a batch's, so one row runs as
    a batch of two copies of itself: a window's forecast and its run then do
    not depend on whether it is forecast alone, in a batch or in a chunk.
    """
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise DataError(f"forecast inputs must have shape (n, T) with T >= 1, got {inputs.shape}")
    n_rows, t_in = inputs.shape
    unroll, out = _Unroll(net, keep_steps), np.empty((n_rows, horizon))
    for lo in range(0, n_rows, ROLLOUT_CHUNK):
        rows = inputs[lo : lo + ROLLOUT_CHUNK]
        xs = np.empty((t_in + horizon, max(len(rows), 2)), net.params.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            _scaled(net, np.repeat(rows, 2, axis=0).T if len(rows) == 1 else rows.T, out=xs[:t_in])
            preds = unroll.run(xs, t_in, teacher=False)
            out[lo : lo + len(rows)] = net.scaler.inverse(preds[:, : len(rows)].T)
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise NumericError(f"non-finite forecast at horizon step {step} of {horizon}")
    return out, unroll


def rollout_batch(net: LstmNetwork, inputs: np.ndarray, horizon: int = 12) -> np.ndarray:
    """Recursive forecasts for rows of inputs (n, T) in mg/dL; returns (n, horizon)."""
    return _checked_forecast(net, np.asarray(inputs, dtype=float), horizon, keep_steps=False)[0]


def forget_trace(net: LstmNetwork, inputs: np.ndarray, horizon: int = 12) -> np.ndarray:
    """Forget-gate activations of every step of one window's rollout, inputs (1, T).

    Returns a (layers, steps, h) array; steps before T read the window, the
    later ones read fed-back predictions.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != 1:
        raise DataError(f"forget_trace takes one window of shape (1, T), got {inputs.shape}")
    unroll = _checked_forecast(net, inputs, horizon, keep_steps=True)[1]
    # Cell (t, l) sits at diagonal t + l; the window is batch row 0.
    h = net.hidden_size
    return np.stack([
        unroll.gates[l : l + unroll.t_total, l, h : 2 * h, 0] for l in range(net.n_layers)
    ])


def _loss_and_gradients_batch(
    net: LstmNetwork,
    inputs_scaled: np.ndarray,
    targets_scaled: np.ndarray,
    feedback: str = "recursive",
) -> tuple[float, np.ndarray]:
    """Mean-over-batch MSE in scaled space plus full BPTT gradients.

    The gradient is one vector laid out like ``net.params``.
    With recursive feedback the gradient of a fed-back prediction includes
    the path through every later step it influenced; with teacher forcing the
    recursive-phase inputs are the scaled targets and carry no gradient.
    The forward pass keeps the gates of every cell and c at its marks; the
    reverse sweep rebuilds c block by block (``_Unroll.c_slot``), recomputes
    tanh(c) from c once per step and h = o * tanh(c) from the two, all with
    the forward's bits.
    """
    if feedback not in ("recursive", "teacher"):
        raise InvalidValueError(f"unknown feedback mode {feedback!r}")
    n_batch, t_in = inputs_scaled.shape
    horizon = targets_scaled.shape[1]
    n_layers, h_size = net.n_layers, net.hidden_size

    teacher = feedback == "teacher"
    dtype = net.params.dtype
    unroll = _Unroll(net, keep_steps=True)
    xs = np.empty((t_in + horizon, n_batch), dtype)
    xs[:t_in] = inputs_scaled.T
    targets = np.asarray(targets_scaled, dtype).T
    if teacher:
        xs[t_in:] = targets
    preds = unroll.run(xs, t_in, teacher)
    residual = preds - targets  # (horizon, B)
    loss = float(np.mean(residual**2))
    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")

    top, n = n_layers - 1, h_size
    grad = np.zeros_like(net.params)
    # gb is the b_input gradient; b_hidden's is the same and copied at the end.
    gw_input0, gw_input, gw_hidden, gb, gb_hidden, d_head_w, d_head_b = _views(
        grad, h_size, n_layers
    )
    gw = np.zeros_like(unroll.w)  # the fused stack's gradient, split at the end
    w_t = unroll.w.transpose(0, 2, 1)  # a view, never a contiguous copy (see _views)

    # d loss / d prediction; feedback contributions are added as the reverse
    # sweep reaches the step where each prediction was consumed as input.
    d_pred = 2.0 * residual / (horizon * n_batch)
    # dz[l] is W^T da of layer l's last swept cell: rows :h are d loss / d
    # input, for the layer below, and rows h: d loss / d h_prev, for layer l's
    # previous step. Rows :h of dz[L] hold the head's gradient during a head
    # step and -0 otherwise, which adds nothing, not even to a signed zero.
    dz = np.zeros((n_layers + 1, 2 * n, n_batch), dtype)
    dz[-1, :n] = -0.0
    dc_next = np.zeros((n_layers, n, n_batch), dtype)
    # The state slot of the diagonal before the step, laid out as the
    # forward's (see _Unroll.cells), with its h recomputed from c.
    z = np.zeros((n_layers + 1, n, n_batch), dtype)
    pairs = _pairs(z)
    gates = unroll.gates
    # Row l holds tanh(c) of the layer-l cell that the sweep reaches next.
    # The forward leaves each layer's last cell there; each step, after its
    # last read of tc, writes the diagonal-(d - 1) cells that it reads
    # through h, which are the next cells of their layers.
    tcs = unroll.tcs
    o_all = gates[:, :, 3 * n :]
    da_all = np.empty((n_layers, 4 * n, n_batch), dtype)
    ones = np.ones(n_batch, dtype)

    # The forward steps in reverse: cell (t, l) needs (t+1, l) and (t, l+1),
    # both on the next diagonal, so each layer's sums still run in decreasing t.
    for d, lo, hi in reversed(unroll.steps):
        t_top = d - top
        head = hi == n_layers and t_top >= t_in - 1
        if head:
            gp = d_pred[t_top - (t_in - 1)]  # (B,)
            d_head_w += (o_all[d, top] * tcs[top]) @ gp
            d_head_b += gp.sum()
            np.multiply(net.head_weights[:, None], gp, out=dz[-1, :n])
        dh = np.add(dz[lo:hi, n:], dz[lo + 1 : hi + 1, :n], out=dz[lo:hi, n:])
        if head:
            dz[-1, :n] = -0.0
        step_gates = gates[d, lo:hi]
        i, f, g, o = (step_gates[:, k * n : (k + 1) * n] for k in range(4))
        tc = tcs[lo:hi]
        dc = np.add(dc_next[lo:hi], dh * o * (1.0 - tc * tc), out=dc_next[lo:hi])
        c_prev = unroll.c_slot(d)  # diagonal d - 1: the cells' own c_prev and those below
        # da: s (1 - s) taken once over the gates, with 1 - g * g in g's
        # rows, times dc * g, dc * c_prev, dc * i and dh * tc.
        da = da_all[: hi - lo]
        np.subtract(1.0, step_gates, out=da)
        da *= step_gates
        np.subtract(1.0, g * g, out=da[:, 2 * n : 3 * n])
        da *= np.concatenate([dc * g, dc * c_prev[lo:hi], dc * i, dh * tc], axis=1)
        # This step reads the hidden states of diagonal d - 1, layers lo - 1 .. hi - 1.
        below = max(lo - 1, 0)
        if d > 0:
            np.multiply(
                o_all[d - 1, below:hi], np.tanh(c_prev[below:hi], out=tcs[below:hi]),
                out=z[below + 1 : hi + 1],
            )
        else:  # layer 0's zero initial state
            z[1] = 0.0
        if lo == 0:
            z[0, 0] = xs[d]
        gw[lo:hi] += np.matmul(da, pairs[lo:hi].transpose(0, 2, 1))
        gb[lo:hi] += da @ ones  # one gemv per layer, about a third of da.sum(axis=2)
        np.matmul(w_t[lo:hi], da, out=dz[lo:hi])
        if lo == 0 and not teacher and d >= t_in:
            # Route into the fed-back prediction that was this step's input.
            d_pred[d - t_in] += dz[0, 0]
        np.multiply(dc, f, out=dc_next[lo:hi])

    gw_input0[...] = gw[0, :, :1]
    gw_input[...] = gw[1:, :, :n]
    gw_hidden[...] = gw[:, :, n:]
    gb_hidden[...] = gb
    return loss, grad


def _global_norm(grad: np.ndarray, net: LstmNetwork) -> float:
    """Euclidean norm of a gradient vector, summed array by array in payload order."""
    *arrays, head_bias = _file_order(grad, net.hidden_size, net.n_layers)
    return math.sqrt(sum(float(np.sum(a * a)) for a in arrays) + float(head_bias) ** 2)


class AdamOptimizer:
    """Adam with bias correction; the moments are vectors like ``net.params``."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, net: LstmNetwork, lr: float = 0.001):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)

    def step(self, net: LstmNetwork, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        net.params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


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
) -> tuple[LstmNetwork, int, list[tuple[float, float, float]]]:
    """Minibatch Adam training with a per-epoch held-out heuristic.

    Each epoch reshuffles the training examples with the seeded generator,
    averages gradients over each minibatch, and then scores RMSE (mg/dL) on a
    fixed seeded sample of at most heuristic_test_n test examples. Returns a
    copy of the network at the best epoch (the lowest heuristic RMSE, earliest
    on ties), that 1-based epoch, and one (train_mse_scaled, train_rmse_mgdl,
    heuristic_rmse_mgdl) row per epoch; ``net`` ends at the last epoch.
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
    readings_scaled = _scaled(net, prepared.readings)

    optimizer = AdamOptimizer(net, lr=lr)
    curve: list[tuple[float, float, float]] = []
    best, best_epoch = net, 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(prepared.n_train)
        epoch_loss = 0.0
        for start in range(0, prepared.n_train, batch):
            rows = order[start : start + batch]
            inputs, targets = prepared.gather("train", rows, readings_scaled)
            loss, grad = _loss_and_gradients_batch(net, inputs, targets, feedback)
            if clip_norm is not None:
                norm = _global_norm(grad, net)
                if norm > clip_norm:
                    grad *= clip_norm / norm
            optimizer.step(net, grad)
            epoch_loss += loss * rows.size
        epoch_loss /= prepared.n_train

        preds = rollout_batch(net, sample_inputs, horizon)
        heuristic = float(np.sqrt(np.mean((preds - sample_targets) ** 2)))
        curve.append((epoch_loss, math.sqrt(epoch_loss) * net.scaler.span, heuristic))
        if best_epoch == 0 or heuristic < curve[best_epoch - 1][2]:
            best, best_epoch = replace(net, params=net.params.copy()), epoch
    return best, best_epoch, curve


def save_model(net: LstmNetwork, path: str | Path, provenance: dict | None = None) -> None:
    """Framed file (see ``core.write_framed``): the header holds the sizes,
    scaler and provenance; the payload is the parameters in payload order
    (see ``_file_order``) of a float32 network, each stored exactly as float64."""
    header = {
        "hidden_size": net.hidden_size,
        "n_layers": net.n_layers,
        "input_size": 1,
        "scaler_lo": net.scaler.lo,
        "scaler_hi": net.scaler.hi,
        "seed": net.seed,
        "provenance": provenance or {},
    }
    payload = _file_order(net.params, net.hidden_size, net.n_layers)
    write_framed(
        path, MODEL_MAGIC, MODEL_VERSION, header, np.concatenate([a.ravel() for a in payload])
    )


def load_model(path: str | Path) -> tuple[LstmNetwork, dict]:
    version, header, payload = read_framed(path, MODEL_MAGIC, "LSTM model")
    if version == 1:
        raise FormatError(
            f"{path}: LSTM model format v1 (float64 parameters) is no longer read; "
            "re-run train to rebuild it"
        )
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        h, n_layers, input_size = (header[k] for k in ("hidden_size", "n_layers", "input_size"))
        seed, lo, hi = header["seed"], header["scaler_lo"], header["scaler_hi"]
        provenance = header["provenance"]
    except KeyError as exc:
        raise FormatError(f"{path}: header lacks key {exc}") from exc
    # The LSTM reads one value per step, so input_size can only be 1.
    typed = all(is_int(v) and v >= 1 for v in (h, n_layers, input_size)) and input_size == 1
    typed = typed and is_int(seed) and seed >= 0
    if not (typed and is_real(lo) and is_real(hi) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: header field of the wrong type or out of range")
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError as exc:
        raise FormatError(f"{path}: scaler bound out of range: {exc}") from exc
    if not (lo < hi and math.isfinite(hi - lo)):
        raise FormatError(f"{path}: scaler bounds must be finite with lo < hi")
    flat = finite_floats(path, payload, param_count(h, n_layers))
    with np.errstate(over="ignore"):  # a value past float32's range rounds to inf
        single = flat.astype(np.float32)
    if not np.array_equal(single, flat):
        raise FormatError(f"{path}: a parameter is not a float32 value")
    net = LstmNetwork(_stacked(single, h, n_layers), h, n_layers, Scaler(lo, hi), seed)
    return net, provenance
