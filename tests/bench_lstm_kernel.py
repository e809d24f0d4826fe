"""Micro-benchmark of the LSTM step kernel (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_lstm_kernel.py

Every timing uses the 8x3 reference network, 132-step input windows and a
12-step horizon, with fixed seeds: one training minibatch of forward pass
plus BPTT at batch 128 and 32 with recursive feedback and at batch 128 with
teacher forcing, one batched rollout of 40 windows, and the forget-gate
trace of one window (the ``explain`` path). The network is float32, as the
package builds it; the batch-128 recursive step is also timed in float64,
the tests' reference precision. Each training minibatch also records the
tracemalloc peak of one untimed call, in MB, as ``extra_info["peak_mb"]``:
at batch 128 that is the BPTT store of the forward pass (every cell's gates,
and c only at its checkpoint diagonals) plus the reverse sweep's two rebuilt
blocks of c and its buffers and temporaries: 7.92 MB in float32 and 15.84 MB
in float64 with recursive feedback, 7.93 MB in float32 with teacher forcing,
and 2.05 MB in float32 at batch 32.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import in_float64

from glyco.lstm import _loss_and_gradients_batch, _scaled, forget_trace, new_network, rollout_batch

INPUT_LEN = 132
HORIZON = 12


@pytest.fixture(scope="module")
def net():
    return new_network(hidden_size=8, n_layers=3, seed=42)


def minibatch(net, n_batch):
    rng = np.random.default_rng(0)
    inputs = _scaled(net, rng.uniform(40, 400, (n_batch, INPUT_LEN)))
    return inputs, _scaled(net, rng.uniform(40, 400, (n_batch, HORIZON)))


@pytest.mark.parametrize(
    "n_batch, feedback, dtype",
    [(128, "recursive", "float32"), (128, "recursive", "float64"), (32, "recursive", "float32"),
     (128, "teacher", "float32")],
)
def test_loss_and_gradients_batch(benchmark, n_batch, feedback, dtype):
    net = new_network(hidden_size=8, n_layers=3, seed=42)
    if dtype == "float64":
        net = in_float64(net)
    inputs, targets = minibatch(net, n_batch)
    loss, grad = benchmark(_loss_and_gradients_batch, net, inputs, targets, feedback)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    tracemalloc.start()
    try:
        _loss_and_gradients_batch(net, inputs, targets, feedback)
        benchmark.extra_info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_rollout_batch_40(benchmark, net):
    rng = np.random.default_rng(1)
    inputs = rng.uniform(40, 400, (40, INPUT_LEN))
    predictions = benchmark(rollout_batch, net, inputs, HORIZON)
    assert predictions.shape == (40, HORIZON)


def test_forget_trace_1(benchmark, net):
    inputs = np.random.default_rng(2).uniform(40, 400, (1, INPUT_LEN))
    trace = benchmark(forget_trace, net, inputs, HORIZON)
    assert trace.shape == (3, INPUT_LEN + HORIZON - 1, 8)
