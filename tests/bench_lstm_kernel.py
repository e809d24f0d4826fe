"""Micro-benchmark of the LSTM step kernel (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does not
collect it. Run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_lstm_kernel.py

Both timings use the 8x3 reference network, 132-step input windows and a
12-step recursive horizon, with fixed seeds: one training minibatch of
forward pass plus BPTT at batch 128, one batched rollout of 40 windows, and
the forget-gate trace of one window (the ``explain`` path).
"""

import numpy as np
import pytest

from glyco.lstm import _loss_and_gradients_batch, forget_trace, new_network, rollout_batch

INPUT_LEN = 132
HORIZON = 12


@pytest.fixture(scope="module")
def net():
    return new_network(hidden_size=8, n_layers=3, seed=42)


def test_loss_and_gradients_batch_128(benchmark, net):
    rng = np.random.default_rng(0)
    inputs = net.scaler.scale(rng.uniform(40, 400, (128, INPUT_LEN)))
    targets = net.scaler.scale(rng.uniform(40, 400, (128, HORIZON)))
    loss, grads = benchmark(_loss_and_gradients_batch, net, inputs, targets)
    assert np.isfinite(loss) and np.all(np.isfinite(grads.flat()))


def test_rollout_batch_40(benchmark, net):
    rng = np.random.default_rng(1)
    inputs = rng.uniform(40, 400, (40, INPUT_LEN))
    predictions = benchmark(rollout_batch, net, inputs, HORIZON)
    assert predictions.shape == (40, HORIZON)


def test_forget_trace_1(benchmark, net):
    inputs = np.random.default_rng(2).uniform(40, 400, (1, INPUT_LEN))
    trace = benchmark(forget_trace, net, inputs, HORIZON)
    assert trace.values.shape == (3, INPUT_LEN + HORIZON - 1, 8)
