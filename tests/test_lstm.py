import itertools
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import edit_header, in_float64, one_window_prepared
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco import lstm
from glyco.errors import DataError, FormatError, GlycoError, NumericError
from glyco.lstm import (
    AdamOptimizer,
    forget_trace,
    load_model,
    new_network,
    param_count,
    rollout_batch,
    save_model,
    train,
    _file_order,
    _loss_and_gradients_batch,
    _pairs,
    _Unroll,
)
from glyco.pipeline import kfold_split, prepare


def zero_network(hidden_size=4, n_layers=2, seed=0):
    net = new_network(hidden_size=hidden_size, n_layers=n_layers, seed=seed)
    net.params[:] = 0.0
    return net


def layers_of(net):
    """Per-layer views of a network's parameters: w_input, w_hidden, b_input, b_hidden."""
    return [
        SimpleNamespace(hidden_size=net.hidden_size, w_input=w_input, w_hidden=net.w_hidden[l],
                        b_input=net.b_input[l], b_hidden=net.b_hidden[l])
        for l, w_input in enumerate([net.w_input0, *net.w_input])
    ]


def cell_forward(net, x, h_prev, c_prev):
    """One cell step of a one-layer network on plain vectors through the stacked
    kernel; returns (h, c, gates).

    The cell is a one-layer diagonal with a batch of one: x is the (1,) input.
    """
    n, dtype = net.hidden_size, net.params.dtype
    unroll = _Unroll(net, keep_steps=False)
    z = np.zeros((2, n, 1), dtype)  # the state slot: the input row, then h_prev
    z[0, 0], z[1, :, 0] = x, h_prev
    gates = np.empty((1, 4 * n, 1), dtype)
    c, tc, h = np.empty((3, 1, n, 1), dtype)
    unroll.cells(0, unroll.affine, _pairs(z), c_prev[None, :, None], gates, c, tc, h)
    named = {key: gates[0, k * n : (k + 1) * n, 0] for k, key in enumerate("ifgo")}
    return h[0, :, 0], c[0, :, 0], named


def scaled_loss(net, values, targets, feedback="recursive"):
    """Scaled-space MSE and gradients for one example given in mg/dL."""
    scale = net.scaler.scale
    return _loss_and_gradients_batch(net, scale(values)[None], scale(targets)[None], feedback)


def oracle_cell(layer, x, h_prev, c_prev):
    """Independent re-implementation of the cell equations, one gate at a time."""
    h = layer.hidden_size

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def gate(row0):
        rows = slice(row0, row0 + h)
        return (
            layer.w_input[rows] @ x
            + layer.b_input[rows]
            + layer.w_hidden[rows] @ h_prev
            + layer.b_hidden[rows]
        )

    i = sig(gate(0))
    f = sig(gate(h))
    g = np.tanh(gate(2 * h))
    o = sig(gate(3 * h))
    c = f * c_prev + i * g
    return o * np.tanh(c), c, {"i": i, "f": f, "g": g, "o": o}


def sinusoid_prepared(n_train=200, n_test=40, input_len=40, horizon=6, seed=0):
    rng = np.random.default_rng(seed)

    def build(n):
        windows = np.empty((n, input_len + horizon))
        t = np.arange(input_len + horizon)
        for row in range(n):
            phase = rng.uniform(0, 24)
            amp = rng.uniform(40, 70)
            windows[row] = 200.0 + amp * np.sin(2 * np.pi * (t + phase) / 24.0)
        return windows

    train_windows = build(n_train)
    return one_window_prepared(train_windows, build(n_test), input_len, {"fixture": "sinusoid"})


class TestParamCount:
    def test_reference_architecture(self):
        net = new_network(hidden_size=8, n_layers=3)
        assert param_count(8, 3) == net.params.size == 1513

    def test_tiny_by_hand(self):
        # 4*1 + 4*1 + 8*1 = 16 for the layer, +2 for the head
        net = new_network(hidden_size=1, n_layers=1)
        assert param_count(1, 1) == net.params.size == 18

    def test_head_only(self):
        # A head without layers has nothing to read; such a network is not built.
        for h, n_layers in ((8, 0), (0, 3), (-1, 1)):
            with pytest.raises(DataError, match="at least one layer of one unit"):
                param_count(h, n_layers)
            with pytest.raises(DataError, match="at least one layer of one unit"):
                new_network(hidden_size=h, n_layers=n_layers)

    def test_formula_sweep(self):
        for h in (1, 2, 3, 5, 8, 16):
            for n_layers in (1, 2, 3, 4):
                net = new_network(hidden_size=h, n_layers=n_layers)
                expected = 4 * h * 1 + 4 * h * h + 8 * h
                expected += (n_layers - 1) * (4 * h * h + 4 * h * h + 8 * h)
                expected += h + 1
                assert param_count(h, n_layers) == expected
                assert net.params.size == expected
                payload = _file_order(net.params, h, n_layers)
                assert sum(a.size for a in payload) == expected


class TestCellForward:
    def test_zero_parameters(self):
        net = zero_network(n_layers=1)
        h, c, gates = cell_forward(net, np.array([0.7]), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(gates["i"], 0.5)
        np.testing.assert_allclose(gates["f"], 0.5)
        np.testing.assert_allclose(gates["o"], 0.5)
        np.testing.assert_allclose(gates["g"], 0.0)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_parameters_halve_cell_state(self):
        net = zero_network(n_layers=1)
        v = np.array([0.3, -1.2, 2.0, 0.05])
        _, c, _ = cell_forward(net, np.array([0.7]), np.zeros(4), v)
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(42)
        net = in_float64(new_network(hidden_size=3, n_layers=1, seed=7))
        (layer,) = layers_of(net)
        for _ in range(20):
            x = rng.normal(size=1)
            h_prev = rng.uniform(-0.9, 0.9, 3)
            c_prev = rng.normal(size=3)
            h, c, gates = cell_forward(net, x, h_prev, c_prev)
            oh, oc, ogates = oracle_cell(layer, x, h_prev, c_prev)
            np.testing.assert_allclose(h, oh, atol=1e-12)
            np.testing.assert_allclose(c, oc, atol=1e-12)
            for key in "ifgo":
                np.testing.assert_allclose(gates[key], ogates[key], atol=1e-12)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(1)
        net = new_network(hidden_size=5, n_layers=1, seed=2)
        for _ in range(50):
            h, _, _ = cell_forward(
                net, rng.normal(size=1), rng.uniform(-1, 1, 5), rng.normal(size=5) * 3
            )
            assert np.all(np.abs(h) < 1.0)

    def test_forced_input_gate_gives_pure_decay(self):
        net = new_network(hidden_size=4, n_layers=1, seed=3)
        net.b_input[0, :4] = -60.0  # input gate ~ 0
        net.b_hidden[0, :4] = 0.0
        c_prev = np.array([0.4, -1.0, 2.5, 0.01])
        _, c, gates = cell_forward(net, np.array([0.5]), np.zeros(4), c_prev)
        np.testing.assert_allclose(c, gates["f"] * c_prev, atol=1e-12)

    def test_shape_mismatch(self):
        net = new_network(hidden_size=4, n_layers=1)
        with pytest.raises(Exception):
            cell_forward(net, np.zeros(3), np.zeros(4), np.zeros(4))


class TestRollout:
    def test_zero_network_constant_forecast(self):
        net = zero_network(hidden_size=8, n_layers=3)
        predictions = rollout_batch(net, np.linspace(80, 300, 132)[None])
        # head output is the (zero) bias at every step
        np.testing.assert_allclose(predictions, net.scaler.inverse(0.0), atol=1e-12)

    def test_trace_shape_and_range(self):
        net = new_network(hidden_size=8, n_layers=3, seed=4)
        trace = forget_trace(net, np.linspace(80, 300, 132)[None], horizon=12)
        # 132 observed steps, then 11 that read fed-back predictions
        assert trace.shape == (3, 143, 8)
        assert np.all(trace > 0.0) and np.all(trace < 1.0)

    def test_deterministic(self):
        net = new_network(hidden_size=8, n_layers=2, seed=5)
        values = np.linspace(90, 210, 132)
        a = rollout_batch(net, values[None])
        b = rollout_batch(net, values[None])
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single(self):
        net = new_network(hidden_size=6, n_layers=2, seed=6)
        rng = np.random.default_rng(6)
        inputs = rng.uniform(60, 350, (5, 50))
        batched = rollout_batch(net, inputs, horizon=7)
        for row in range(5):
            single = rollout_batch(net, inputs[row : row + 1], horizon=7)
            np.testing.assert_allclose(batched[row], single[0], atol=1e-12)

    def test_non_finite_named_step(self):
        # In float64 a forecast can be finite when scaled and overflow in mg/dL.
        net = in_float64(new_network(hidden_size=4, n_layers=1, seed=7))
        net.head_bias[...] = 1e308  # finite when scaled, overflows in mg/dL from the first step
        with pytest.raises(NumericError, match="horizon step 1 of 5"):
            rollout_batch(net, np.linspace(80, 300, 20)[None], horizon=5)
        with pytest.raises(NumericError, match="horizon step 1 of 5"):
            forget_trace(net, np.linspace(80, 300, 20)[None], horizon=5)

    def test_non_finite_step_is_the_first_bad_one(self):
        # Zero weights but a saturated g gate: c = 0.5 c_prev + 0.5 and h = 0.5 tanh(c)
        # grow every step, whatever the input, so W h first overflows in mg/dL
        # (580 W h > 1.8e308) at the third horizon step.
        net = in_float64(zero_network(hidden_size=1, n_layers=1))
        net.b_input[0, 2] = 30.0
        net.head_weights[0] = 9.1e305
        with pytest.raises(NumericError, match="horizon step 3 of 5"):
            rollout_batch(net, np.full((2, 1), 100.0), horizon=5)

    def test_empty_input_rejected(self):
        net = new_network(hidden_size=4, n_layers=1)
        for inputs in (np.empty((1, 0)), np.empty((0,)), np.linspace(80, 300, 20)):
            with pytest.raises(DataError):
                rollout_batch(net, inputs)

    def test_network_without_layers_rejected(self):
        with pytest.raises(DataError, match="at least one layer"):
            new_network(hidden_size=4, n_layers=0)

    def test_forget_trace_takes_one_window(self):
        net = new_network(hidden_size=4, n_layers=1)
        for inputs in (np.full((2, 5), 100.0), np.full(5, 100.0)):
            with pytest.raises(DataError, match="one window"):
                forget_trace(net, inputs)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for trial in range(4):
            h = int(rng.integers(2, 5))
            n_layers = int(rng.integers(1, 3))
            seq = int(rng.integers(3, 9))
            horizon = int(rng.integers(2, 4))
            feedback = "recursive" if trial % 2 == 0 else "teacher"
            net = in_float64(new_network(hidden_size=h, n_layers=n_layers, seed=trial))
            x = rng.uniform(60, 350, seq)
            target = rng.uniform(60, 350, horizon)
            _, analytic = scaled_loss(net, x, target, feedback=feedback)

            flat = net.params.copy()
            eps = 1e-5
            numeric = np.empty_like(analytic)
            for index in range(flat.size):
                net.params[index] += eps
                up, _ = scaled_loss(net, x, target, feedback=feedback)
                net.params[index] -= 2 * eps
                down, _ = scaled_loss(net, x, target, feedback=feedback)
                numeric[index] = (up - down) / (2 * eps)
                net.params[index] = flat[index]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_zero_loss_zero_gradients(self):
        net = new_network(hidden_size=5, n_layers=2, seed=11)
        x = np.linspace(100, 180, 30)
        predictions = rollout_batch(net, x[None], horizon=4)[0]
        loss, grad = scaled_loss(net, x, predictions)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.max(np.abs(grad)) == pytest.approx(0.0, abs=1e-15)

    def test_mse_homogeneity(self):
        net = in_float64(new_network(hidden_size=4, n_layers=1, seed=12))
        x = np.linspace(100, 180, 25)
        predictions = rollout_batch(net, x[None], horizon=3)[0]
        span = net.scaler.span
        loss1, _ = scaled_loss(net, x, predictions + 5.0)
        loss2, _ = scaled_loss(net, x, predictions + 10.0)
        assert loss2 == pytest.approx(4.0 * loss1, rel=1e-9)
        assert loss1 == pytest.approx((5.0 / span) ** 2, rel=1e-9)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        net = zero_network(hidden_size=3, n_layers=1)
        optimizer = AdamOptimizer(net, lr=0.01)
        optimizer.step(net, np.ones_like(net.params))
        np.testing.assert_allclose(net.params, -0.01, rtol=1e-6)
        assert net.head_bias == pytest.approx(-0.01, rel=1e-6)


class TestTrain:
    def test_loss_declines_on_sinusoids(self):
        prepared = sinusoid_prepared()
        net = new_network(hidden_size=6, n_layers=2, seed=21)
        _, _, curve = train(
            net, prepared, epochs=5, batch=32, lr=0.005, heuristic_test_n=40, seed=3
        )
        assert len(curve) == 5
        assert curve[4][0] < curve[0][0]  # train_mse_scaled

    def test_deterministic(self):
        prepared = sinusoid_prepared(n_train=64, n_test=16)
        nets = []
        for _ in range(2):
            net = new_network(hidden_size=4, n_layers=1, seed=5)
            train(net, prepared, epochs=2, batch=16, lr=0.01, heuristic_test_n=8, seed=9)
            nets.append(net.params)
        np.testing.assert_array_equal(nets[0], nets[1])

    def test_best_checkpoint_is_heuristic_argmin(self):
        prepared = sinusoid_prepared(n_train=64, n_test=16)
        net = new_network(hidden_size=4, n_layers=1, seed=6)
        best, best_epoch, curve = train(
            net, prepared, epochs=4, batch=16, lr=0.01, heuristic_test_n=8, seed=2
        )
        scores = [heuristic for _, _, heuristic in curve]
        assert best_epoch == int(np.argmin(scores)) + 1
        assert curve[best_epoch - 1][2] == min(scores)
        # the best network is that epoch's: its rollout scores the heuristic again
        sample = np.random.default_rng([2, 1]).choice(prepared.n_test, size=8, replace=False)
        inputs, targets = prepared.gather("test", sample)
        preds = rollout_batch(best, inputs, prepared.horizon)
        assert float(np.sqrt(np.mean((preds - targets) ** 2))) == min(scores)

    def test_ties_keep_the_earliest_epoch(self, monkeypatch):
        prepared = sinusoid_prepared(n_train=64, n_test=16)
        after_one = new_network(hidden_size=4, n_layers=1, seed=6)
        train(after_one, prepared, epochs=1, batch=16, lr=0.01, heuristic_test_n=8, seed=2)
        def constant(net, inputs, horizon):  # every epoch's heuristic ties
            return np.full((len(inputs), horizon), 150.0)

        monkeypatch.setattr(lstm, "rollout_batch", constant)
        net = new_network(hidden_size=4, n_layers=1, seed=6)
        best, best_epoch, curve = train(
            net, prepared, epochs=3, batch=16, lr=0.01, heuristic_test_n=8, seed=2
        )
        assert len({heuristic for _, _, heuristic in curve}) == 1
        assert best_epoch == 1
        np.testing.assert_array_equal(best.params, after_one.params)
        assert best is not net and not np.array_equal(net.params, best.params)

    def test_empty_train_rejected(self):
        prepared = sinusoid_prepared(n_train=1, n_test=4)
        test_windows = np.concatenate([prepared.test_inputs, prepared.test_targets], axis=1)
        empty = one_window_prepared([], test_windows, prepared.input_len)
        with pytest.raises(DataError):
            train(new_network(hidden_size=3, n_layers=1), empty, epochs=1)

    def test_teacher_forcing_mode_runs(self):
        prepared = sinusoid_prepared(n_train=32, n_test=8)
        net = new_network(hidden_size=3, n_layers=1, seed=7)
        _, best_epoch, curve = train(
            net, prepared, epochs=1, batch=16, lr=0.01, heuristic_test_n=8, seed=1,
            feedback="teacher",
        )
        assert best_epoch == 1 and len(curve) == 1


def test_gathered_minibatches_bit_identical_to_one_window_sequences(tmp_path, small_store):
    # Overlapping step-8 windows share readings in the prepared array; laid out
    # again as one sequence per window they share none. Training reads its
    # minibatches by gather in both cases, so every bit must agree.
    fold = kfold_split(small_store, k=5, seed=7)[1]
    overlapping = prepare(small_store, fold, train_step=8, test_step=144)
    windows = {
        side: np.concatenate([*overlapping.gather(side)], axis=1) for side in ("train", "test")
    }
    separate = one_window_prepared(windows["train"], windows["test"], overlapping.input_len)
    assert len(separate.readings) == 144 * (overlapping.n_train + overlapping.n_test)
    assert len(overlapping.readings) < len(separate.readings) / 4
    outputs = []
    for name, prepared in (("overlapping", overlapping), ("separate", separate)):
        net = new_network(hidden_size=4, n_layers=2, seed=3)
        best, best_epoch, curve = train(
            net, prepared, epochs=2, batch=64, lr=0.01, heuristic_test_n=8, seed=3
        )
        path = tmp_path / f"{name}.glstm"
        save_model(best, path, provenance={"best_epoch": best_epoch})
        outputs.append((path.read_bytes(), [list(map(repr, row)) for row in curve]))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


class TestSaveLoad:
    def test_round_trip_identical_rollout(self, tmp_path):
        net = new_network(hidden_size=8, n_layers=3, seed=13)
        path = tmp_path / "model.glstm"
        save_model(net, path, provenance={"fold": 2, "mode": "recursive"})
        loaded, provenance = load_model(path)
        assert same_bits(loaded.params, net.params) and loaded.params.dtype == np.float32
        assert provenance == {"fold": 2, "mode": "recursive"}
        assert loaded.scaler.lo == net.scaler.lo and loaded.scaler.hi == net.scaler.hi
        values = np.linspace(90, 300, 132)
        a = rollout_batch(net, values[None])
        b = rollout_batch(loaded, values[None])
        np.testing.assert_array_equal(a, b)

    def test_corrupted_payload_length(self, tmp_path):
        net = new_network(hidden_size=4, n_layers=1, seed=14)
        path = tmp_path / "model.glstm"
        save_model(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.glstm"
        path.write_bytes(b"NOTLSTM!" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_version_1_is_refused(self, tmp_path):
        net = new_network(hidden_size=3, n_layers=1, seed=16)
        path = tmp_path / "model.glstm"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="v1 .* re-run train"):
            load_model(path)

    def test_payload_value_that_is_not_float32_is_refused(self, tmp_path):
        net = new_network(hidden_size=3, n_layers=1, seed=16)
        path = tmp_path / "model.glstm"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        (head_bias,) = struct.unpack("<d", raw[-8:])
        raw[-8:] = struct.pack("<d", np.nextafter(head_bias, 1.0))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="not a float32 value"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = new_network(hidden_size=3, n_layers=1, seed=16)
        path = tmp_path / "model.glstm"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_model(path)


def test_missing_header_key_is_format_error(tmp_path):
    net = new_network(hidden_size=3, n_layers=1, seed=17)
    path = tmp_path / "model.glstm"
    save_model(net, path)
    edit_header(path, lambda header: header.pop("n_layers"))
    with pytest.raises(FormatError, match="n_layers"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [("hidden_size", "3"), ("n_layers", 1.5), ("seed", True), ("scaler_lo", "40"),
     ("hidden_size", 0), ("provenance", []), ("input_size", 2)],
)
def test_wrongly_typed_header_field_is_format_error(tmp_path, field, value):
    net = new_network(hidden_size=3, n_layers=1, seed=17)
    path = tmp_path / "model.glstm"
    save_model(net, path)
    edit_header(path, **{field: value})
    with pytest.raises(FormatError, match="wrong type"):
        load_model(path)


def test_non_object_header_is_format_error(tmp_path):
    net = new_network(hidden_size=3, n_layers=1, seed=17)
    path = tmp_path / "model.glstm"
    save_model(net, path)
    edit_header(path, b"[1]")
    with pytest.raises(FormatError, match="not a JSON object"):
        load_model(path)


FUZZ_HEADER_TOKENS = st.sampled_from(["0", "-1", "1.5", "NaN", "1e400", "null", str(2**31)])


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_load_model_fuzz_raises_only_glyco_errors(tmp_path, data):
    """Truncated, bit-flipped and re-valued model files load or raise a GlycoError.

    A size in the header is checked against the payload length before
    anything is allocated, so 2**31 hidden units fail without asking for
    64 GiB. Whatever loads must forecast, or fail with a GlycoError.
    """
    path = tmp_path / "m.glstm"
    save_model(new_network(hidden_size=3, n_layers=2, seed=1), path, provenance={"fold": 0})
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", raw, 12)
    mutation = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if mutation == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, 8 * len(raw) - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
    else:
        text = raw[16 : 16 + header_len].decode("utf-8")
        numbers = [m.span() for m in re.finditer(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", text)]
        lo, hi = data.draw(st.sampled_from(numbers))
        blob = (text[:lo] + data.draw(FUZZ_HEADER_TOKENS) + text[hi:]).encode("utf-8")
        raw = raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :]
    path.write_bytes(bytes(raw))
    try:
        net, _ = load_model(path)
    except GlycoError:
        return
    try:
        assert rollout_batch(net, np.full((2, 6), 150.0), horizon=3).shape == (2, 3)
    except GlycoError:
        pass


def test_load_model_checks_sizes_before_allocating(tmp_path):
    path = tmp_path / "m.glstm"
    save_model(new_network(hidden_size=3, n_layers=1, seed=1), path)
    edit_header(path, hidden_size=2**31)
    with pytest.raises(FormatError, match="payload"):
        load_model(path)


@pytest.mark.parametrize("lo, hi", [(600.0, 20.0), (20.0, 20.0), (-1e308, 1e308)])
def test_bad_scaler_bounds_are_format_error(tmp_path, lo, hi):
    path = tmp_path / "m.glstm"
    save_model(new_network(hidden_size=3, n_layers=1, seed=1), path)
    edit_header(path, scaler_lo=lo, scaler_hi=hi)
    with pytest.raises(FormatError, match="scaler"):
        load_model(path)


def test_non_finite_parameter_is_format_error(tmp_path):
    path = tmp_path / "m.glstm"
    save_model(new_network(hidden_size=3, n_layers=1, seed=1), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))  # the head bias
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        load_model(path)


def test_forecaster_interface():
    net = new_network(hidden_size=4, n_layers=1, seed=15)
    out = rollout_batch(net, np.linspace(100, 200, 132)[None], horizon=12)
    batch = rollout_batch(net, np.tile(np.linspace(100, 200, 132), (3, 1)), horizon=12)
    assert batch.shape == (3, 12)
    np.testing.assert_allclose(batch[0], out[0], atol=1e-12)


# Frozen reference kernel: the fused per-cell arithmetic, one cell at a time
# with a per-step tuple cache, copies and concatenations, which the wavefront
# kernel in glyco.lstm stacks. It computes in the network's dtype, and the
# kernel must reproduce it bit for bit in float32 and in float64, since every
# model, curve, report and trace file is compared byte for byte across runs.


def ref_fused(layer):
    """The layer's fused weights W (4h, 2h), [w_input padded to h columns |
    w_hidden]; W and the summed bias with the i, f and o rows halved; and the
    scale and shift that map tanh of the halved pre-activation to the gates."""
    h, dtype = layer.hidden_size, layer.w_hidden.dtype
    w = np.zeros((4 * h, 2 * h), dtype)
    w[:, : layer.w_input.shape[1]] = layer.w_input
    w[:, h:] = layer.w_hidden
    scale, shift = np.full((4 * h, 1), 0.5, dtype), np.full((4 * h, 1), 0.5, dtype)
    scale[2 * h : 3 * h], shift[2 * h : 3 * h] = 1.0, -0.0
    bias = (layer.b_input + layer.b_hidden)[:, None] * scale
    return w, w * scale, bias, scale, shift


def ref_cell_step(layer, x, h_prev, c_prev):
    h = layer.hidden_size
    _, w_half, bias, scale, shift = ref_fused(layer)
    x_padded = np.zeros_like(h_prev)
    x_padded[: len(x)] = x
    z = np.concatenate([x_padded, h_prev])
    gates = np.tanh(w_half @ z + bias) * scale + shift
    i, f, g, o = (gates[k * h : (k + 1) * h] for k in range(4))
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return z, i, f, g, o, c, tc, o * tc


def ref_unroll(net, x_scaled, horizon, feedback_inputs):
    """Returns (preds (horizon, B), per-step list of per-layer tuples, forget list)."""
    n_batch, t_in = x_scaled.shape
    dtype = net.params.dtype
    hs = [np.zeros((net.hidden_size, n_batch), dtype) for _ in range(net.n_layers)]
    cs = [np.zeros((net.hidden_size, n_batch), dtype) for _ in range(net.n_layers)]
    preds = np.empty((horizon, n_batch), dtype)
    cache, forget = [], []
    for t in range(t_in + horizon - 1):
        if t < t_in:
            x = x_scaled[:, t][None, :]
        elif feedback_inputs is not None:
            x = feedback_inputs[:, t - t_in][None, :]
        else:
            x = preds[t - t_in][None, :]
        step_cache, step_forget = [], []
        for l, layer in enumerate(layers_of(net)):
            z, i, f, g, o, c, tc, h = ref_cell_step(layer, x, hs[l], cs[l])
            step_cache.append((z, cs[l], i, f, g, o, c, tc))
            step_forget.append(f)
            hs[l], cs[l] = h, c
            x = h
        cache.append(step_cache)
        forget.append(np.stack(step_forget))
        if t >= t_in - 1:
            preds[t - (t_in - 1)] = net.head_weights @ hs[-1] + net.head_bias
    return preds, cache, forget


def ref_loss_and_gradients(net, inputs_scaled, targets_scaled, feedback):
    n_batch, t_in = inputs_scaled.shape
    horizon = targets_scaled.shape[1]
    n_layers, h_size, dtype = net.n_layers, net.hidden_size, net.params.dtype
    layers = layers_of(net)
    feed = targets_scaled if feedback == "teacher" else None
    preds, cache, _ = ref_unroll(net, inputs_scaled, horizon, feed)
    residual = preds - targets_scaled.T
    loss = float(np.mean(residual**2))
    fused = [ref_fused(layer)[0] for layer in layers]
    grads = [(np.zeros_like(w), np.zeros(4 * h_size, dtype)) for w in fused]
    ones = np.ones(n_batch, dtype)
    d_head_w = np.zeros(h_size, dtype)
    d_head_b = np.zeros((), dtype)
    d_pred = 2.0 * residual / (horizon * n_batch)
    dh_next = [np.zeros((h_size, n_batch), dtype) for _ in range(n_layers)]
    dc_next = [np.zeros((h_size, n_batch), dtype) for _ in range(n_layers)]
    for t in range(t_in + horizon - 2, -1, -1):
        d_from_above = None
        if t >= t_in - 1:
            gp = d_pred[t - (t_in - 1)]
            top_h = cache[t][n_layers - 1][5] * cache[t][n_layers - 1][7]
            d_head_w += top_h @ gp
            d_head_b += float(gp.sum())
            d_from_above = net.head_weights[:, None] * gp[None, :]
        for l in range(n_layers - 1, -1, -1):
            z, c_prev, i, f, g, o, c, tc = cache[t][l]
            dh = dh_next[l].copy()
            if d_from_above is not None:
                dh += d_from_above
            dc = dc_next[l] + dh * o * (1.0 - tc * tc)
            # s (1 - s) taken once over the four gates, 1 - g * g in g's rows,
            # times the gradient that reaches each gate.
            ds = (1.0 - np.concatenate([i, f, g, o])) * np.concatenate([i, f, g, o])
            ds[2 * h_size : 3 * h_size] = 1.0 - g * g
            da = ds * np.concatenate([dc * g, dc * c_prev, dc * i, dh * tc])
            gw, gb = grads[l]
            gw += da @ z.T
            gb += da @ ones
            dz = fused[l].T @ da
            d_from_above = dz[:h_size]
            dh_next[l] = dz[h_size:]
            dc_next[l] = dc * f
        if feedback == "recursive" and t >= t_in:
            d_pred[t - t_in] += d_from_above[0]
    arrays = []
    for layer, (gw, gb) in zip(layers, grads):
        arrays += [gw[:, : layer.w_input.shape[1]], gw[:, h_size:], gb, gb]
    return loss, arrays + [d_head_w], d_head_b


def ref_scaled(net, values):
    return net.scaler.scale(values).astype(net.params.dtype)


def ref_rollout_batch(net, inputs, horizon):
    # One row runs as a batch of two copies of itself, as in the kernel.
    rows = np.repeat(inputs, 2, axis=0) if len(inputs) == 1 else inputs
    preds, _, _ = ref_unroll(net, ref_scaled(net, rows), horizon, None)
    return net.scaler.inverse(preds[:, : len(inputs)].T)


def ref_rollout_trace(net, values, horizon):
    preds, _, forget = ref_unroll(net, ref_scaled(net, np.stack([values, values])), horizon, None)
    values_lth = np.transpose(np.stack(forget)[:, :, :, 0], (1, 0, 2))
    return net.scaler.inverse(preds[:, 0]), values_lth


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fused_activation_keeps_gates_in_range():
    """sigmoid(a) = 1/2 + tanh(a/2)/2 maps pre-activations of +-1e4 to exactly
    1 and 0, never outside [0, 1], and NaN to NaN; g is tanh(a)."""
    for net in (zero_network(n_layers=1), in_float64(zero_network(n_layers=1))):
        net.b_input[0] = np.tile([1e4, -1e4, np.nan, 0.0], 4)  # each gate's four rows
        with np.errstate(invalid="ignore"):
            _, _, gates = cell_forward(net, np.array([0.5]), np.zeros(4), np.zeros(4))
        for key in "ifo":
            np.testing.assert_array_equal(gates[key], [1.0, 0.0, np.nan, 0.5])
        np.testing.assert_array_equal(gates["g"], [1.0, -1.0, np.nan, 0.0])


# Each case takes one of the seeds 0-3 in turn.
KERNEL_GRID = [
    (k % 4, *case)
    for k, case in enumerate(
        itertools.product((1, 37, 128), (1, 3), (3, 8), (1, 12), (2, 132), ("recursive", "teacher"))
    )
]


# Edge shapes of the wavefront: 2 and 4 layers, a one-step window, and
# windows shorter than the stack, whose diagonals are cut short at both ends.
KERNEL_EDGES = [
    (0, 5, 2, 3, 12, 132, "recursive"),
    (1, 37, 4, 8, 12, 132, "teacher"),
    (2, 3, 2, 8, 12, 1, "recursive"),
    (3, 6, 4, 3, 12, 1, "teacher"),
    (0, 37, 4, 8, 12, 2, "recursive"),
    (1, 4, 4, 3, 1, 3, "recursive"),
    (2, 1, 4, 8, 5, 3, "teacher"),
]


@pytest.mark.parametrize(
    "seed,n_batch,n_layers,hidden,horizon,t_in,feedback", KERNEL_GRID + KERNEL_EDGES
)
def test_kernel_bit_identical_to_reference(
    seed, n_batch, n_layers, hidden, horizon, t_in, feedback
):
    """Loss, gradients, batched and traced rollouts equal the frozen kernel's
    bits, in float32 and in float64."""
    single = new_network(hidden_size=hidden, n_layers=n_layers, seed=seed)
    # Larger weights on some seeds drive gates into saturation.
    single.params *= 1 + seed
    for net in (single, in_float64(single)):
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(40, 400, (n_batch, t_in))
        targets = rng.uniform(40, 400, (n_batch, horizon))
        inputs_scaled, targets_scaled = ref_scaled(net, inputs), ref_scaled(net, targets)

        loss, grad = _loss_and_gradients_batch(net, inputs_scaled, targets_scaled, feedback)
        ref_loss, ref_arrays, ref_head_b = ref_loss_and_gradients(
            net, inputs_scaled, targets_scaled, feedback
        )
        assert same_bits(loss, ref_loss)
        *arrays, head_b = _file_order(grad, hidden, n_layers)
        assert len(arrays) == len(ref_arrays)
        for got, want in zip(arrays, ref_arrays):
            assert same_bits(got, want)
        assert same_bits(head_b, ref_head_b)

        batched = rollout_batch(net, inputs, horizon)
        assert same_bits(batched, ref_rollout_batch(net, inputs, horizon))
        predictions = rollout_batch(net, inputs[-1:], horizon)[0]
        trace = forget_trace(net, inputs[-1:], horizon)
        ref_predictions, ref_forget = ref_rollout_trace(net, inputs[-1], horizon)
        assert same_bits(predictions, ref_predictions)
        assert same_bits(trace, ref_forget)


@pytest.mark.parametrize(
    "seed,n_batch,n_layers,hidden,horizon,t_in,feedback", KERNEL_GRID
)
def test_float32_loss_and_gradients_agree_with_float64(
    seed, n_batch, n_layers, hidden, horizon, t_in, feedback
):
    """The same float32-exact parameters, inputs and targets give the same loss
    and gradients in both precisions, up to float32 rounding.

    Measured over this grid: the float32 loss differs from the float64 one
    by at most 4.6e-7 of it, and the largest gradient difference is at most
    4.6e-7 of the largest float64 gradient element, both about 3.9 float32
    epsilons. The bound for both is 8 epsilons (9.5e-7).
    """
    tol = 8 * np.finfo(np.float32).eps
    rng = np.random.default_rng(seed)
    single = new_network(hidden_size=hidden, n_layers=n_layers, seed=seed)
    single.params *= 1 + seed
    double = in_float64(single)
    inputs = lstm._scaled(single, rng.uniform(40, 400, (n_batch, t_in)))
    targets = lstm._scaled(single, rng.uniform(40, 400, (n_batch, horizon)))
    loss, grad = _loss_and_gradients_batch(single, inputs, targets, feedback)
    ref_loss, ref_grad = _loss_and_gradients_batch(
        double, inputs.astype(np.float64), targets.astype(np.float64), feedback
    )
    assert grad.dtype == np.float32 and ref_grad.dtype == np.float64
    assert abs(loss - ref_loss) <= tol * ref_loss
    assert np.max(np.abs(grad - ref_grad)) <= tol * np.max(np.abs(ref_grad))


def test_float32_forecasts_do_not_depend_on_the_batch(monkeypatch):
    """A window's float32 forecast has the same bits alone, in any chunk of
    rows, in kernel runs of any size (the last run of 120 rows in 7s holds
    one row) and at any position in a batch, so a model's held-out heuristic
    during training scores exactly what evaluate scores."""
    net = new_network(hidden_size=8, n_layers=3, seed=7)
    rng = np.random.default_rng(7)
    inputs = rng.uniform(40, 400, (120, 132))
    whole = rollout_batch(net, inputs)
    for size in (1, 2, 3, 7, 16, 50):
        chunks = [rollout_batch(net, inputs[i : i + size]) for i in range(0, len(inputs), size)]
        assert same_bits(np.concatenate(chunks), whole)
        with monkeypatch.context() as patched:
            patched.setattr(lstm, "ROLLOUT_CHUNK", size)
            assert same_bits(rollout_batch(net, inputs), whole)
    order = rng.permutation(len(inputs))
    assert same_bits(rollout_batch(net, inputs[order]), whole[order])


def test_rollout_peak_grows_only_with_its_output(monkeypatch):
    """With 64-row kernel runs, going from 128 to 1,024 windows adds no more
    than twice the forecast array's growth to the peak; one run over every
    window would add about 3 KB per window."""
    monkeypatch.setattr(lstm, "ROLLOUT_CHUNK", 64)
    net = new_network(hidden_size=8, n_layers=3, seed=7)
    inputs = np.random.default_rng(7).uniform(40, 400, (1024, 132))
    peaks = []
    for n_rows in (128, 1024):
        tracemalloc.start()
        try:
            rollout_batch(net, inputs[:n_rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * (1024 - 128) * 12 * 8


def test_rollout_batch_of_no_rows_matches_reference():
    single = new_network(hidden_size=8, n_layers=3, seed=1)
    for net in (single, in_float64(single)):
        inputs = np.empty((0, 132))
        assert same_bits(rollout_batch(net, inputs, 12), ref_rollout_batch(net, inputs, 12))


def test_training_step_peak_memory():
    """One B=128 training step of the float32 reference network peaks under 8.0 MB.

    The step keeps the four gates of every cell (7.13 MB), c only at every
    12th diagonal (0.16 MB) plus two rebuilt 12-diagonal blocks (0.29 MB),
    and peaks at about 7.94 MB (7.89 MB before the gates were fused). The
    float64 kernel peaks at 15.84 MB, the one that kept c of every cell at
    18.4 MB, the one that also kept tanh(c) at 22.0 MB, and the one before
    the wavefront, which also kept h, at 24.8 MB. A float64 block in the
    store (the marks or the rebuilt blocks of c promoted by a float64
    operand, say), a full c store, a stored tanh(c) or leftover per-diagonal
    temporaries would push the peak over the bound.
    """
    net = new_network(hidden_size=8, n_layers=3, seed=42)
    rng = np.random.default_rng(0)
    inputs = net.scaler.scale(rng.uniform(40, 400, (128, 132)))
    targets = net.scaler.scale(rng.uniform(40, 400, (128, 12)))
    tracemalloc.start()
    try:
        _loss_and_gradients_batch(net, inputs, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0e6
