import itertools
import json
import re
import struct

import numpy as np
import pytest
from conftest import one_window_prepared
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco.errors import DataError, FormatError, GlycoError, NumericError
from glyco.lstm import (
    AdamOptimizer,
    ForgetTrace,
    Gradients,
    LstmForecaster,
    forget_trace,
    get_flat_params,
    load_model,
    new_network,
    param_arrays,
    param_count,
    rollout_batch,
    save_model,
    set_flat_params,
    train,
    _cell_step,
    _loss_and_gradients_batch,
    _sigmoid,
)
from glyco.pipeline import kfold_split, prepare


def zero_network(hidden_size=4, n_layers=2, seed=0):
    net = new_network(hidden_size=hidden_size, n_layers=n_layers, seed=seed)
    set_flat_params(net, np.zeros(param_count(net)))
    return net


def cell_forward(layer, x, h_prev, c_prev):
    """One cell step on plain vectors through the batched kernel; returns (h, c, gates)."""
    n = layer.hidden_size
    gates = np.empty((4 * n, 1))
    c, tc, h = np.empty((3, n, 1))
    bias = (layer.b_input + layer.b_hidden)[:, None]
    _cell_step(layer, bias, x[:, None], h_prev[:, None], c_prev[:, None], gates, c, tc, h)
    return h[:, 0], c[:, 0], {key: gates[k * n : (k + 1) * n, 0] for k, key in enumerate("ifgo")}


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
        assert param_count(net) == 1513

    def test_tiny_by_hand(self):
        # 4*1 + 4*1 + 8*1 = 16 for the layer, +2 for the head
        net = new_network(hidden_size=1, n_layers=1)
        assert param_count(net) == 18

    def test_head_only(self):
        net = new_network(hidden_size=8, n_layers=0)
        assert param_count(net) == 9

    def test_formula_sweep(self):
        for h in (1, 2, 3, 5, 8, 16):
            for n_layers in (0, 1, 2, 3, 4):
                net = new_network(hidden_size=h, n_layers=n_layers)
                expected = (4 * h * 1 + 4 * h * h + 8 * h) if n_layers else 0
                expected += (n_layers - 1) * (4 * h * h + 4 * h * h + 8 * h) if n_layers else 0
                expected += h + 1
                assert param_count(net) == expected
                assert get_flat_params(net).size == expected


class TestCellForward:
    def test_zero_parameters(self):
        net = zero_network()
        layer = net.layers[0]
        h, c, gates = cell_forward(layer, np.array([0.7]), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(gates["i"], 0.5)
        np.testing.assert_allclose(gates["f"], 0.5)
        np.testing.assert_allclose(gates["o"], 0.5)
        np.testing.assert_allclose(gates["g"], 0.0)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_parameters_halve_cell_state(self):
        net = zero_network()
        v = np.array([0.3, -1.2, 2.0, 0.05])
        _, c, _ = cell_forward(net.layers[0], np.array([0.7]), np.zeros(4), v)
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(42)
        net = new_network(hidden_size=3, n_layers=1, seed=7, input_size=2)
        layer = net.layers[0]
        for _ in range(20):
            x = rng.normal(size=2)
            h_prev = rng.uniform(-0.9, 0.9, 3)
            c_prev = rng.normal(size=3)
            h, c, gates = cell_forward(layer, x, h_prev, c_prev)
            oh, oc, ogates = oracle_cell(layer, x, h_prev, c_prev)
            np.testing.assert_allclose(h, oh, atol=1e-12)
            np.testing.assert_allclose(c, oc, atol=1e-12)
            for key in "ifgo":
                np.testing.assert_allclose(gates[key], ogates[key], atol=1e-12)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(1)
        net = new_network(hidden_size=5, n_layers=1, seed=2)
        layer = net.layers[0]
        for _ in range(50):
            h, _, _ = cell_forward(
                layer, rng.normal(size=1), rng.uniform(-1, 1, 5), rng.normal(size=5) * 3
            )
            assert np.all(np.abs(h) < 1.0)

    def test_forced_input_gate_gives_pure_decay(self):
        net = new_network(hidden_size=4, n_layers=1, seed=3)
        layer = net.layers[0]
        layer.b_input[:4] = -60.0  # input gate ~ 0
        layer.b_hidden[:4] = 0.0
        c_prev = np.array([0.4, -1.0, 2.5, 0.01])
        _, c, gates = cell_forward(layer, np.array([0.5]), np.zeros(4), c_prev)
        np.testing.assert_allclose(c, gates["f"] * c_prev, atol=1e-12)

    def test_shape_mismatch(self):
        net = new_network(hidden_size=4, n_layers=1)
        with pytest.raises(Exception):
            cell_forward(net.layers[0], np.zeros(3), np.zeros(4), np.zeros(4))


class TestRollout:
    def test_zero_network_constant_forecast(self):
        net = zero_network(hidden_size=8, n_layers=3)
        predictions = rollout_batch(net, np.linspace(80, 300, 132)[None])
        # head output is the (zero) bias at every step
        np.testing.assert_allclose(predictions, net.scaler.inverse(0.0), atol=1e-12)

    def test_trace_shape_and_range(self):
        net = new_network(hidden_size=8, n_layers=3, seed=4)
        trace = forget_trace(net, np.linspace(80, 300, 132)[None], horizon=12)
        assert trace.values.shape == (3, 143, 8)
        assert np.all(trace.values > 0.0) and np.all(trace.values < 1.0)
        assert trace.phases[:132] == ("observed",) * 132
        assert trace.phases[132:] == ("recursive",) * 11
        rows = list(trace.to_csv_rows())
        assert rows[0] == ["layer", "timestep", "phase"] + [f"unit{u}" for u in range(8)]
        assert len(rows) == 1 + 3 * 143

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
        net = new_network(hidden_size=4, n_layers=1, seed=7)
        net.head_bias = 1e308  # finite when scaled, overflows in mg/dL from the first step
        with pytest.raises(NumericError, match="horizon step 1 of 5"):
            rollout_batch(net, np.linspace(80, 300, 20)[None], horizon=5)
        with pytest.raises(NumericError, match="horizon step 1 of 5"):
            forget_trace(net, np.linspace(80, 300, 20)[None], horizon=5)

    def test_non_finite_step_is_the_first_bad_one(self):
        # Zero weights but a saturated g gate: c = 0.5 c_prev + 0.5 and h = 0.5 tanh(c)
        # grow every step, whatever the input, so W h first overflows in mg/dL
        # (580 W h > 1.8e308) at the third horizon step.
        net = zero_network(hidden_size=1, n_layers=1)
        net.layers[0].b_input[2] = 30.0
        net.head_weights[0] = 9.1e305
        with pytest.raises(NumericError, match="horizon step 3 of 5"):
            rollout_batch(net, np.full((2, 1), 100.0), horizon=5)

    def test_empty_input_rejected(self):
        net = new_network(hidden_size=4, n_layers=1)
        for inputs in (np.empty((1, 0)), np.empty((0,)), np.linspace(80, 300, 20)):
            with pytest.raises(DataError):
                rollout_batch(net, inputs)

    def test_network_without_layers_rejected(self):
        with pytest.raises(DataError, match="no layers"):
            rollout_batch(new_network(hidden_size=4, n_layers=0), np.full((1, 5), 100.0))

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
            net = new_network(hidden_size=h, n_layers=n_layers, seed=trial)
            x = rng.uniform(60, 350, seq)
            target = rng.uniform(60, 350, horizon)
            _, grads = scaled_loss(net, x, target, feedback=feedback)
            analytic = grads.flat()

            flat = get_flat_params(net)
            eps = 1e-5
            numeric = np.empty_like(analytic)
            for index in range(flat.size):
                probe = flat.copy()
                probe[index] += eps
                set_flat_params(net, probe)
                up, _ = scaled_loss(net, x, target, feedback=feedback)
                probe[index] -= 2 * eps
                set_flat_params(net, probe)
                down, _ = scaled_loss(net, x, target, feedback=feedback)
                numeric[index] = (up - down) / (2 * eps)
            set_flat_params(net, flat)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_zero_loss_zero_gradients(self):
        net = new_network(hidden_size=5, n_layers=2, seed=11)
        x = np.linspace(100, 180, 30)
        predictions = rollout_batch(net, x[None], horizon=4)[0]
        loss, grads = scaled_loss(net, x, predictions)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.max(np.abs(grads.flat())) == pytest.approx(0.0, abs=1e-15)

    def test_mse_homogeneity(self):
        net = new_network(hidden_size=4, n_layers=1, seed=12)
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
        ones = Gradients(arrays=[np.ones_like(a) for a in param_arrays(net)], head_bias=1.0)
        optimizer.step(net, ones)
        flat = get_flat_params(net)
        np.testing.assert_allclose(flat, -0.01, rtol=1e-6)


class TestTrain:
    def test_loss_declines_on_sinusoids(self):
        prepared = sinusoid_prepared()
        net = new_network(hidden_size=6, n_layers=2, seed=21)
        result = train(net, prepared, epochs=5, batch=32, lr=0.005, heuristic_test_n=40, seed=3)
        assert len(result.checkpoints) == 5
        assert result.checkpoints[4].train_mse_scaled < result.checkpoints[0].train_mse_scaled

    def test_deterministic(self):
        prepared = sinusoid_prepared(n_train=64, n_test=16)
        nets = []
        for _ in range(2):
            net = new_network(hidden_size=4, n_layers=1, seed=5)
            train(net, prepared, epochs=2, batch=16, lr=0.01, heuristic_test_n=8, seed=9)
            nets.append(get_flat_params(net))
        np.testing.assert_array_equal(nets[0], nets[1])

    def test_best_checkpoint_is_heuristic_argmin(self):
        prepared = sinusoid_prepared(n_train=64, n_test=16)
        net = new_network(hidden_size=4, n_layers=1, seed=6)
        result = train(net, prepared, epochs=4, batch=16, lr=0.01, heuristic_test_n=8, seed=2)
        scores = [cp.heuristic_rmse_mgdl for cp in result.checkpoints]
        assert result.best_epoch == int(np.argmin(scores)) + 1
        assert result.best.heuristic_rmse_mgdl == min(scores)

    def test_empty_train_rejected(self):
        prepared = sinusoid_prepared(n_train=1, n_test=4)
        test_windows = np.concatenate([prepared.test_inputs, prepared.test_targets], axis=1)
        empty = one_window_prepared([], test_windows, prepared.input_len)
        with pytest.raises(DataError):
            train(new_network(hidden_size=3, n_layers=1), empty, epochs=1)

    def test_teacher_forcing_mode_runs(self):
        prepared = sinusoid_prepared(n_train=32, n_test=8)
        net = new_network(hidden_size=3, n_layers=1, seed=7)
        result = train(
            net, prepared, epochs=1, batch=16, lr=0.01, heuristic_test_n=8, seed=1,
            feedback="teacher",
        )
        assert len(result.checkpoints) == 1


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
        result = train(net, prepared, epochs=2, batch=64, lr=0.01, heuristic_test_n=8, seed=3)
        path = tmp_path / f"{name}.glstm"
        save_model(result.best.network, path, provenance={"best_epoch": result.best_epoch})
        outputs.append((path.read_bytes(), list(result.curve_rows())))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


class TestSaveLoad:
    def test_round_trip_identical_rollout(self, tmp_path):
        net = new_network(hidden_size=8, n_layers=3, seed=13)
        path = tmp_path / "model.glstm"
        save_model(net, path, provenance={"fold": 2, "mode": "recursive"})
        loaded, provenance = load_model(path)
        np.testing.assert_allclose(get_flat_params(loaded), get_flat_params(net), atol=1e-12)
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

    def test_version_mismatch(self, tmp_path):
        net = new_network(hidden_size=3, n_layers=1, seed=16)
        path = tmp_path / "model.glstm"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_model(path)


def edit_header(path, **fields):
    """Rewrite a saved model's JSON header with some fields replaced."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16 : 16 + header_len])
    header.update(fields)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])


def test_missing_header_key_is_format_error(tmp_path):
    net = new_network(hidden_size=3, n_layers=1, seed=17)
    path = tmp_path / "model.glstm"
    save_model(net, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16 : 16 + header_len])
    del header["n_layers"]
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])
    with pytest.raises(FormatError, match="n_layers"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [("hidden_size", "3"), ("n_layers", 1.5), ("seed", True), ("scaler_lo", "40"),
     ("hidden_size", 0), ("provenance", [])],
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
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    path.write_bytes(raw[:12] + struct.pack("<I", 3) + b"[1]" + raw[16 + header_len :])
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
    forecaster = LstmForecaster(net, horizon=12)
    out = rollout_batch(net, np.linspace(100, 200, 132)[None], horizon=12)
    batch = forecaster.predict(np.tile(np.linspace(100, 200, 132), (3, 1)))
    assert batch.shape == (3, 12)
    np.testing.assert_allclose(batch[0], out[0], atol=1e-12)


# Frozen reference kernel: the masked sigmoid, per-step tuple cache, copy and
# concatenate formulation that the array kernel in glyco.lstm replaced. The
# kernel must reproduce it bit for bit, since every model, curve, report and
# trace file is compared byte for byte across versions.


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_cell_step(layer, x, h_prev, c_prev):
    h = layer.hidden_size
    a = layer.w_input @ x + layer.w_hidden @ h_prev + (layer.b_input + layer.b_hidden)[:, None]
    i = ref_sigmoid(a[:h])
    f = ref_sigmoid(a[h : 2 * h])
    g = np.tanh(a[2 * h : 3 * h])
    o = ref_sigmoid(a[3 * h :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return i, f, g, o, c, tc, o * tc


def ref_unroll(net, x_scaled, horizon, feedback_inputs):
    """Returns (preds (horizon, B), per-step list of per-layer tuples, forget list)."""
    n_batch, t_in = x_scaled.shape
    hs = [np.zeros((net.hidden_size, n_batch)) for _ in net.layers]
    cs = [np.zeros((net.hidden_size, n_batch)) for _ in net.layers]
    preds = np.empty((horizon, n_batch))
    cache, forget = [], []
    for t in range(t_in + horizon - 1):
        if t < t_in:
            x = x_scaled[:, t][None, :]
        elif feedback_inputs is not None:
            x = feedback_inputs[:, t - t_in][None, :]
        else:
            x = preds[t - t_in][None, :]
        step_cache, step_forget = [], []
        for l, layer in enumerate(net.layers):
            i, f, g, o, c, tc, h = ref_cell_step(layer, x, hs[l], cs[l])
            step_cache.append((x, hs[l], cs[l], i, f, g, o, c, tc))
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
    n_layers, h_size = len(net.layers), net.hidden_size
    feed = targets_scaled if feedback == "teacher" else None
    preds, cache, _ = ref_unroll(net, inputs_scaled, horizon, feed)
    residual = preds - targets_scaled.T
    loss = float(np.mean(residual**2))
    grads = [
        (np.zeros_like(p.w_input), np.zeros_like(p.w_hidden),
         np.zeros_like(p.b_input), np.zeros_like(p.b_hidden))
        for p in net.layers
    ]
    d_head_w = np.zeros(h_size)
    d_head_b = 0.0
    d_pred = 2.0 * residual / (horizon * n_batch)
    dh_next = [np.zeros((h_size, n_batch)) for _ in range(n_layers)]
    dc_next = [np.zeros((h_size, n_batch)) for _ in range(n_layers)]
    for t in range(t_in + horizon - 2, -1, -1):
        d_from_above = None
        if t >= t_in - 1:
            gp = d_pred[t - (t_in - 1)]
            top_h = cache[t][n_layers - 1][6] * cache[t][n_layers - 1][8]
            d_head_w += top_h @ gp
            d_head_b += float(gp.sum())
            d_from_above = net.head_weights[:, None] * gp[None, :]
        for l in range(n_layers - 1, -1, -1):
            x, h_prev, c_prev, i, f, g, o, c, tc = cache[t][l]
            dh = dh_next[l].copy()
            if d_from_above is not None:
                dh += d_from_above
            dc = dc_next[l] + dh * o * (1.0 - tc * tc)
            do = dh * tc
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            da = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)]
            )
            gw_i, gw_h, gb_i, gb_h = grads[l]
            gw_i += da @ x.T
            gw_h += da @ h_prev.T
            db = da.sum(axis=1)
            gb_i += db
            gb_h += db
            d_from_above = net.layers[l].w_input.T @ da
            dh_next[l] = net.layers[l].w_hidden.T @ da
            dc_next[l] = dc * f
        if feedback == "recursive" and t >= t_in:
            d_pred[t - t_in] += d_from_above[0]
    arrays = [a for layer_grads in grads for a in layer_grads] + [d_head_w]
    return loss, arrays, d_head_b


def ref_rollout_batch(net, inputs, horizon):
    preds, _, _ = ref_unroll(net, net.scaler.scale(inputs), horizon, None)
    return net.scaler.inverse(preds.T)


def ref_rollout_trace(net, values, horizon):
    preds, _, forget = ref_unroll(net, net.scaler.scale(values)[None, :], horizon, None)
    values_lth = np.transpose(np.stack(forget)[:, :, :, 0], (1, 0, 2))
    return net.scaler.inverse(preds[:, 0]), values_lth


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sigmoid_bit_identical_to_masked_reference():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 746.0, -746.0,
                1e-300, -1e-300]
    rng = np.random.default_rng(0)
    x = np.concatenate([specials, rng.normal(scale=20.0, size=4000), rng.normal(size=4000)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(_sigmoid(x), ref_sigmoid(x))
        block = x[: 32 * 125].reshape(32, 125)
        assert same_bits(_sigmoid(block), np.vstack([ref_sigmoid(r) for r in np.split(block, 4)]))


# Each case takes one of the seeds 0-3 in turn.
KERNEL_GRID = [
    (k % 4, *case)
    for k, case in enumerate(
        itertools.product((1, 37, 128), (1, 3), (3, 8), (1, 12), (2, 132), ("recursive", "teacher"))
    )
]


@pytest.mark.parametrize("seed,n_batch,n_layers,hidden,horizon,t_in,feedback", KERNEL_GRID)
def test_kernel_bit_identical_to_reference(
    seed, n_batch, n_layers, hidden, horizon, t_in, feedback
):
    """Loss, gradients, batched and traced rollouts equal the frozen kernel's bits."""
    rng = np.random.default_rng(seed)
    net = new_network(hidden_size=hidden, n_layers=n_layers, seed=seed)
    # Larger weights on some seeds drive gates into saturation.
    set_flat_params(net, get_flat_params(net) * (1 + seed))
    inputs = rng.uniform(40, 400, (n_batch, t_in))
    targets = rng.uniform(40, 400, (n_batch, horizon))
    inputs_scaled, targets_scaled = net.scaler.scale(inputs), net.scaler.scale(targets)

    loss, grads = _loss_and_gradients_batch(net, inputs_scaled, targets_scaled, feedback)
    ref_loss, ref_arrays, ref_head_b = ref_loss_and_gradients(
        net, inputs_scaled, targets_scaled, feedback
    )
    assert same_bits(loss, ref_loss)
    assert len(grads.arrays) == len(ref_arrays)
    for got, want in zip(grads.arrays, ref_arrays):
        assert same_bits(got, want)
    assert same_bits(grads.head_bias, ref_head_b)

    assert same_bits(rollout_batch(net, inputs, horizon), ref_rollout_batch(net, inputs, horizon))
    predictions = rollout_batch(net, inputs[-1:], horizon)[0]
    trace = forget_trace(net, inputs[-1:], horizon)
    ref_predictions, ref_forget = ref_rollout_trace(net, inputs[-1], horizon)
    assert same_bits(predictions, ref_predictions)
    assert same_bits(trace.values, ref_forget)
    assert list(trace.to_csv_rows())[1:] == list(
        ForgetTrace(values=ref_forget, phases=trace.phases).to_csv_rows()
    )[1:]
