import hashlib
import json
import math
import struct

import numpy as np
import pytest
from conftest import one_window_prepared
from hypothesis import given, strategies as st

from glyco.core import (
    GlucoseReading,
    PatientRecord,
    mgdl_to_mmoll,
    mmoll_to_mgdl,
    read_framed,
    read_framed_header,
)
from glyco.errors import FormatError, InvalidValueError
from glyco.hmm import HmmModel, Quantizer, load_hmm, save_hmm
from glyco.lstm import load_model, new_network, save_model
from glyco.pipeline import load_header, load_prepared, save_prepared


class TestUnitConversion:
    def test_conversion_constant(self):
        assert mgdl_to_mmoll(18.0) == 1.0
        assert mmoll_to_mgdl(1.0) == 18.0

    def test_zero(self):
        assert mgdl_to_mmoll(0.0) == 0.0
        assert mmoll_to_mgdl(0.0) == 0.0

    def test_division_by_18(self):
        # 204.56 / 18 by hand
        assert mgdl_to_mmoll(204.56) == pytest.approx(11.364444444444445, rel=1e-12)

    def test_round_trip_example(self):
        assert mmoll_to_mgdl(mgdl_to_mmoll(287.3)) == pytest.approx(287.3, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_round_trip_property(self, v):
        assert mmoll_to_mgdl(mgdl_to_mmoll(v)) == pytest.approx(v, rel=1e-12)
        assert mgdl_to_mmoll(mmoll_to_mgdl(v)) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidValueError):
            mgdl_to_mmoll(bad)
        with pytest.raises(InvalidValueError):
            mmoll_to_mgdl(bad)


class TestGlucoseReading:
    def test_valid(self):
        r = GlucoseReading("p1", 1000, 180.0)
        assert r.value == 180.0

    @pytest.mark.parametrize("value", [0.0, -5.0, 1000.1, math.nan])
    def test_out_of_range_value(self, value):
        with pytest.raises(InvalidValueError):
            GlucoseReading("p1", 1000, value)

    @pytest.mark.parametrize("ts", [0, -3])
    def test_bad_timestamp(self, ts):
        with pytest.raises(InvalidValueError):
            GlucoseReading("p1", ts, 100.0)

    def test_ceiling_value_kept(self):
        # sensor-ceiling readings are valid data, never clipped
        assert GlucoseReading("p1", 1, 401.0).value == 401.0


class TestPatientRecord:
    def test_bmi_derived(self):
        p = PatientRecord("p1", weight_kg=74.26, height_cm=169.0)
        assert p.bmi == pytest.approx(74.26 / 1.69**2, abs=1e-9)

    def test_zero_height_rejected(self):
        with pytest.raises(InvalidValueError):
            PatientRecord("p1", weight_kg=70.0, height_cm=0.0)

    def test_bmi_conflict_rejected(self):
        with pytest.raises(InvalidValueError):
            PatientRecord("p1", weight_kg=70.0, height_cm=170.0, bmi=30.0)

    def test_missing_fields_are_none(self):
        p = PatientRecord("p1", hba1c=8.5, hba1c_unit="percent")
        assert p.weight_kg is None
        assert p.bmi is None
        assert p.feature("hba1c") == 8.5
        assert p.feature("annual_income_usd") is None



class TestFramedLayout:
    """save_prepared, save_model and save_hmm write the README's layout byte for byte:
    the magic, the version and header length as little-endian uint32, the
    sorted-key JSON header, then the payload as little-endian float64."""

    @staticmethod
    def framed(magic, version, header, values):
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        floats = struct.pack(f"<{len(values)}d", *values)
        return magic + struct.pack("<II", version, len(blob)) + blob + floats

    def test_prepared_set(self, tmp_path):
        # A file holding its store, and one naming the store held beside it.
        prepared = one_window_prepared([[101.0, 102.0, 103.0]], [[201.0, 202.0, 203.0]], 2)
        values = [101.0, 102.0, 103.0, 201.0, 202.0, 203.0]
        header = {"provenance": prepared.provenance, "input_len": 2, "horizon": 1,
                  "train_seq_ids": [0], "train_counts": [1], "train_step": 1,
                  "test_seq_ids": [1], "test_counts": [1], "test_step": 1,
                  "store_sha256": hashlib.sha256(struct.pack("<6d", *values)).hexdigest()}
        save_prepared(prepared, tmp_path / "f.gprep")
        expected = self.framed(
            b"GLYFPREP", 3, {**header, "store_ids": [0, 1], "store_spans": [3, 3]}, values
        )
        assert (tmp_path / "f.gprep").read_bytes() == expected
        save_prepared(prepared, tmp_path / "g.gprep", store_file="f.gprep")
        expected = self.framed(b"GLYFPREP", 3, {**header, "store_file": "f.gprep"}, [])
        assert (tmp_path / "g.gprep").read_bytes() == expected

    def test_lstm_model(self, tmp_path):
        net = new_network(2, 2, seed=0)
        header = {"hidden_size": 2, "n_layers": 2, "input_size": 1, "scaler_lo": 20.0,
                  "scaler_hi": 600.0, "seed": 0, "provenance": {}}
        values = []  # per layer w_input, w_hidden, b_input, b_hidden (row-major), then the head
        for layer, w_in in enumerate([net.w_input0, *net.w_input]):
            for array in (w_in, net.w_hidden[layer], net.b_input[layer], net.b_hidden[layer]):
                values += array.ravel().tolist()
        values += [*net.head_weights.tolist(), float(net.head_bias)]
        save_model(net, tmp_path / "m.glstm")
        assert (tmp_path / "m.glstm").read_bytes() == self.framed(b"GLYFLSTM", 2, header, values)

    def test_hmm_model(self, tmp_path):
        initial, transition, emission = [0.25, 0.75], [[0.5, 0.5], [0.0, 1.0]], [[1.0], [1.0]]
        model = HmmModel(*(np.array(p) for p in (initial, transition, emission)),
                         trained_iterations=3, final_log_likelihood=-12.5)
        header = {"n_states": 2, "n_symbols": 1, "quantizer_lo": 40.0, "quantizer_hi": 400.0,
                  "trained_iterations": 3, "final_log_likelihood": -12.5}
        save_hmm(model, Quantizer(1, 40.0, 400.0), tmp_path / "m.ghmm")
        values = [0.25, 0.75, 0.5, 0.5, 0.0, 1.0, 1.0, 1.0]
        assert (tmp_path / "m.ghmm").read_bytes() == self.framed(b"GLYF_HMM", 1, header, values)


def _save_each_kind(tmp_path) -> dict:
    """One small file of each framed kind, by suffix."""
    paths = {suffix: tmp_path / f"f.{suffix}" for suffix in ("gprep", "glstm", "ghmm")}
    save_prepared(one_window_prepared([[1.0, 2.0]], [[3.0, 4.0]], 1), paths["gprep"])
    save_model(new_network(2, 1, seed=0), paths["glstm"])
    model = HmmModel(np.ones(1), np.ones((1, 1)), np.ones((1, 1)))
    save_hmm(model, Quantizer(1, 0.0, 1.0), paths["ghmm"])
    return paths


LOADERS = {"gprep": load_prepared, "glstm": load_model, "ghmm": load_hmm}


@pytest.mark.parametrize("kind", LOADERS)
def test_each_framed_loader_refuses_the_other_kinds_by_magic(tmp_path, kind):
    paths = _save_each_kind(tmp_path)
    LOADERS[kind](paths[kind])  # its own kind loads
    for other, path in paths.items():
        if other != kind:
            with pytest.raises(FormatError, match="bad magic"):
                LOADERS[kind](path)


def test_header_reader_agrees_with_the_whole_file_reader(tmp_path):
    """read_framed_header parses the frame as read_framed does: the same
    version and header, or the same error, for every cut of a framed file
    and for a header length past the end of the file."""
    path = _save_each_kind(tmp_path)["gprep"]
    raw = path.read_bytes()
    cuts = [raw[:n] for n in range(len(raw) + 1)]
    cuts.append(raw[:12] + struct.pack("<I", 2**32 - 1) + raw[16:])
    for n, blob in enumerate(cuts):
        path.write_bytes(blob)
        outcomes = []
        for read in (read_framed_header, read_framed):
            try:
                outcomes.append(read(path, b"GLYFPREP", "prepared-set")[:2])
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], n
    assert outcomes[0] == f"{path}: truncated header"
    path.write_bytes(raw)
    version, header = read_framed_header(path, b"GLYFPREP", "prepared-set")
    assert (version, header) == read_framed(path, b"GLYFPREP", "prepared-set")[:2]
    provenance, digest = load_header(path)
    assert provenance == load_prepared(path).provenance == header["provenance"]
    assert digest == load_prepared(path).store.sha256 == header["store_sha256"]

