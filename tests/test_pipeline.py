import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from glyco.core import ContiguousSequence, GlucoseReading
from glyco.errors import DataError, FormatError
from glyco.pipeline import (
    FoldSplit,
    kfold_split,
    load_prepared,
    prepare,
    save_prepared,
    segment,
    window_count,
)


def readings_with_gaps(gaps, patient="p1", start=10_000):
    ts = start
    out = [GlucoseReading(patient, ts, 100.0)]
    for gap in gaps:
        ts += gap
        out.append(GlucoseReading(patient, ts, 100.0))
    return out


def constant_sequence(n, patient="p", sid=0):
    return ContiguousSequence(patient, 10_000, tuple(100.0 + i % 7 for i in range(n)), sequence_id=sid)


class TestSegment:
    def test_split_on_large_gap(self):
        seqs = segment(readings_with_gaps([300, 300, 1200, 300]))
        assert [len(s) for s in seqs] == [3, 2]

    def test_single_run(self):
        seqs = segment(readings_with_gaps([300] * 9))
        assert [len(s) for s in seqs] == [10]

    def test_gap_exactly_900_does_not_split(self):
        seqs = segment(readings_with_gaps([300, 900, 300]))
        assert [len(s) for s in seqs] == [4]

    def test_gap_901_splits(self):
        seqs = segment(readings_with_gaps([300, 901, 300]))
        assert [len(s) for s in seqs] == [2, 2]

    def test_patient_change_splits(self):
        rows = readings_with_gaps([300], patient="a") + readings_with_gaps([300], patient="b")
        seqs = segment(rows)
        assert [s.patient_id for s in seqs] == ["a", "b"]

    def test_unsorted_rejected(self):
        rows = readings_with_gaps([300, 300])
        with pytest.raises(DataError):
            segment([rows[1], rows[0], rows[2]])

    def test_every_reading_in_exactly_one_sequence(self, small_corpus, small_sequences):
        assert sum(len(s) for s in small_sequences) == len(small_corpus.readings)

    def test_sequence_ids_are_positions(self, small_sequences):
        assert [s.sequence_id for s in small_sequences] == list(range(len(small_sequences)))

    def test_idempotent_over_resegmentation(self, small_sequences):
        rebuilt = []
        for s in small_sequences:
            for i, v in enumerate(s.values):
                rebuilt.append(GlucoseReading(s.patient_id, s.start_timestamp + 300 * i, v))
        rebuilt.sort(key=lambda r: (r.patient_id, r.timestamp))
        again = segment(rebuilt)
        assert [(s.patient_id, s.start_timestamp, s.values) for s in again] == [
            (s.patient_id, s.start_timestamp, s.values) for s in small_sequences
        ]


def cut_windows(sequence, step=1, **lengths):
    """The test-side windows ``prepare`` cuts from one sequence."""
    fold = FoldSplit(0, frozenset(), frozenset({sequence.sequence_id}), seed=0)
    return prepare([sequence], fold, test_step=step, **lengths)


class TestWindow:
    def test_exact_fit(self):
        assert cut_windows(constant_sequence(144)).n_test == 1

    def test_150_gives_7(self):
        prepared = cut_windows(constant_sequence(150))
        assert prepared.n_test == 7
        assert prepared.test_offsets[:3].tolist() == [0, 1, 2]

    def test_step_144(self):
        prepared = cut_windows(constant_sequence(300), step=144)
        assert prepared.test_offsets.tolist() == [0, 144]

    def test_too_short_gives_none(self):
        assert cut_windows(constant_sequence(143)).n_test == 0

    def test_window_contents_are_consecutive(self):
        seq = ContiguousSequence("p", 1, tuple(float(i + 1) for i in range(150)), sequence_id=3)
        prepared = cut_windows(seq, total=144, input_len=132)
        assert tuple(prepared.test_inputs[4]) == tuple(float(i + 1) for i in range(4, 136))
        assert tuple(prepared.test_targets[4]) == tuple(float(i + 1) for i in range(136, 148))
        assert prepared.test_seq_ids[4] == 3

    @pytest.mark.parametrize(
        "lengths", [dict(step=0), dict(input_len=144), dict(input_len=0), dict(total=10, input_len=12)]
    )
    def test_invalid_step_or_lengths_rejected(self, lengths):
        with pytest.raises(DataError):
            cut_windows(constant_sequence(150), **lengths)

    @settings(max_examples=200)
    @given(
        length=st.integers(min_value=0, max_value=400),
        total=st.integers(min_value=2, max_value=200),
        step=st.integers(min_value=1, max_value=160),
    )
    def test_count_formula_matches_enumeration(self, length, total, step):
        # enumeration over all valid offsets aligned to the step grid
        brute = sum(1 for o in range(0, length + 1, step) if o + total <= length)
        assert window_count(length, total, step) == brute


class TestKfold:
    def make(self, n):
        return [constant_sequence(150, sid=i) for i in range(n)]

    def test_balanced_partition(self):
        folds = kfold_split(self.make(10), k=5, seed=1)
        test_sets = [f.test_sequence_ids for f in folds]
        assert all(len(t) == 2 for t in test_sets)
        union = set().union(*test_sets)
        assert union == set(range(10))
        assert sum(len(t) for t in test_sets) == 10

    def test_deterministic(self):
        a = kfold_split(self.make(13), k=5, seed=9)
        b = kfold_split(self.make(13), k=5, seed=9)
        assert a == b

    def test_seed_changes_assignment(self):
        a = kfold_split(self.make(40), k=5, seed=1)
        b = kfold_split(self.make(40), k=5, seed=2)
        assert any(x.test_sequence_ids != y.test_sequence_ids for x, y in zip(a, b))

    def test_train_test_disjoint_and_cover(self):
        for fold in kfold_split(self.make(11), k=5, seed=3):
            assert not (fold.train_sequence_ids & fold.test_sequence_ids)
            assert fold.train_sequence_ids | fold.test_sequence_ids == set(range(11))

    def test_short_sequences_excluded(self):
        seqs = self.make(6) + [constant_sequence(50, sid=6)]
        folds = kfold_split(seqs, k=5, seed=1)
        assert all(6 not in f.train_sequence_ids | f.test_sequence_ids for f in folds)

    def test_too_few_eligible(self):
        with pytest.raises(DataError):
            kfold_split(self.make(4), k=5, seed=1)


class TestPrepare:
    def test_window_arithmetic(self):
        seqs = [constant_sequence(150, sid=0), constant_sequence(150, sid=1)]
        fold = FoldSplit(0, frozenset({0}), frozenset({1}), seed=1)
        prepared = prepare(seqs, fold, train_step=1, test_step=144)
        assert prepared.n_train == 7
        assert prepared.n_test == 1

    def test_leakage_freedom(self, small_sequences):
        folds = kfold_split(small_sequences, k=5, seed=42)
        prepared = prepare(small_sequences, folds[0])
        train_ids = set(prepared.train_seq_ids.tolist())
        test_ids = set(prepared.test_seq_ids.tolist())
        assert not (train_ids & test_ids)

    def test_cohort_filter_keeps_patient_together(self, small_sequences):
        patients = {s.patient_id for s in small_sequences}
        keep = {sorted(patients)[0]}
        filtered = [s for s in small_sequences if s.patient_id in keep]
        folds = kfold_split(filtered, k=2, seed=1)
        prepared = prepare(small_sequences, folds[0], cohort_filter=keep, cohort_label="c0")
        by_id = {s.sequence_id: s for s in small_sequences}
        used = set(prepared.train_seq_ids.tolist()) | set(prepared.test_seq_ids.tolist())
        assert all(by_id[sid].patient_id in keep for sid in used)
        assert prepared.provenance["cohort"] == "c0"

    def test_cohort_filter_empty_error(self, small_sequences):
        folds = kfold_split(small_sequences, k=5, seed=1)
        with pytest.raises(DataError):
            prepare(small_sequences, folds[0], cohort_filter={"nobody"})

    def test_fold_must_match_sequences(self):
        seqs = [constant_sequence(150, sid=0)]
        fold = FoldSplit(0, frozenset({5}), frozenset({0}), seed=1)
        with pytest.raises(DataError):
            prepare(seqs, fold)


class TestPreparedRoundTrip:
    def build(self, small_sequences):
        folds = kfold_split(small_sequences, k=5, seed=7)
        return prepare(small_sequences, folds[1], test_step=144)

    def test_round_trip_equality(self, tmp_path, small_sequences):
        prepared = self.build(small_sequences)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        loaded = load_prepared(path)
        assert loaded.equals(prepared)
        assert loaded.provenance == prepared.provenance

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.gprep"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_prepared(path)

    def test_version_mismatch(self, tmp_path, small_sequences):
        prepared = self.build(small_sequences)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_prepared(path)

    def test_missing_metadata_key(self, tmp_path, small_sequences):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_sequences), path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 12)
        meta = json.loads(raw[16 : 16 + meta_len])
        del meta["test_offsets"]
        blob = json.dumps(meta).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + meta_len :])
        with pytest.raises(FormatError, match="test_offsets"):
            load_prepared(path)

    def test_non_object_metadata_is_format_error(self, tmp_path, small_sequences):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_sequences), path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 12)
        path.write_bytes(raw[:12] + struct.pack("<I", 3) + b"[1]" + raw[16 + meta_len :])
        with pytest.raises(FormatError, match="not a JSON object"):
            load_prepared(path)

    def test_truncated(self, tmp_path, small_sequences):
        prepared = self.build(small_sequences)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError):
            load_prepared(path)
