import json
import re
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import corpus_of, edit_header
from hypothesis import HealthCheck, example, given, settings, strategies as st

from glyco.core import GlucoseReading
from glyco.errors import DataError, FormatError, GlycoError
from glyco.hmm import Quantizer
from glyco.ingest import synth_corpus
from glyco.lstm import Scaler
from glyco.pipeline import (
    FoldSplit,
    SequenceStore,
    kfold_split,
    load_header,
    load_prepared,
    prepare,
    run_store,
    save_prepared,
    segment,
    window_count,
)
from glyco.workflows import _cohort_fold


def readings_with_gaps(gaps, patient="p1", start=10_000):
    ts = start
    out = [GlucoseReading(patient, ts, 100.0)]
    for gap in gaps:
        ts += gap
        out.append(GlucoseReading(patient, ts, 100.0))
    return out


def segment_rows(rows):
    return segment(corpus_of(rows))


def make_store(*sequences, patient="p"):
    """A store holding the given value sequences, ids in argument order."""
    values = np.concatenate([np.asarray(s, dtype=float) for s in sequences])
    starts = np.cumsum([0, *map(len, sequences)])
    return SequenceStore(values, starts, np.full(len(sequences), patient, dtype=object))


def constant_values(n):
    return 100.0 + np.arange(n) % 7


class TestSegment:
    def test_split_on_large_gap(self):
        store = segment_rows(readings_with_gaps([300, 300, 1200, 300]))
        assert store.lengths.tolist() == [3, 2]

    def test_single_run(self):
        store = segment_rows(readings_with_gaps([300] * 9))
        assert store.lengths.tolist() == [10]

    def test_gap_exactly_900_does_not_split(self):
        store = segment_rows(readings_with_gaps([300, 900, 300]))
        assert store.lengths.tolist() == [4]

    def test_gap_901_splits(self):
        store = segment_rows(readings_with_gaps([300, 901, 300]))
        assert store.lengths.tolist() == [2, 2]

    def test_patient_change_splits(self):
        rows = readings_with_gaps([300], patient="a") + readings_with_gaps([300], patient="b")
        store = segment_rows(rows)
        assert store.patient_ids.tolist() == ["a", "b"]

    def test_unsorted_rejected(self):
        rows = readings_with_gaps([300, 300])
        with pytest.raises(DataError):
            segment_rows([rows[1], rows[0], rows[2]])

    def test_every_reading_in_exactly_one_sequence(self, small_corpus, small_store):
        assert small_store.starts[0] == 0
        assert np.all(small_store.lengths > 0)
        assert small_store.starts[-1] == len(small_corpus.readings)

    def test_sequence_ids_are_positions(self, small_corpus, small_store):
        readings = small_corpus.readings
        for sid, (lo, hi) in enumerate(zip(small_store.starts, small_store.starts[1:])):
            assert {r.patient_id for r in readings[lo:hi]} == {small_store.patient_ids[sid]}
            assert small_store.values[lo:hi].tolist() == [r.value for r in readings[lo:hi]]

    def test_idempotent_over_resegmentation(self, small_corpus, small_store):
        store = small_store
        rebuilt = []
        for sid, lo in enumerate(store.starts[:-1].tolist()):
            first = int(small_corpus.timestamps[lo])
            for i in range(int(store.lengths[sid])):
                pid = store.patient_ids[sid]
                rebuilt.append(GlucoseReading(pid, first + 300 * i, float(store.values[lo + i])))
        again = segment_rows(rebuilt)
        assert again.starts.tolist() == store.starts.tolist()
        assert again.patient_ids.tolist() == store.patient_ids.tolist()
        assert again.values.tobytes() == store.values.tobytes()

    def test_empty_corpus(self):
        store = segment_rows([])
        assert len(store) == 0 and store.starts.tolist() == [0]


# One patient's readings as (gap before the reading) steps; the gap list
# includes both sides of the 900 s rule.
GAPS = st.one_of(st.sampled_from([300, 899, 900, 901, 1200]), st.integers(1, 5000))
PATIENT_GAPS = st.lists(st.lists(GAPS, max_size=12), min_size=1, max_size=4)


def corpus_from_gaps(patient_gaps):
    rows = []
    for p, gaps in enumerate(patient_gaps):
        rows += readings_with_gaps(gaps, patient=f"p{p}", start=1_000 + p)
    return rows


@settings(max_examples=200, deadline=None)
@given(patient_gaps=PATIENT_GAPS)
@example(patient_gaps=[[], [901, 901, 900], [300]])  # single-reading sequences
def test_segment_splits_exactly_at_the_gap_rule(patient_gaps):
    rows = corpus_from_gaps(patient_gaps)
    store = segment_rows(rows)
    boundaries = set(store.starts.tolist())
    assert store.starts[0] == 0 and store.starts[-1] == len(rows)
    for i in range(1, len(rows)):
        new_patient = rows[i].patient_id != rows[i - 1].patient_id
        gap = rows[i].timestamp - rows[i - 1].timestamp
        assert (i in boundaries) == (new_patient or gap > 900), (i, gap)
    assert np.all(store.lengths >= 1)
    assert store.patient_ids.tolist() == [rows[i].patient_id for i in store.starts[:-1]]


@settings(max_examples=100, deadline=None)
@given(patient_gaps=PATIENT_GAPS, data=st.data())
def test_unsorted_or_duplicate_input_rejected(patient_gaps, data):
    rows = corpus_from_gaps(patient_gaps)
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    if i == j:
        rows.insert(i, rows[i])  # a duplicate (patient_id, timestamp)
    else:
        rows[i], rows[j] = rows[j], rows[i]
    with pytest.raises(DataError):
        segment_rows(rows)


def cut_windows(store, sid=0, step=1, **lengths):
    """The test-side windows ``prepare`` cuts from one sequence of a store."""
    fold = FoldSplit(0, frozenset(), frozenset({sid}), seed=0)
    return prepare(store, fold, test_step=step, **lengths)


class TestWindow:
    def test_exact_fit(self):
        assert cut_windows(make_store(constant_values(144))).n_test == 1

    def test_150_gives_7(self):
        prepared = cut_windows(make_store(constant_values(150)))
        assert prepared.n_test == 7
        assert prepared.test_offsets[:3].tolist() == [0, 1, 2]

    def test_step_144(self):
        prepared = cut_windows(make_store(constant_values(300)), step=144)
        assert prepared.test_offsets.tolist() == [0, 144]

    def test_too_short_gives_none(self):
        assert cut_windows(make_store(constant_values(143))).n_test == 0

    def test_window_contents_are_consecutive(self):
        store = make_store(*[constant_values(5)] * 3, np.arange(1.0, 151.0))
        prepared = cut_windows(store, sid=3, total=144, input_len=132)
        assert tuple(prepared.test_inputs[4]) == tuple(float(i + 1) for i in range(4, 136))
        assert tuple(prepared.test_targets[4]) == tuple(float(i + 1) for i in range(136, 148))
        assert prepared.test_seq_ids[4] == 3

    @pytest.mark.parametrize(
        "lengths", [dict(step=0), dict(input_len=144), dict(input_len=0), dict(total=10, input_len=12)]
    )
    def test_invalid_step_or_lengths_rejected(self, lengths):
        with pytest.raises(DataError):
            cut_windows(make_store(constant_values(150)), **lengths)

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
        return make_store(*[constant_values(150)] * n)

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
        store = make_store(*[constant_values(150)] * 6, constant_values(50))
        folds = kfold_split(store, k=5, seed=1)
        assert all(6 not in f.train_sequence_ids | f.test_sequence_ids for f in folds)

    def test_too_few_eligible(self):
        with pytest.raises(DataError):
            kfold_split(self.make(4), k=5, seed=1)


class TestPrepare:
    def test_window_arithmetic(self):
        store = make_store(constant_values(150), constant_values(150))
        fold = FoldSplit(0, frozenset({0}), frozenset({1}), seed=1)
        prepared = prepare(store, fold, train_step=1, test_step=144)
        assert prepared.n_train == 7
        assert prepared.n_test == 1

    def test_leakage_freedom(self, small_store):
        folds = kfold_split(small_store, k=5, seed=42)
        prepared = prepare(small_store, folds[0])
        train_ids = set(prepared.train_seq_ids.tolist())
        test_ids = set(prepared.test_seq_ids.tolist())
        assert not (train_ids & test_ids)

    def test_cohort_filter_keeps_patient_together(self, small_store):
        keep = sorted(set(small_store.patient_ids))[0]
        pool = small_store.patient_ids == keep
        fold = _cohort_fold(kfold_split(small_store, k=2, seed=1)[0], pool, "c0")
        prepared = prepare(small_store, fold, cohort_label="c0")
        used = set(prepared.train_seq_ids.tolist()) | set(prepared.test_seq_ids.tolist())
        assert used and all(small_store.patient_ids[sid] == keep for sid in used)
        assert prepared.provenance["cohort"] == "c0"

    def test_cohort_filter_empty_error(self, small_store):
        fold = kfold_split(small_store, k=5, seed=1)[2]
        with pytest.raises(DataError, match="cohort 'c0' has no train sequence in fold 2"):
            _cohort_fold(fold, np.zeros(len(small_store), bool), "c0")

    def test_fold_must_match_sequences(self):
        store = make_store(constant_values(150))
        fold = FoldSplit(0, frozenset({5}), frozenset({0}), seed=1)
        with pytest.raises(DataError):
            prepare(store, fold)


# Frozen copy of the object-based data path the sequence store replaced: one
# object per sequence, segmented reading by reading, split over the sequence
# list (a cohort's fold is then the fold restricted to the cohort) and windowed
# sequence by sequence. The guard below holds the store-based path to its bytes.
@dataclass(frozen=True)
class _ReferenceSequence:
    patient_id: str
    values: tuple
    sequence_id: int

    def __len__(self):
        return len(self.values)


def _reference_segment(readings, max_gap=900):
    sequences, current, prev = [], [], None
    for r in readings:
        if prev is None or r.patient_id != prev.patient_id or r.timestamp - prev.timestamp > max_gap:
            if current:
                sequences.append(_ReferenceSequence(
                    current[0].patient_id, tuple(x.value for x in current), len(sequences)))
            current = [r]
        else:
            current.append(r)
        prev = r
    if current:
        sequences.append(_ReferenceSequence(
            current[0].patient_id, tuple(x.value for x in current), len(sequences)))
    return sequences


def _reference_kfold(sequences, k, seed, total=144):
    eligible = [s.sequence_id for s in sequences if len(s) >= total]
    order = [eligible[i] for i in np.random.default_rng(seed).permutation(len(eligible))]
    buckets = [set() for _ in range(k)]
    for position, sid in enumerate(order):
        buckets[position % k].add(sid)
    return [
        FoldSplit(i, frozenset(set(eligible) - buckets[i]), frozenset(buckets[i]), seed)
        for i in range(k)
    ]


def _reference_window_arrays(sequences, ids, total, input_len, step):
    inputs, targets, seq_ids, offsets = [], [], [], []
    for seq in sequences:
        if seq.sequence_id not in ids or len(seq) < total:
            continue
        values = np.asarray(seq.values, dtype=float)
        views = np.lib.stride_tricks.sliding_window_view(values, total)[::step]
        inputs.append(views[:, :input_len])
        targets.append(views[:, input_len:])
        n = views.shape[0]
        seq_ids.append(np.full(n, seq.sequence_id, dtype=np.int64))
        offsets.append(np.arange(0, n * step, step, dtype=np.int64))
    if not inputs:
        return (
            np.empty((0, input_len)),
            np.empty((0, total - input_len)),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.ascontiguousarray(np.concatenate(inputs)),
        np.ascontiguousarray(np.concatenate(targets)),
        np.concatenate(seq_ids),
        np.concatenate(offsets),
    )


def _reference_prepared(readings, k, seed, step, keep, label):
    """Per fold: the window arrays in the order (inputs, targets, seq_ids, offsets)
    for train and then test, and the provenance."""
    sequences = _reference_segment(readings)
    prepared = []
    for fold in _reference_kfold(sequences, k, seed):
        if keep is not None:  # a cohort's fold: the pooled fold restricted to the cohort
            members = {s.sequence_id for s in sequences if s.patient_id in keep}
            fold = FoldSplit(fold.fold_index, fold.train_sequence_ids & members,
                             fold.test_sequence_ids & members, seed)
        provenance = {"fold": fold.fold_index, "cohort": label, "train_step": step,
                      "test_step": step, "seed": seed, "total": 144, "input_len": 132}
        arrays = (
            *_reference_window_arrays(sequences, fold.train_sequence_ids, 144, 132, step),
            *_reference_window_arrays(sequences, fold.test_sequence_ids, 144, 132, step),
        )
        prepared.append((arrays, provenance))
    return prepared


ARRAY_NAMES = tuple(
    f"{side}_{what}" for side in ("train", "test") for what in ("inputs", "targets", "seq_ids", "offsets")
)


def assert_same_content(prepared, arrays, provenance):
    for name, expected in zip(ARRAY_NAMES, arrays):
        actual = getattr(prepared, name)
        assert actual.shape == expected.shape, name
        assert actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name
    assert prepared.provenance == provenance


def _guard_corpus(n_patients, days, seed):
    """A synth corpus with two readings dropped in every 211, which leaves gaps
    of exactly 900 s: synth dropouts alone never land on the gap limit."""
    readings = synth_corpus(n_patients, days, seed).readings
    corpus = corpus_of(r for i, r in enumerate(readings) if i % 211 not in (5, 6))
    assert np.any(np.diff(corpus.timestamps) == 900)
    return corpus


@pytest.fixture(scope="module", params=[(4, 10, 101), (6, 6, 1001), (3, 12, 7)],
                ids=lambda p: "%dx%d-seed%d" % p)
def guard_corpus(request):
    return _guard_corpus(*request.param)


# Step 200 > total leaves readings between windows that no window uses.
@pytest.mark.parametrize("step", [1, 8, 144, 200])
@pytest.mark.parametrize("cohort", [False, True], ids=["all", "cohort"])
def test_prepared_bytes_identical_to_object_reference(tmp_path, guard_corpus, step, cohort):
    """Every window, id, offset and the provenance, after a save/load round
    trip, hold the bytes of the frozen object path (the container's own
    bytes changed by design with format v2)."""
    store = segment(guard_corpus)
    keep, label, k = None, "all", 5
    if cohort:
        keep, label, k = set(sorted(set(guard_corpus.patient_ids))[::2]), "even", 3
    expected = _reference_prepared(guard_corpus.readings, k, step, step, keep, label)
    folds = kfold_split(store, k=k, seed=step)
    if cohort:
        pool = np.isin(store.patient_ids, np.array(sorted(keep), dtype=object))
        folds = [_cohort_fold(fold, pool, label) for fold in folds]
    assert len(folds) == len(expected) == k
    path = tmp_path / "fold.gprep"
    for fold, (arrays, provenance) in zip(folds, expected):
        prepared = prepare(store, fold, train_step=step, test_step=step, cohort_label=label)
        save_prepared(prepared, path)
        assert prepared.n_test > 0
        assert_same_content(load_prepared(path), arrays, provenance)


# Metadata edits that leave every field well typed but the index inconsistent.
INDEX_EDITS = {
    "unsorted": (lambda m: m["train_seq_ids"].reverse(), "sorted"),
    "duplicate": (lambda m: m["test_seq_ids"].__setitem__(1, m["test_seq_ids"][0]), "sorted"),
    "overlap": (lambda m: m["test_seq_ids"].__setitem__(0, m["train_seq_ids"][0]), "both"),
    "count-beyond-payload": (
        lambda m: m["train_counts"].__setitem__(0, m["train_counts"][0] + 1), "payload"),
    "step-beyond-payload": (lambda m: m.__setitem__("train_step", m["train_step"] + 1), "payload"),
    "ragged": (lambda m: m["test_counts"].pop(), "equal-length"),
    "store-unsorted": (lambda m: m["store_ids"].reverse(), "sorted"),
    "store-span-beyond-payload": (
        lambda m: m["store_spans"].__setitem__(0, m["store_spans"][0] + 1), "payload"),
    "absent-from-store": (
        lambda m: m.__setitem__("store_ids", [i + 10**6 for i in m["store_ids"]]), "payload"),
}


class TestPreparedRoundTrip:
    def build(self, small_store, step=144):
        folds = kfold_split(small_store, k=5, seed=7)
        return prepare(small_store, folds[1], train_step=step, test_step=144)

    def test_round_trip_equality(self, tmp_path, small_store):
        for step in (1, 144):
            prepared = self.build(small_store, step)
            path = tmp_path / "fold.gprep"
            save_prepared(prepared, path)
            loaded = load_prepared(path)
            assert loaded.readings.tobytes() == prepared.readings.tobytes()
            for side in ("train", "test"):
                a, b = getattr(loaded, side), getattr(prepared, side)
                assert np.array_equal(a.seq_ids, b.seq_ids)
                assert np.array_equal(a.counts, b.counts) and a.step == b.step
            assert (loaded.input_len, loaded.horizon) == (prepared.input_len, prepared.horizon)
            assert loaded.provenance == prepared.provenance

    def test_payload_is_the_covered_readings(self, tmp_path, small_store):
        prepared = self.build(small_store, step=1)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        (meta_len,) = struct.unpack_from("<I", path.read_bytes(), 12)
        assert path.stat().st_size == 16 + meta_len + 8 * len(prepared.readings)
        assert len(prepared.readings) < small_store.starts[-1]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.gprep"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_prepared(path)

    def test_version_mismatch(self, tmp_path, small_store):
        prepared = self.build(small_store)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_prepared(path)

    def test_v1_file_asks_for_prepare(self, tmp_path):
        # A v1 header (per-row ids and offsets) and a v2 header (per-side
        # window indexes, readings held per fold), each with one window per side.
        old_headers = {
            1: {"provenance": {}, "n_train": 1, "n_test": 1, "input_len": 2, "horizon": 1,
                "train_seq_ids": [0], "train_offsets": [0],
                "test_seq_ids": [1], "test_offsets": [0]},
            2: {"provenance": {}, "input_len": 2, "horizon": 1,
                "train_seq_ids": [0], "train_counts": [1], "train_step": 1,
                "test_seq_ids": [1], "test_counts": [1], "test_step": 1},
        }
        for version, meta in old_headers.items():
            blob = json.dumps(meta, sort_keys=True).encode("utf-8")
            path = tmp_path / f"v{version}.gprep"
            path.write_bytes(b"GLYFPREP" + struct.pack("<II", version, len(blob)) + blob
                             + np.arange(6.0).astype("<f8").tobytes())
            for load in (load_prepared, load_header):
                with pytest.raises(FormatError, match=f"v{version} .*re-run prepare"):
                    load(path)

    def test_missing_metadata_key(self, tmp_path, small_store):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_store), path)
        edit_header(path, lambda meta: meta.pop("test_counts"))
        with pytest.raises(FormatError, match="test_counts"):
            load_prepared(path)

    def test_non_object_metadata_is_format_error(self, tmp_path, small_store):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_store), path)
        edit_header(path, b"[1]")
        with pytest.raises(FormatError, match="not a JSON object"):
            load_prepared(path)

    @pytest.mark.parametrize(
        "field, value",
        [("train_counts", "5"), ("horizon", 12.0), ("provenance", 3), ("train_seq_ids", "abc"),
         ("test_counts", [[1]]), ("test_seq_ids", [1.5]), ("train_step", 0), ("test_step", True),
         ("input_len", None), ("test_counts", [0])],
    )
    def test_wrongly_typed_metadata_is_format_error(self, tmp_path, small_store, field, value):
        def edit(meta):
            meta[field] = value
            if field.startswith("test_") and isinstance(value, list):
                meta[field] = value * len(meta["test_seq_ids"])

        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_store), path)
        edit_header(path, edit)
        with pytest.raises(FormatError):
            load_prepared(path)

    @pytest.mark.parametrize("edit, message", INDEX_EDITS.values(), ids=INDEX_EDITS.keys())
    def test_inconsistent_index_is_format_error(self, tmp_path, small_store, edit, message):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_store), path)
        edit_header(path, edit)
        with pytest.raises(FormatError, match=message):
            load_prepared(path)

    def test_non_finite_reading_is_format_error(self, tmp_path, small_store):
        path = tmp_path / "fold.gprep"
        save_prepared(self.build(small_store), path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            load_prepared(path)

    def test_truncated(self, tmp_path, small_store):
        prepared = self.build(small_store)
        path = tmp_path / "fold.gprep"
        save_prepared(prepared, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError):
            load_prepared(path)


class TestRunStore:
    """A prepare run keeps each reading once: fold 0 holds the run's store and
    every other fold names it by file name and SHA-256."""

    @staticmethod
    def save_run(store, directory, train_step=12):
        folds = kfold_split(store, k=3, seed=7)
        readings = run_store(store, folds, train_step=train_step, test_step=144)
        sets = [prepare(store, fold, train_step=train_step, test_step=144, readings=readings)
                for fold in folds]
        for i, prepared in enumerate(sets):
            save_prepared(prepared, directory / f"fold{i}.gprep",
                          store_file=None if i == 0 else "fold0.gprep")
        return folds, sets

    def test_each_fold_cuts_the_windows_of_its_own_readings(self, tmp_path, small_store):
        folds, sets = self.save_run(small_store, tmp_path)
        for i, (fold, prepared) in enumerate(zip(folds, sets)):
            alone = prepare(small_store, fold, train_step=12, test_step=144)
            loaded = load_prepared(tmp_path / f"fold{i}.gprep")
            assert loaded.readings.tobytes() == sets[0].readings.tobytes()
            assert len(alone.readings) <= len(loaded.readings)
            for name in ARRAY_NAMES:
                for other in (prepared, loaded):
                    assert getattr(other, name).tobytes() == getattr(alone, name).tobytes(), name
            assert loaded.provenance == alone.provenance

    def test_only_fold_0_holds_readings(self, tmp_path, small_store):
        _, sets = self.save_run(small_store, tmp_path)
        for i in range(3):
            raw = (tmp_path / f"fold{i}.gprep").read_bytes()
            (meta_len,) = struct.unpack_from("<I", raw, 12)
            assert len(raw) - 16 - meta_len == (8 * len(sets[0].readings) if i == 0 else 0)

    def test_span_is_the_longest_any_fold_needs(self):
        # Length 300 at total 144: test step 144 covers 288 readings, train step 8 covers 296.
        store = make_store(*(constant_values(300) for _ in range(3)))
        folds = kfold_split(store, k=3, seed=1)
        readings = run_store(store, folds, train_step=8, test_step=144)
        assert readings.ids.tolist() == [0, 1, 2] and readings.spans.tolist() == [296] * 3
        for fold in folds:
            prepared = prepare(store, fold, train_step=8, test_step=144, readings=readings)
            assert prepared.test.spans(144).tolist() == [288]

    def test_a_store_that_lacks_a_fold_is_data_error(self, small_store):
        folds = kfold_split(small_store, k=3, seed=7)
        readings = run_store(small_store, folds, train_step=144, test_step=144)
        with pytest.raises(DataError, match="fold 1: train windows .* need"):
            prepare(small_store, folds[1], train_step=12, test_step=144, readings=readings)

    def test_a_changed_reading_is_format_error_for_every_fold(self, tmp_path, small_store):
        # The lowest mantissa bit of one reading: still finite, so only the digest tells.
        self.save_run(small_store, tmp_path)
        path = tmp_path / "fold0.gprep"
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1
        path.write_bytes(bytes(raw))
        for i in range(3):
            with pytest.raises(FormatError, match="SHA-256"):
                load_prepared(tmp_path / f"fold{i}.gprep")

    def test_a_store_of_another_run_is_format_error(self, tmp_path, small_store):
        first, second = tmp_path / "first", tmp_path / "second"
        for directory, step in ((first, 12), (second, 8)):
            directory.mkdir()
            self.save_run(small_store, directory, train_step=step)
        (second / "fold0.gprep").replace(first / "fold0.gprep")
        with pytest.raises(FormatError, match="different prepare runs"):
            load_prepared(first / "fold1.gprep")

    def test_a_missing_store_is_data_error(self, tmp_path, small_store):
        self.save_run(small_store, tmp_path)
        (tmp_path / "fold0.gprep").unlink()
        with pytest.raises(DataError, match="fold0.gprep, which is missing"):
            load_prepared(tmp_path / "fold1.gprep")

    @pytest.mark.parametrize("name", ["", "..", "../fold0.gprep", "sub/fold0.gprep", 3, None])
    def test_store_file_must_be_a_file_name(self, tmp_path, small_store, name):
        self.save_run(small_store, tmp_path)
        edit_header(tmp_path / "fold1.gprep", store_file=name)
        with pytest.raises(FormatError, match="file name"):
            load_prepared(tmp_path / "fold1.gprep")

    def test_the_named_file_must_hold_its_store(self, tmp_path, small_store):
        self.save_run(small_store, tmp_path)
        edit_header(tmp_path / "fold1.gprep", store_file="fold2.gprep")
        with pytest.raises(FormatError, match="holds no store of its own"):
            load_prepared(tmp_path / "fold1.gprep")

    def test_a_file_naming_its_store_holds_no_readings(self, tmp_path, small_store):
        self.save_run(small_store, tmp_path)
        path = tmp_path / "fold1.gprep"
        path.write_bytes(path.read_bytes() + struct.pack("<d", 100.0))
        with pytest.raises(FormatError, match="payload"):
            load_prepared(path)


def _tokens_replaced(text, data):
    """The metadata text with some numbers or lists swapped for hostile values."""
    hostile = st.sampled_from(["0", "-1", "1.5", "NaN", "1e400", "[]", "null", "Infinity"])
    tokens = list(re.finditer(r"-?\d+(\.\d+)?|\[[^\[\]]*\]", text))
    for match in sorted(data.draw(st.lists(st.sampled_from(tokens), max_size=3, unique_by=id)),
                        key=lambda m: -m.start()):
        text = text[: match.start()] + data.draw(hostile) + text[match.end() :]
    return text


@pytest.fixture(scope="module")
def fuzz_file_bytes(small_store, tmp_path_factory):
    prepared = prepare(small_store, kfold_split(small_store, k=5, seed=7)[1],
                       train_step=144, test_step=144)
    prepared.provenance.clear()  # keep the numbers the fuzzer picks to the index
    path = tmp_path_factory.mktemp("fuzz") / "fold.gprep"
    save_prepared(prepared, path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_prepared_fuzz_raises_only_glyco_errors(tmp_path, fuzz_file_bytes, data):
    raw = bytearray(fuzz_file_bytes)
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    kind = data.draw(st.sampled_from(["truncate", "bitflip", "metadata", "index", "reading"]))
    if kind in ("metadata", "index"):
        text = raw[16 : 16 + meta_len].decode("utf-8")
        if kind == "index":
            meta = json.loads(text)
            data.draw(st.sampled_from(list(INDEX_EDITS.values())))[0](meta)
            text = json.dumps(meta)
        blob = _tokens_replaced(text, data).encode("utf-8")
        raw = raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + meta_len :]
    elif kind == "reading":
        position = 16 + meta_len + 8 * data.draw(st.integers(0, (len(raw) - 16 - meta_len) // 8 - 1))
        raw[position : position + 8] = struct.pack("<d", data.draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf")])))
    elif kind == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, 8 * len(raw) - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path / "fuzz.gprep"
    path.write_bytes(bytes(raw))
    try:
        prepared = load_prepared(path)
    except GlycoError:
        return
    # Whatever loads must gather every window without error.
    for side in ("train", "test"):
        inputs, targets = prepared.gather(side)
        assert np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))


class TestGather:
    def test_rows_out_of_range_rejected(self, small_store):
        prepared = TestPreparedRoundTrip().build(small_store)
        for rows in ([-1], [prepared.n_test]):
            with pytest.raises(DataError):
                prepared.gather("test", rows)

    def test_rows_match_the_whole_side(self, small_store):
        prepared = TestPreparedRoundTrip().build(small_store, step=1)
        rows = np.array([prepared.n_train - 1, 0, 17, 17])
        inputs, targets = prepared.gather("train", rows)
        assert inputs.tobytes() == prepared.train_inputs[rows].tobytes()
        assert targets.tobytes() == prepared.train_targets[rows].tobytes()

    def test_empty_side(self):
        prepared = cut_windows(make_store(constant_values(143)))
        inputs, targets = prepared.gather("test")
        assert inputs.shape == (0, 132) and targets.shape == (0, 12)
        assert prepared.train_seq_ids.shape == prepared.test_offsets.shape == (0,)


@pytest.mark.parametrize("step", [1, 7, 144, 200])
def test_cuts_from_transformed_readings_are_the_transformed_windows(small_store, step):
    """The LSTM's scaling and the HMM's encoding are elementwise, so cutting
    from the transformed readings gives the transformed windows, bit for bit."""
    fold = kfold_split(small_store, k=5, seed=7)[1]
    prepared = prepare(small_store, fold, train_step=step, test_step=step)
    quantizer = Quantizer.from_values(prepared.windows("train"), 100)
    for side in ("train", "test"):
        windows = prepared.windows(side)
        n = len(windows)
        assert n > 0
        for f in (Scaler().scale, quantizer.encode):
            values = f(prepared.readings)
            cut = prepared.windows(side, values=values)
            assert cut.dtype == f(windows).dtype and cut.tobytes() == f(windows).tobytes()
            for rows in ([], [n - 1, 0, n // 2, n - 1, 0]):
                inputs, targets = prepared.gather(side, rows, values)
                expected = f(windows[np.array(rows, dtype=np.int64)])
                assert inputs.shape == (len(rows), 132) and targets.shape == (len(rows), 12)
                assert inputs.tobytes() == expected[:, :132].tobytes()
                assert targets.tobytes() == expected[:, 132:].tobytes()


@pytest.mark.parametrize("step", [1, 7, 144, 200])
def test_each_property_cuts_only_its_own_columns(small_store, step):
    """A property equals its half of ``gather``, is row-major, and never holds
    the whole window: for the 12 target columns that would be 12 times the result."""
    fold = kfold_split(small_store, k=5, seed=7)[1]
    prepared = prepare(small_store, fold, train_step=step, test_step=step)
    for side in ("train", "test"):
        halves = dict(zip(("inputs", "targets"), prepared.gather(side)))
        for name, expected in halves.items():
            tracemalloc.start()
            try:
                actual = getattr(prepared, f"{side}_{name}")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert actual.flags.c_contiguous and actual.base is None
            assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()
            assert peak < 2 * actual.nbytes + 10_000, f"{side}_{name} peak {peak} B"


def test_prepare_and_save_build_no_window_matrix(tmp_path):
    # About 35k readings at step 1: the windows would take over 15 MB.
    store = segment(synth_corpus(14, 10, seed=5))
    fold = kfold_split(store, k=2, seed=5)[0]
    tracemalloc.start()
    try:
        prepared = prepare(store, fold, train_step=1, test_step=1)
        save_prepared(prepared, tmp_path / "fold.gprep")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    window_bytes = 8 * 144 * (prepared.n_train + prepared.n_test)
    assert store.starts[-1] > 30_000 and window_bytes > 15e6
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"
