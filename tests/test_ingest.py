import csv
import io
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from conftest import ANOMALIES, corpus_of, mix_anomalies, mutate
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glyco import ingest
from glyco.core import GLUCOSE_MAX_MGDL, GLUCOSE_MIN_MGDL, GlucoseReading
from glyco.errors import DataError, FormatError, GlycoError
from glyco.ingest import (
    PATIENT_HEADER,
    Corpus,
    corpus_stats,
    daily_profile,
    parse_cgm_csv,
    parse_patient_csv,
    read_cohorts,
    sequence_length_histogram,
    synth_corpus,
    write_cgm_csv,
    write_patient_csv,
)
from glyco.pipeline import segment
from glyco.workflows import load_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCgm:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\np1,1300,190.0\np1,1000,180.0\n")
        corpus, report = parse_cgm_csv(path)
        assert corpus.timestamps.tolist() == [1000, 1300]
        assert report.kept == 2 and not report.rejected

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\n")
        corpus, report = parse_cgm_csv(path)
        assert len(corpus) == 0 and report.total_rows == 0

    def test_malformed_row_reported(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,1300,abc\n",
        )
        corpus, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
        assert report.kept == 1
        assert report.rejected == [(3, "non-numeric field in ['p1', '1300', 'abc']")]

    def test_infinite_timestamp_is_malformed(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,inf,190.0\n",
        )
        corpus, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
        assert report.kept == 1
        assert [row for row, _ in report.rejected] == [3]

    def test_timestamp_beyond_int64_is_malformed(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,1e30,190.0\n",
        )
        corpus, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
        assert report.kept == 1
        assert [row for row, _ in report.rejected] == [3]

    def test_malformed_fraction_hard_error(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,1300,abc\n",
        )
        with pytest.raises(DataError, match="rows 3"):
            parse_cgm_csv(path)  # 50% malformed exceeds the default 1%

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "pid,ts,val\n")
        with pytest.raises(FormatError):
            parse_cgm_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_cgm_csv(tmp_path / "missing.csv")

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\r\np1,1000,180.0\r\n")
        corpus, _ = parse_cgm_csv(path)
        assert len(corpus) == 1

    def test_order_independent(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [f"p{i % 3},{1000 + 300 * i},{rng.uniform(60, 300):.2f}" for i in range(50)]
        a = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\n" + "\n".join(rows) + "\n")
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        b = write(tmp_path, "b.csv", "patient_id,timestamp,glucose_mgdl\n" + "\n".join(shuffled) + "\n")
        corpus_a, _ = parse_cgm_csv(a)
        corpus_b, _ = parse_cgm_csv(b)
        assert corpus_a.readings == corpus_b.readings

    def test_conflicting_duplicates_resolved_to_minimum(self, tmp_path):
        text = "patient_id,timestamp,glucose_mgdl\np1,1000,200.0\np1,1000,180.0\n"
        corpus, report = parse_cgm_csv(write(tmp_path, "a.csv", text), max_malformed_fraction=1.0)
        assert corpus.values.tolist() == [180.0]
        assert report.conflicts == 1

    def test_round_trip_with_writer(self, tmp_path, small_corpus):
        path = tmp_path / "rt.csv"
        write_cgm_csv(small_corpus.readings[:500], path)
        corpus, report = parse_cgm_csv(path)
        assert corpus.readings == small_corpus.readings[:500]
        assert not report.rejected


class TestParsePatients:
    def test_missing_cells(self, tmp_path):
        text = (
            "patient_id,age,weight_kg,height_cm,hba1c,hba1c_unit,annual_income_usd,education_level,sex\n"
            "p1,17,70.5,169,8.6,percent,64869,4,f\n"
            "p2,,,,9.1,percent,,,\n"
        )
        patients, report = parse_patient_csv(write(tmp_path, "p.csv", text))
        assert report.kept == 2
        p2 = [p for p in patients if p.patient_id == "p2"][0]
        assert p2.age is None and p2.hba1c == 9.1 and p2.sex is None
        p1 = [p for p in patients if p.patient_id == "p1"][0]
        assert p1.bmi == pytest.approx(70.5 / 1.69**2)

    def test_writer_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "p.csv"
        write_patient_csv(small_corpus.patients, path)
        patients, _ = parse_patient_csv(path)
        assert tuple(patients) == small_corpus.patients


class TestReadCohorts:
    def test_a_patient_with_two_labels_is_refused(self, tmp_path):
        text = "patient_id,cohort\nsynth000,a\nsynth001,b\nsynth000,b\n"
        with pytest.raises(DataError, match="'synth000'.*'a' on row 2.*'b' on row 4"):
            read_cohorts(write(tmp_path, "c.csv", text))

    def test_an_identical_repeat_is_kept_once(self, tmp_path):
        text = "patient_id,cohort\nsynth000,a\nsynth001,b\nsynth000, a\n"
        assert read_cohorts(write(tmp_path, "c.csv", text)) == {"synth000": "a", "synth001": "b"}


class TestCorpus:
    def test_columns_follow_readings(self, small_corpus):
        readings = small_corpus.readings
        assert len(small_corpus) == len(readings)
        assert small_corpus.patient_ids.tolist() == [r.patient_id for r in readings]
        assert small_corpus.timestamps.tolist() == [r.timestamp for r in readings]
        assert small_corpus.values.tolist() == [r.value for r in readings]
        assert small_corpus.timestamps.dtype == np.int64
        assert not small_corpus.values.flags.writeable

    @pytest.mark.parametrize(
        "rows",
        [
            [("p1", 1300), ("p1", 1000)],  # timestamps out of order
            [("p1", 1000), ("p1", 1000)],  # duplicate (patient_id, timestamp)
            [("p2", 1000), ("p1", 1300)],  # patients out of order
            [("p1", 1000), ("p2", 1000), ("p1", 1300)],  # a patient split in two
        ],
    )
    def test_order_enforced(self, rows):
        with pytest.raises(DataError):
            corpus_of(tuple(GlucoseReading(pid, ts, 100.0) for pid, ts in rows))

    def test_patient_order_is_string_order(self):
        rows = [("p10", 5000), ("p9", 1000)]  # "p10" < "p9" as strings
        corpus = corpus_of(tuple(GlucoseReading(pid, ts, 100.0) for pid, ts in rows))
        assert corpus.patient_ids.tolist() == ["p10", "p9"]

    def test_timestamp_beyond_int64_is_data_error(self):
        with pytest.raises(DataError):
            corpus_of((GlucoseReading("p1", 2**63, 100.0),))


class TestCorpusStats:
    def test_constant_series(self):
        readings = tuple(GlucoseReading("p1", 1000 + 300 * i, 100.0) for i in range(3))
        stats = corpus_stats(corpus_of(readings))
        assert stats["mean_mgdl"] == 100.0 and stats["sd_mgdl"] == 0.0

    def test_population_sd(self):
        readings = (GlucoseReading("p1", 1000, 90.0), GlucoseReading("p1", 1300, 110.0))
        stats = corpus_stats(corpus_of(readings))
        assert stats["mean_mgdl"] == 100.0
        assert stats["sd_mgdl"] == 10.0  # divide by N, not N-1

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            corpus_stats(corpus_of((GlucoseReading("p1", 1000, 90.0),)))


class TestDailyProfile:
    def test_single_reading(self):
        # 00:02 falls in slot 0
        corpus = corpus_of((GlucoseReading("p1", 86400 + 120, 150.0),))
        profile = daily_profile(corpus)
        assert len(profile) == 288
        assert profile[0] == (150.0, 0.0, 1)
        assert sum(count for _, _, count in profile) == 1
        assert profile[1] == (None, None, 0)

    def test_same_slot_across_days(self):
        slot_ts = 7 * 3600 + 5 * 60  # 07:05 -> slot 85
        readings = (
            GlucoseReading("p1", 86400 + slot_ts, 190.0),
            GlucoseReading("p1", 2 * 86400 + slot_ts, 194.0),
        )
        mean, _, count = daily_profile(corpus_of(readings))[85]
        assert mean == 192.0
        assert count == 2

    def test_counts_sum_to_readings(self, small_corpus):
        profile = daily_profile(small_corpus)
        assert sum(count for _, _, count in profile) == len(small_corpus.readings)

    def test_identical_to_bucket_loop(self):
        # the per-reading bucket loop the column version replaced
        corpus = synth_corpus(16, 12, seed=1001)
        buckets = [[] for _ in range(288)]
        for r in corpus.readings:
            buckets[(r.timestamp % 86400) // 300].append(r.value)
        profile = daily_profile(corpus)
        for (mean, sd, count), bucket in zip(profile, buckets, strict=True):
            arr = np.array(bucket)
            assert count == len(bucket)
            assert mean == (float(arr.mean()) if bucket else None)
            assert sd == (float(arr.std()) if bucket else None)


class TestLengthHistogram:
    def test_direct_count(self):
        hist = sequence_length_histogram([10, 150, 150])
        assert hist["lengths"] == {"10": 1, "150": 2}
        assert (hist["total_sequences"], hist["threshold"]) == (3, 144)
        assert hist["eligible_count"] == 2
        assert hist["eligible_fraction"] == pytest.approx(2 / 3)

    def test_empty(self):
        hist = sequence_length_histogram([])
        assert hist["lengths"] == {} and hist["eligible_fraction"] == 0.0


def draw_loop_patient(rng, days, start_ts):
    """``ingest._synth_patient`` with its AR(1) noise computed one step at a
    time into a float64 array: the oracle for its ``itertools.accumulate`` form."""
    n = days * ingest.SLOTS_PER_DAY
    t = np.arange(n)
    hours = ((start_ts + t * 300) % 86400) / 3600.0
    signal = ingest._BASELINE_MGDL + ingest._daily_curve(hours)
    bumps = np.zeros(n)
    decay = np.exp(-np.arange(36) / 12.0)
    for day in range(days):
        for _ in range(ingest._MEALS_PER_DAY):
            onset = day * ingest.SLOTS_PER_DAY + int(rng.integers(0, ingest.SLOTS_PER_DAY))
            amplitude = rng.uniform(*ingest._MEAL_AMPLITUDE)
            tail = min(36, n - onset)
            if tail > 0:
                bumps[onset : onset + tail] += amplitude * decay[:tail]
    innovation_sd = ingest._AR1_MARGINAL_SD * math.sqrt(1.0 - ingest._AR1_PHI**2)
    noise = np.empty(n)
    noise[0] = rng.normal(0.0, ingest._AR1_MARGINAL_SD)
    shocks = rng.normal(0.0, innovation_sd, size=n - 1)
    for i in range(1, n):
        noise[i] = ingest._AR1_PHI * noise[i - 1] + shocks[i - 1]
    values = np.clip(signal + bumps + noise, ingest._CLIP_LO, ingest._CLIP_HI)
    kept = []
    i = 0
    while i < n:
        if rng.random() < ingest._GAP_RATE:
            i += max(4, int(rng.lognormal(mean=3.0, sigma=1.2)))
            continue
        kept.append(i)
        i += 1
    return start_ts + t[kept] * 300, values[kept]


class TestSynthCorpus:
    @pytest.mark.parametrize(
        "n_patients,days,seed", [(16, 12, 1001), (20, 30, 1), (8, 10, 7), (1, 1, 7), (150, 2, 3)]
    )
    def test_identical_to_the_draw_loop(self, n_patients, days, seed):
        corpus = synth_corpus(n_patients, days, seed)
        with patch.object(ingest, "_synth_patient", draw_loop_patient):
            oracle = synth_corpus(n_patients, days, seed)
        assert corpus.patients == oracle.patients
        for name in ("patient_ids", "timestamps", "values"):
            got, want = getattr(corpus, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert corpus.values.tobytes() == oracle.values.tobytes()

    def test_deterministic(self):
        a = synth_corpus(1, 1, seed=7)
        b = synth_corpus(1, 1, seed=7)
        assert a.readings == b.readings
        assert a.patients == b.patients

    def test_calibration(self):
        # generator contract: the tolerances here describe the fixture,
        # not any real-corpus claim
        corpus = synth_corpus(20, 30, seed=1)
        stats = corpus_stats(corpus)
        assert abs(stats["mean_mgdl"] - 204.56) < 25
        assert abs(stats["sd_mgdl"] - 87.0) < 30

    def test_clipping(self):
        values = synth_corpus(1, 1, seed=1).values
        assert values.min() >= 40.0 and values.max() <= 600.0

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            synth_corpus(0, 1, seed=1)

    def test_heavy_tailed_lengths(self, small_store):
        lengths = sorted(small_store.lengths.tolist())
        assert lengths[0] < 144 <= lengths[-1]  # mix of short and windowable runs


# -- columnar ingest: the parser against the row-loop oracle, writer, failures -

HEADER = "patient_id,timestamp,glucose_mgdl\n"


def parse_cgm_rows(path, max_malformed_fraction):
    """The reference parse: csv.reader row by row, with a dict of every
    (patient, timestamp) key. Every rejection and count is exact, by
    construction; ``parse_cgm_csv`` must give the same corpus, report and
    errors."""
    report = ingest.ParseReport(path=str(path))
    by_key: dict[tuple[str, int], float] = {}
    for row_number, row, pid in ingest._data_rows(path, ingest.CGM_HEADER, report):
        try:
            ts = int(float(row[1]))
            value = float(row[2])
        except (ValueError, OverflowError):  # int(inf) overflows
            report.rejected.append((row_number, f"non-numeric field in {row!r}"))
            continue
        if ts <= 0:
            report.rejected.append((row_number, f"non-positive timestamp {ts}"))
            continue
        if ts >= 2**63:
            report.rejected.append((row_number, f"timestamp {ts} beyond the int64 range"))
            continue
        if not math.isfinite(value) or not (GLUCOSE_MIN_MGDL < value <= GLUCOSE_MAX_MGDL):
            report.rejected.append((row_number, f"glucose {value!r} out of range"))
            continue
        key = (pid, ts)
        if key in by_key:
            if by_key[key] == value:
                report.duplicates += 1
            else:
                report.conflicts += 1
                by_key[key] = min(by_key[key], value)
        else:
            by_key[key] = value
    if report.total_rows and len(report.rejected) > max_malformed_fraction * report.total_rows:
        rows = ", ".join(str(n) for n, _ in report.rejected[:20])
        raise DataError(
            f"{path}: {len(report.rejected)} of {report.total_rows} rows malformed "
            f"(limit {max_malformed_fraction:.2%}); rows {rows}"
        )
    keys = sorted(by_key)
    names: dict[str, str] = {}  # one str object per patient, shared by its readings
    corpus = Corpus(
        [names.setdefault(pid, pid) for pid, _ in keys],
        [ts for _, ts in keys],
        list(map(by_key.__getitem__, keys)),
    )
    report.kept = len(corpus)
    return corpus, report


def parse_both(path, max_malformed_fraction=1.0):
    """parse_cgm_csv and the row-loop oracle on one file: (result or error) each."""
    results = []
    for parse in (parse_cgm_csv, parse_cgm_rows):
        try:
            results.append(parse(path, max_malformed_fraction))
        except GlycoError as exc:
            results.append((type(exc), str(exc)))
    return results


def assert_same_corpus(a, b):
    assert a.patient_ids.tolist() == b.patient_ids.tolist()
    for name in ("timestamps", "values"):
        column_a, column_b = getattr(a, name), getattr(b, name)
        assert column_a.dtype == column_b.dtype and column_a.tobytes() == column_b.tobytes()


def assert_same_parse(a, b):
    if not isinstance(a[0], Corpus) or not isinstance(b[0], Corpus):
        assert a == b
        return
    (corpus_a, report_a), (corpus_b, report_b) = a, b
    assert_same_corpus(corpus_a, corpus_b)
    assert report_a.to_dict() == report_b.to_dict()
    assert report_a.rejected == report_b.rejected


CLEAN_IDS = ["p1", "p2", "p10", "a b", "Zé"]
CLEAN_VALUES = ["5", "3", "100.5", "180.0", "1000", "0.25", "4e2", "1_0"]


@st.composite
def cgm_files(draw):
    clean_row = st.builds(
        "{},{},{}".format,
        st.sampled_from(CLEAN_IDS),
        st.one_of(st.integers(1, 12).map(str), st.sampled_from(["9.9", " 7 ", "3e0", "1_1"])),
        st.sampled_from(CLEAN_VALUES),
    )
    rows = draw(st.lists(clean_row, max_size=40))
    for anomaly in draw(st.lists(st.sampled_from(ANOMALIES), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), anomaly)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = HEADER.replace("\n", newline) + newline.join(rows)
    if rows and draw(st.booleans()):
        text += newline
    if draw(st.integers(0, 9)) == 0:
        text = "﻿" + text
    return text


@st.composite
def clean_cgm_files(draw):
    """Unique keys (exact as floats) in any order with well-formed fields."""
    keys = draw(st.sets(st.tuples(st.sampled_from(CLEAN_IDS), st.integers(1, 2**53)), max_size=60))
    rows = [f"{pid},{ts},{draw(st.sampled_from(CLEAN_VALUES))}" for pid, ts in keys]
    return HEADER + "\n".join(draw(st.permutations(rows)))


@settings(max_examples=550, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(cgm_files(), clean_cgm_files()), block=st.sampled_from([8, 16, 37, 1 << 18]))
def test_parse_equals_row_loop_oracle(tmp_path, text, block):
    """Blank and malformed rows, duplicates and conflicts in any order, CRLF,
    BOM, quotes and padded ids, and clean files of unique keys, in one read
    block or many: the parse equals the row-loop oracle's."""
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with patch.object(ingest, "_READ_BLOCK_CHARS", block):
        assert_same_parse(*parse_both(path))


@pytest.mark.parametrize("anomaly", ANOMALIES)
@pytest.mark.parametrize("at", [0, 2])
def test_each_anomaly_parses_as_the_row_loop(tmp_path, anomaly, at):
    rows = ["p1,1,5", "p2,1,7", "p1,2,9"]
    rows.insert(at, anomaly)
    path = write(tmp_path, "a.csv", HEADER + "\n".join(rows) + "\n")
    assert_same_parse(*parse_both(path))


@pytest.mark.parametrize("block", [1 << 12, 1 << 18])
def test_seeded_anomalies_parse_as_the_row_loop(tmp_path, block):
    """About 50k rows with 0.1% mixed anomalies (every kind in ANOMALIES,
    repeated and conflicting keys) spread over many blocks, with LF line ends
    and again with CRLF: the same corpus and report, every (row, message) included."""
    path = tmp_path / "mixed.csv"
    _clean_csv(path, 50_000, anomalies=0.001)
    for newline in (b"\n", b"\r\n"):
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        with patch.object(ingest, "_READ_BLOCK_CHARS", block):
            (corpus, report), oracle = parse_both(path)
        assert_same_parse((corpus, report), oracle)
        assert report.rejected and report.duplicates and report.conflicts


@pytest.mark.parametrize(
    "values, duplicates, conflicts",
    [(("5", "3", "5"), 0, 2), (("5", "5", "3"), 1, 1), (("5", "5", "5"), 2, 0)],
)
def test_repeated_key_counts_follow_row_order(tmp_path, values, duplicates, conflicts):
    rows = "".join(f"p1,1000,{v}\n" for v in values)
    corpus, report = parse_cgm_csv(write(tmp_path, "a.csv", HEADER + "p0,1,9\n" + rows))
    assert corpus.values.tolist() == [9.0, float(min(values, key=float))]
    assert (report.duplicates, report.conflicts, report.kept) == (duplicates, conflicts, 2)


def test_oversized_field_is_format_error(tmp_path):
    big = "1" * (csv.field_size_limit() + 1)
    clean = "".join(f"p1,{ts},5\n" for ts in (1, 2, 3))
    for text in (HEADER + f"p1,{big},5\n", HEADER + clean + f"p{big},2,5\n"):
        with pytest.raises(FormatError, match=r"a\.csv: line \d+: field larger"):
            parse_cgm_csv(write(tmp_path, "a.csv", text))


@pytest.mark.parametrize("line", [2, 5000])
def test_undecodable_text_is_format_error(tmp_path, line):
    path = tmp_path / "a.csv"
    rows = ["p1,%d,100.0" % (1000 + 300 * i) for i in range(line - 2)] + ["p\xff,1,100.0"]
    path.write_bytes((HEADER + "\n".join(rows) + "\n").encode("latin-1"))
    with pytest.raises(FormatError, match=f"line {line} is not UTF-8"):
        parse_cgm_csv(path)
    patients = tmp_path / "p.csv"
    patients.write_bytes(b"patient_id,age\xff\n")
    with pytest.raises(FormatError, match="line 1 is not UTF-8"):
        parse_patient_csv(patients)


def test_csv_reference_writer_bytes(tmp_path):
    """The column writer gives csv.writer's bytes, for a corpus and for readings."""
    ids = ["a,b", 'q"x', " lead", "x\ry", "plain", "ü"]
    readings = [GlucoseReading(pid, 1000 + i, 50.0 + i / 3) for pid in sorted(ids) for i in range(3)]
    reference = io.StringIO(newline="")
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(ingest.CGM_HEADER)
    for r in readings:
        writer.writerow([r.patient_id, r.timestamp, repr(r.value)])
    write_cgm_csv(corpus_of(readings), tmp_path / "c.csv")
    write_cgm_csv(readings, tmp_path / "r.csv")
    expected = reference.getvalue().encode()
    assert (tmp_path / "c.csv").read_bytes() == expected == (tmp_path / "r.csv").read_bytes()


def test_readings_view_is_cached_and_matches_columns(small_corpus):
    view = small_corpus.readings
    assert view is small_corpus.readings and isinstance(view, tuple)
    assert [r.value for r in view] == small_corpus.values.tolist()
    assert all(type(r.timestamp) is int for r in view[:10])


def test_corpus_rejects_out_of_range_columns():
    with pytest.raises(DataError, match="positive"):
        Corpus(["p1"], [0], [100.0])
    with pytest.raises(DataError, match="glucose"):
        Corpus(["p1"], [1], [float("nan")])
    with pytest.raises(DataError, match="one length"):
        Corpus(["p1", "p1"], [1], [100.0])


def _clean_csv(path, rows, patients=100, anomalies=0.0):
    """A CGM CSV of ``rows`` seeded readings, with ``mix_anomalies`` at the
    given rate; returns the clean row count."""
    per = rows // patients
    rng = np.random.default_rng(0)
    lines = []
    for p in range(patients):
        values = rng.uniform(40.0, 400.0, per).tolist()
        lines += [f"pat{p:04d},{1_600_000_000 + 300 * i},{v!r}" for i, v in enumerate(values)]
    path.write_text(HEADER + "\n".join(mix_anomalies(lines, anomalies, seed=1)) + "\n",
                    encoding="utf-8", newline="")
    return per * patients


def test_clean_parse_peak_memory_per_row(tmp_path):
    """The parse holds no object per reading: a tracemalloc peak under 160 B
    per row on a file of 200k rows, clean or with 0.1% mixed anomalies."""
    for name, anomalies in (("clean.csv", 0.0), ("mixed.csv", 0.001)):
        path = tmp_path / name
        rows = _clean_csv(path, 200_000, anomalies=anomalies)
        tracemalloc.start()
        try:
            corpus, report = parse_cgm_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == report.kept
        assert report.kept == rows if not anomalies else report.rejected and report.conflicts
        assert peak / rows < 160, f"{name}: {peak / rows:.0f} B per row"


def test_load_and_segment_build_no_reading_objects(tmp_path, monkeypatch, small_corpus):
    write_cgm_csv(small_corpus, tmp_path / "c.csv")
    write_patient_csv(small_corpus.patients, tmp_path / "p.csv")
    built = []
    monkeypatch.setattr(GlucoseReading, "__post_init__", lambda self: built.append(self))
    corpus = load_corpus(tmp_path / "c.csv", tmp_path / "p.csv")
    store = segment(corpus)
    assert store.starts[-1] == len(small_corpus) and not built
    assert corpus.patients == small_corpus.patients


class TestPatientNonFinite:
    @pytest.mark.parametrize(
        "cells",
        ["nan,70,170", "inf,70,170", "1e400,70,170", "17,inf,170", "17,70,inf", "17,1e300,1e-200",
         "17,70,1e200"],
    )
    def test_rejected_with_row_and_reason(self, tmp_path, cells):
        text = (
            ",".join(PATIENT_HEADER) + "\n"
            "p1,17,70.5,169,8.6,percent,64869,4,f\n"
            f"p2,{cells},9.1,percent,100,2,m\n"
        )
        patients, report = parse_patient_csv(write(tmp_path, "p.csv", text))
        assert [p.patient_id for p in patients] == ["p1"]
        assert [row for row, _ in report.rejected] == [3]
        assert report.rejected[0][1].startswith("non-finite field in ")

    def test_huge_education_level(self, tmp_path):
        text = ",".join(PATIENT_HEADER) + "\n" + "p1,17,70,170,8.6,percent,100," + "9" * 400 + ",f\n"
        patients, report = parse_patient_csv(write(tmp_path, "p.csv", text))
        assert patients == [] and [row for row, _ in report.rejected] == [2]


# -- fuzzing: only a GlycoError may escape -------------------------------------

@pytest.fixture(scope="module")
def fuzz_csvs(small_corpus, tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    write_cgm_csv(small_corpus.readings[:30], folder / "c.csv")
    write_patient_csv(small_corpus.patients, folder / "p.csv")
    return (folder / "c.csv").read_bytes(), (folder / "p.csv").read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_csv_parsers_fuzz_raise_only_glyco_errors(tmp_path, fuzz_csvs, data):
    """Mutated CGM and patient files parse, with rejections, or raise a GlycoError;
    a mutated CGM file parses as the row-loop oracle does, and a parsed patient
    file yields only finite numbers."""
    which = data.draw(st.sampled_from([0, 1]))
    path = tmp_path / "f.csv"
    path.write_bytes(mutate(data, fuzz_csvs[which]))
    if which == 0:
        assert_same_parse(*parse_both(path))
    try:
        if which == 0:
            corpus, _ = parse_cgm_csv(path, max_malformed_fraction=1.0)
            assert np.all(np.isfinite(corpus.values))
        else:
            patients, _ = parse_patient_csv(path)
            for p in patients:
                assert all(p.feature(n) is None or math.isfinite(p.feature(n))
                           for n in ingest.PATIENT_NUMERIC_FEATURES)
    except GlycoError:
        pass


# -- the corpus sidecar ----------------------------------------------------------

def write_with_sidecar(corpus, path):
    """The CGM CSV and its sidecar, as synth and ingest write them."""
    ingest.write_corpus_sidecar(corpus, write_cgm_csv(corpus, path), ingest.corpus_sidecar(path))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sidecar_corpus_equals_the_parse_of_its_csv(tmp_path, fuzz_csvs, data):
    """For every corpus the ingest fuzz inputs yield, the sidecar written beside
    the CSV of that corpus reads back as parse_cgm_csv reads the CSV."""
    if data.draw(st.booleans()):
        raw = data.draw(st.one_of(cgm_files(), clean_cgm_files())).encode()
    else:
        raw = mutate(data, fuzz_csvs[0])
    source, path = tmp_path / "in.csv", tmp_path / "corpus.csv"
    source.write_bytes(raw)
    try:
        corpus, _ = parse_cgm_csv(source, max_malformed_fraction=1.0)
    except GlycoError:
        return
    write_with_sidecar(corpus, path)
    kept = ingest._read_corpus_sidecar(path)
    assert kept is not None
    assert_same_corpus(kept, corpus)
    assert_same_corpus(kept, parse_cgm_csv(path)[0])


@pytest.mark.parametrize("stamp", [1, 2**32 - 1, 2**32, 2**53 + 1, 2**63 - 1])
def test_sidecar_keeps_timestamps_exactly(tmp_path, stamp):
    path = tmp_path / "c.csv"
    write_with_sidecar(Corpus(["p"], [stamp], [5.0]), path)
    assert ingest._read_corpus_sidecar(path).timestamps.tolist() == [stamp]


def test_sidecar_of_an_empty_corpus(tmp_path):
    path = write(tmp_path, "c.csv", HEADER)
    corpus, _ = parse_cgm_csv(path)
    write_with_sidecar(corpus, path)
    assert path.read_text(encoding="utf-8") == HEADER
    assert len(ingest._read_corpus_sidecar(path)) == 0


def test_load_reads_the_sidecar_only_while_it_matches(tmp_path, monkeypatch, small_corpus):
    path = tmp_path / "c.csv"
    write_with_sidecar(small_corpus, path)
    parses = []
    monkeypatch.setattr(ingest, "parse_cgm_csv", lambda p: parses.append(p) or (small_corpus, None))
    assert_same_corpus(ingest.load_cgm_corpus(path), small_corpus)
    assert parses == []
    with path.open("a", encoding="utf-8") as handle:  # the CSV changes; the sidecar goes stale
        handle.write("zz,1,5.0\n")
    ingest.load_cgm_corpus(path)
    ingest.corpus_sidecar(path).unlink()
    ingest.load_cgm_corpus(path)
    assert parses == [path, path]
