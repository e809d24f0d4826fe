import numpy as np
import pytest

from glyco.core import GlucoseReading
from glyco.errors import DataError, FormatError
from glyco.ingest import (
    Corpus,
    corpus_stats,
    daily_profile,
    parse_cgm_csv,
    parse_patient_csv,
    sequence_length_histogram,
    synth_corpus,
    write_cgm_csv,
    write_patient_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCgm:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\np1,1300,190.0\np1,1000,180.0\n")
        readings, report = parse_cgm_csv(path)
        assert [r.timestamp for r in readings] == [1000, 1300]
        assert report.kept == 2 and not report.rejected

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\n")
        readings, report = parse_cgm_csv(path)
        assert readings == [] and report.total_rows == 0

    def test_malformed_row_reported(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,1300,abc\n",
        )
        readings, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
        assert report.kept == 1
        assert report.rejected == [(3, "non-numeric field in ['p1', '1300', 'abc']")]

    def test_infinite_timestamp_is_malformed(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,inf,190.0\n",
        )
        readings, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
        assert report.kept == 1
        assert [row for row, _ in report.rejected] == [3]

    def test_timestamp_beyond_int64_is_malformed(self, tmp_path):
        path = write(
            tmp_path,
            "a.csv",
            "patient_id,timestamp,glucose_mgdl\np1,1000,180.0\np1,1e30,190.0\n",
        )
        readings, report = parse_cgm_csv(path, max_malformed_fraction=0.9)
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
        readings, _ = parse_cgm_csv(path)
        assert len(readings) == 1

    def test_order_independent(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [f"p{i % 3},{1000 + 300 * i},{rng.uniform(60, 300):.2f}" for i in range(50)]
        a = write(tmp_path, "a.csv", "patient_id,timestamp,glucose_mgdl\n" + "\n".join(rows) + "\n")
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        b = write(tmp_path, "b.csv", "patient_id,timestamp,glucose_mgdl\n" + "\n".join(shuffled) + "\n")
        readings_a, _ = parse_cgm_csv(a)
        readings_b, _ = parse_cgm_csv(b)
        assert readings_a == readings_b

    def test_conflicting_duplicates_resolved_to_minimum(self, tmp_path):
        text = "patient_id,timestamp,glucose_mgdl\np1,1000,200.0\np1,1000,180.0\n"
        readings, report = parse_cgm_csv(write(tmp_path, "a.csv", text), max_malformed_fraction=1.0)
        assert len(readings) == 1 and readings[0].value == 180.0
        assert report.conflicts == 1

    def test_round_trip_with_writer(self, tmp_path, small_corpus):
        path = tmp_path / "rt.csv"
        write_cgm_csv(small_corpus.readings[:500], path)
        readings, report = parse_cgm_csv(path)
        assert tuple(readings) == small_corpus.readings[:500]
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
            Corpus(tuple(GlucoseReading(pid, ts, 100.0) for pid, ts in rows))

    def test_patient_order_is_string_order(self):
        rows = [("p10", 5000), ("p9", 1000)]  # "p10" < "p9" as strings
        corpus = Corpus(tuple(GlucoseReading(pid, ts, 100.0) for pid, ts in rows))
        assert corpus.patient_ids.tolist() == ["p10", "p9"]

    def test_timestamp_beyond_int64_is_data_error(self):
        with pytest.raises(DataError):
            Corpus((GlucoseReading("p1", 2**63, 100.0),))


class TestCorpusStats:
    def test_constant_series(self):
        readings = tuple(GlucoseReading("p1", 1000 + 300 * i, 100.0) for i in range(3))
        stats = corpus_stats(Corpus(readings))
        assert stats["mean_mgdl"] == 100.0 and stats["sd_mgdl"] == 0.0

    def test_population_sd(self):
        readings = (GlucoseReading("p1", 1000, 90.0), GlucoseReading("p1", 1300, 110.0))
        stats = corpus_stats(Corpus(readings))
        assert stats["mean_mgdl"] == 100.0
        assert stats["sd_mgdl"] == 10.0  # divide by N, not N-1

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            corpus_stats(Corpus((GlucoseReading("p1", 1000, 90.0),)))


class TestDailyProfile:
    def test_single_reading(self):
        # 00:02 falls in slot 0
        corpus = Corpus((GlucoseReading("p1", 86400 + 120, 150.0),))
        profile = daily_profile(corpus)
        assert profile.count[0] == 1 and profile.mean[0] == 150.0
        assert sum(profile.count) == 1
        assert profile.mean[1] is None

    def test_same_slot_across_days(self):
        slot_ts = 7 * 3600 + 5 * 60  # 07:05 -> slot 85
        readings = (
            GlucoseReading("p1", 86400 + slot_ts, 190.0),
            GlucoseReading("p1", 2 * 86400 + slot_ts, 194.0),
        )
        profile = daily_profile(Corpus(readings))
        assert profile.mean[85] == 192.0
        assert profile.count[85] == 2

    def test_counts_sum_to_readings(self, small_corpus):
        profile = daily_profile(small_corpus)
        assert sum(profile.count) == len(small_corpus.readings)

    def test_identical_to_bucket_loop(self):
        # the per-reading bucket loop the column version replaced
        corpus = synth_corpus(16, 12, seed=1001)
        buckets = [[] for _ in range(288)]
        for r in corpus.readings:
            buckets[(r.timestamp % 86400) // 300].append(r.value)
        profile = daily_profile(corpus)
        for slot, bucket in enumerate(buckets):
            arr = np.array(bucket)
            assert profile.count[slot] == len(bucket)
            assert profile.mean[slot] == (float(arr.mean()) if bucket else None)
            assert profile.sd[slot] == (float(arr.std()) if bucket else None)


class TestLengthHistogram:
    def test_direct_count(self):
        hist = sequence_length_histogram([10, 150, 150])
        assert hist.counts == {10: 1, 150: 2}
        assert hist.eligible_count == 2
        assert hist.eligible_fraction == pytest.approx(2 / 3)

    def test_empty(self):
        hist = sequence_length_histogram([])
        assert hist.counts == {} and hist.eligible_fraction == 0.0


class TestSynthCorpus:
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
