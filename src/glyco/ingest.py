"""CSV ingestion, descriptive CGM statistics, and the synthetic test corpus.

The raw input format is CSV with header ``patient_id,timestamp,glucose_mgdl``
(patients: ``patient_id,age,weight_kg,height_cm,hba1c,hba1c_unit,
annual_income_usd,education_level,sex``). Empty cells are missing values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import GLUCOSE_MAX_MGDL, GLUCOSE_MIN_MGDL, GlucoseReading, PatientRecord
from .errors import DataError, FormatError

CGM_HEADER = ["patient_id", "timestamp", "glucose_mgdl"]
PATIENT_HEADER = [
    "patient_id",
    "age",
    "weight_kg",
    "height_cm",
    "hba1c",
    "hba1c_unit",
    "annual_income_usd",
    "education_level",
    "sex",
]

SLOTS_PER_DAY = 86400 // 300  # 288 five-minute slots


@dataclass(frozen=True)
class Corpus:
    """All readings sorted by (patient_id, timestamp), plus patient records.

    Construction builds the read-only columns the data path uses: one
    ``patient_ids`` str per reading (an object array), int64 ``timestamps``
    and float64 ``values``.
    """

    readings: tuple[GlucoseReading, ...]
    patients: tuple[PatientRecord, ...] = ()
    patient_ids: np.ndarray = field(init=False, repr=False, compare=False)
    timestamps: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.readings)
        try:
            stamps = np.fromiter((r.timestamp for r in self.readings), np.int64, n)
        except OverflowError as exc:
            raise DataError(f"corpus timestamp outside the int64 range: {exc}") from exc
        pids = np.array([r.patient_id for r in self.readings], dtype=object)
        values = np.fromiter((r.value for r in self.readings), float, n)
        for name, column in (("patient_ids", pids), ("timestamps", stamps), ("values", values)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        increasing = np.where(pids[1:] == pids[:-1], np.diff(stamps) > 0, pids[1:] > pids[:-1])
        if not increasing.all():
            raise DataError(
                "corpus readings must be strictly increasing in (patient_id, timestamp)"
            )

    def __len__(self) -> int:
        return len(self.readings)


@dataclass
class ParseReport:
    """Outcome of one CSV parse: kept rows plus every rejection, by row number."""

    path: str
    total_rows: int = 0
    kept: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)
    duplicates: int = 0
    conflicts: int = 0

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "total_rows": self.total_rows,
            "kept": self.kept,
            "rejected_count": len(self.rejected),
            "rejected_rows": [{"row": n, "reason": r} for n, r in self.rejected],
            "duplicates": self.duplicates,
            "conflicts": self.conflicts,
        }


def _open_rows(path: str | Path, expected_header: list[str]):
    p = Path(path)
    if not p.exists():
        raise DataError(f"input file not found: {p}")
    handle = p.open("r", encoding="utf-8", newline="")
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        handle.close()
        raise FormatError(f"{p}: empty file, expected header {','.join(expected_header)}")
    if [h.strip() for h in header] != expected_header:
        handle.close()
        raise FormatError(
            f"{p}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
        )
    return handle, reader


def parse_cgm_csv(
    path: str | Path, max_malformed_fraction: float = 0.01
) -> tuple[list[GlucoseReading], ParseReport]:
    """Parse a CGM CSV into sorted, deduplicated readings.

    Malformed rows are counted per row number. If more than
    ``max_malformed_fraction`` of the data rows are malformed the whole parse
    fails. Exact duplicate rows collapse to one; conflicting values for the
    same (patient, timestamp) keep the smallest value so the result does not
    depend on row order.
    """
    handle, reader = _open_rows(path, CGM_HEADER)
    report = ParseReport(path=str(path))
    by_key: dict[tuple[str, int], float] = {}
    with handle:
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            report.total_rows += 1
            if len(row) != 3:
                report.rejected.append((row_number, f"expected 3 fields, got {len(row)}"))
                continue
            pid = row[0].strip()
            if not pid:
                report.rejected.append((row_number, "empty patient_id"))
                continue
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
    readings = [
        GlucoseReading(pid, ts, value)
        for (pid, ts), value in sorted(by_key.items())
    ]
    report.kept = len(readings)
    return readings, report


def _opt_float(cell: str) -> float | None:
    cell = cell.strip()
    return float(cell) if cell else None


def parse_patient_csv(path: str | Path) -> tuple[list[PatientRecord], ParseReport]:
    """Parse the patient CSV; empty cells become missing (None) fields."""
    handle, reader = _open_rows(path, PATIENT_HEADER)
    report = ParseReport(path=str(path))
    records: dict[str, PatientRecord] = {}
    with handle:
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            report.total_rows += 1
            if len(row) != len(PATIENT_HEADER):
                report.rejected.append(
                    (row_number, f"expected {len(PATIENT_HEADER)} fields, got {len(row)}")
                )
                continue
            pid = row[0].strip()
            if not pid:
                report.rejected.append((row_number, "empty patient_id"))
                continue
            if pid in records:
                report.duplicates += 1
                continue
            try:
                education = row[7].strip()
                records[pid] = PatientRecord(
                    patient_id=pid,
                    age=_opt_float(row[1]),
                    weight_kg=_opt_float(row[2]),
                    height_cm=_opt_float(row[3]),
                    hba1c=_opt_float(row[4]),
                    hba1c_unit=row[5].strip() or None,
                    annual_income_usd=_opt_float(row[6]),
                    education_level=int(education) if education else None,
                    sex=row[8].strip().lower() or None,
                )
            except ValueError:
                report.rejected.append((row_number, f"non-numeric field in {row!r}"))
                continue
    report.kept = len(records)
    return [records[p] for p in sorted(records)], report


def write_cgm_csv(readings: list[GlucoseReading] | tuple[GlucoseReading, ...], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CGM_HEADER)
        for r in readings:
            writer.writerow([r.patient_id, r.timestamp, repr(r.value)])


def write_patient_csv(patients, path: str | Path) -> None:
    def cell(v):
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PATIENT_HEADER)
        for p in patients:
            writer.writerow(
                [
                    p.patient_id,
                    cell(p.age),
                    cell(p.weight_kg),
                    cell(p.height_cm),
                    cell(p.hba1c),
                    p.hba1c_unit or "",
                    cell(p.annual_income_usd),
                    cell(p.education_level),
                    p.sex or "",
                ]
            )


def corpus_stats(corpus: Corpus) -> dict:
    """Mean, population s.d., min, max, and count of all readings."""
    values = corpus.values
    if values.size < 2:
        raise DataError(f"corpus statistics need at least 2 readings, got {values.size}")
    return {
        "mean_mgdl": float(values.mean()),
        "sd_mgdl": float(values.std()),  # population (divide by N)
        "min_mgdl": float(values.min()),
        "max_mgdl": float(values.max()),
        "count": int(values.size),
    }


@dataclass(frozen=True)
class DailyProfile:
    """Per five-minute-slot mean/s.d./count over all days, 288 slots."""

    mean: tuple[float | None, ...]
    sd: tuple[float | None, ...]
    count: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("mean", "sd", "count"):
            if len(getattr(self, name)) != SLOTS_PER_DAY:
                raise DataError(f"daily profile {name} must have {SLOTS_PER_DAY} slots")

    def rows(self):
        """(slot, hh:mm label, mean, sd, count) tuples for CSV export."""
        for slot in range(SLOTS_PER_DAY):
            minutes = slot * 5
            label = f"{minutes // 60:02d}:{minutes % 60:02d}"
            yield slot, label, self.mean[slot], self.sd[slot], self.count[slot]


def daily_profile(corpus: Corpus) -> DailyProfile:
    """Group readings by five-minute slot of day; per-slot mean and population s.d."""
    slots = (corpus.timestamps % 86400) // 300
    by_slot = corpus.values[np.argsort(slots, kind="stable")]
    counts = np.bincount(slots, minlength=SLOTS_PER_DAY).tolist()
    means: list[float | None] = []
    sds: list[float | None] = []
    lo = 0
    for count in counts:
        bucket = by_slot[lo : lo + count]
        lo += count
        means.append(float(bucket.mean()) if count else None)
        sds.append(float(bucket.std()) if count else None)
    return DailyProfile(tuple(means), tuple(sds), tuple(counts))


@dataclass(frozen=True)
class LengthHistogram:
    """Exact sequence-length counts plus the share long enough to window."""

    counts: dict[int, int]
    threshold: int
    eligible_count: int
    total: int

    @property
    def eligible_fraction(self) -> float:
        return self.eligible_count / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "lengths": {str(k): v for k, v in sorted(self.counts.items())},
            "total_sequences": self.total,
            "threshold": self.threshold,
            "eligible_count": self.eligible_count,
            "eligible_fraction": self.eligible_fraction,
        }


def sequence_length_histogram(lengths, threshold: int = 144) -> LengthHistogram:
    """Histogram of sequence lengths, e.g. ``SequenceStore.lengths``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    sizes, counts = np.unique(lengths, return_counts=True)
    eligible = int(np.count_nonzero(lengths >= threshold))
    counts_by_length = dict(zip(sizes.tolist(), counts.tolist()))
    return LengthHistogram(counts_by_length, threshold, eligible, len(lengths))


# Synthetic corpus generator. A test fixture calibrated to the real corpus
# summary statistics (marginal mean ~204.56 mg/dL, s.d. ~87, daily trough
# near 07:05 and peak near 21:40), not a physiological simulator.

_BASELINE_MGDL = 204.56
# Two-harmonic daily curve with stationary points at 07:05 (-12.95) and
# 21:40 (+13.52); coefficients solve the 4x4 linear system for those extrema.
_DAILY_COEF = (7.41323724, -9.81300952, 2.4010812, -1.06173271)
# Mean-reversion strong enough that a trained forecaster has measurable
# headroom over naive persistence at the 12-step horizon.
_AR1_PHI = 0.93
_AR1_MARGINAL_SD = 72.0
_MEALS_PER_DAY = 3
_MEAL_AMPLITUDE = (40.0, 100.0)
_CLIP_LO = 40.0
_CLIP_HI = 600.0
_GAP_RATE = 0.004  # per-reading chance that a dropout gap starts


def _daily_curve(hours: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi / 24.0
    a1, b1, a2, b2 = _DAILY_COEF
    return (
        a1 * np.cos(w * hours)
        + b1 * np.sin(w * hours)
        + a2 * np.cos(2 * w * hours)
        + b2 * np.sin(2 * w * hours)
    )


def _synth_patient(rng: np.random.Generator, patient_id: str, days: int, start_ts: int):
    n = days * SLOTS_PER_DAY
    t = np.arange(n)
    hours = ((start_ts + t * 300) % 86400) / 3600.0

    signal = _BASELINE_MGDL + _daily_curve(hours)

    # Meal excursions: sharp rise then exponential decay over ~2 hours.
    bumps = np.zeros(n)
    decay = np.exp(-np.arange(36) / 12.0)
    for day in range(days):
        for _ in range(_MEALS_PER_DAY):
            onset = day * SLOTS_PER_DAY + int(rng.integers(0, SLOTS_PER_DAY))
            amplitude = rng.uniform(*_MEAL_AMPLITUDE)
            tail = min(36, n - onset)
            if tail > 0:
                bumps[onset : onset + tail] += amplitude * decay[:tail]

    # AR(1) noise with the stationary marginal s.d., started at equilibrium.
    innovation_sd = _AR1_MARGINAL_SD * math.sqrt(1.0 - _AR1_PHI**2)
    noise = np.empty(n)
    noise[0] = rng.normal(0.0, _AR1_MARGINAL_SD)
    shocks = rng.normal(0.0, innovation_sd, size=n - 1)
    for i in range(1, n):
        noise[i] = _AR1_PHI * noise[i - 1] + shocks[i - 1]

    values = np.clip(signal + bumps + noise, _CLIP_LO, _CLIP_HI)

    # Dropout gaps with heavy-tailed lengths (lognormal steps).
    readings = []
    i = 0
    while i < n:
        if rng.random() < _GAP_RATE:
            gap = max(4, int(rng.lognormal(mean=3.0, sigma=1.2)))
            i += gap
            continue
        readings.append(GlucoseReading(patient_id, start_ts + int(t[i]) * 300, float(values[i])))
        i += 1
    return readings


def _synth_patient_record(rng: np.random.Generator, patient_id: str) -> PatientRecord:
    sex = "f" if rng.random() < 0.5 else "m"
    height = rng.normal(163.0 if sex == "f" else 175.0, 7.0)
    weight = max(40.0, rng.normal(68.0 if sex == "f" else 80.0, 14.0))
    return PatientRecord(
        patient_id=patient_id,
        age=float(int(rng.integers(14, 25))),
        weight_kg=round(weight, 1),
        height_cm=round(height, 1),
        hba1c=round(float(rng.normal(8.6, 1.2)), 2),
        hba1c_unit="percent",
        annual_income_usd=round(float(rng.lognormal(mean=10.7, sigma=0.85)), 2),
        education_level=int(rng.integers(0, 6)),
        sex=sex,
    )


def synth_corpus(n_patients: int, days: int, seed: int) -> Corpus:
    """Deterministic synthetic desk-scale corpus.

    Per patient: baseline + daily curve + meal bumps + AR(1) noise on a
    5-minute grid, clipped to [40, 600] mg/dL, with random dropout gaps so
    sequence lengths are heavy-tailed. A pure function of its arguments.
    """
    if n_patients < 1 or days < 1:
        raise DataError("synth_corpus needs n_patients >= 1 and days >= 1")
    readings: list[GlucoseReading] = []
    patients: list[PatientRecord] = []
    start_ts = 1_600_000_000 - (1_600_000_000 % 86400)  # midnight-aligned epoch
    for p in range(n_patients):
        patient_id = f"synth{p:03d}"
        rng = np.random.default_rng([seed, p])
        patients.append(_synth_patient_record(rng, patient_id))
        readings.extend(_synth_patient(rng, patient_id, days, start_ts))
    readings.sort(key=lambda r: (r.patient_id, r.timestamp))
    return Corpus(tuple(readings), tuple(patients))
