"""CSV ingestion, descriptive CGM statistics, and the synthetic test corpus.

The raw input format is CSV with header ``patient_id,timestamp,glucose_mgdl``
(patients: ``patient_id,age,weight_kg,height_cm,hba1c,hba1c_unit,
annual_income_usd,education_level,sex``). Empty cells are missing values.

A CGM file goes straight to the columns of a ``Corpus``, with no object per
reading, in one pass over blocks of lines. Lines without a quote, NUL or lone
CR (one that does not end a CRLF line end) are split at their commas;
``csv.reader`` reads the others, from the first in a block to the record that
ends the line of the last, on into the next block while a quoted field is
open. Each block is checked as vectors (three fields, an unpadded id,
in-range ``float`` fields); only the records that fail go through one row
checker, which records each rejection by row number. Repeated keys are
resolved after the ``lexsort``, in row order. Read failures raise
``FormatError``.

``write_cgm_csv`` returns the SHA-256 of the bytes it wrote, and the steps
that write a CGM CSV (``synth``, ``ingest``) keep the corpus beside it in
``<csv>.gcorpus``: a framed file (see ``core.write_framed``), magic
``GLYFCORP``, version 1. Its header holds ``csv_sha256`` (the CSV's bytes),
``patients`` (each patient id with its reading count, in corpus order) and
``sha256`` (the rest of the header as sorted-key JSON, then the payload);
the payload is the timestamps' high and low 32-bit halves, then the values.
``load_cgm_corpus`` reads the sidecar only when it is well-formed and both
hashes match, and parses the CSV otherwise, so a missing, stale or corrupt
sidecar is never an error and deleting one is always safe.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import re
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from pathlib import Path

import numpy as np

from .core import (
    GLUCOSE_MAX_MGDL, GLUCOSE_MIN_MGDL, PATIENT_NUMERIC_FEATURES, GlucoseReading, PatientRecord,
    atomic_write, is_int, read_framed, write_framed,
)
from .errors import DataError, FormatError, InvalidValueError

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

_READ_BLOCK_CHARS = 1 << 18  # CGM parse read size, about 9k rows
_WRITE_BLOCK_ROWS = 1 << 14
_HASH_BLOCK_BYTES = 1 << 20

CORPUS_MAGIC = b"GLYFCORP"
CORPUS_VERSION = 1


@dataclass(frozen=True, eq=False)
class Corpus:
    """All readings sorted by (patient_id, timestamp), as read-only columns,
    plus patient records.

    ``patient_ids`` holds one str per reading (an object array), ``timestamps``
    int64 epoch seconds and ``values`` float64 mg/dL. Construction checks that
    (patient_id, timestamp) strictly increases, that timestamps are positive
    and that values lie in the ingest glucose range. ``readings`` is a
    ``GlucoseReading`` view built on first access; the data path never needs it.
    """

    patient_ids: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray
    patients: tuple[PatientRecord, ...] = ()

    def __post_init__(self) -> None:
        try:
            stamps = np.asarray(self.timestamps, dtype=np.int64)
        except OverflowError as exc:
            raise DataError(f"corpus timestamp outside the int64 range: {exc}") from exc
        pids = np.asarray(self.patient_ids, dtype=object)
        values = np.asarray(self.values, dtype=float)
        if not (pids.ndim == 1 and pids.shape == stamps.shape == values.shape):
            raise DataError(
                "corpus columns must be 1-D and of one length, got shapes "
                f"{pids.shape}, {stamps.shape}, {values.shape}"
            )
        for name, column in (("patient_ids", pids), ("timestamps", stamps), ("values", values)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "patients", tuple(self.patients))
        if stamps.size and stamps.min() <= 0:
            raise DataError(f"corpus timestamps must be positive, got {stamps.min()}")
        if not np.all((values > GLUCOSE_MIN_MGDL) & (values <= GLUCOSE_MAX_MGDL)):
            raise DataError(
                f"corpus glucose values must lie in ({GLUCOSE_MIN_MGDL}, {GLUCOSE_MAX_MGDL}] mg/dL"
            )
        same = pids[1:] == pids[:-1]
        if not (
            np.all(np.diff(stamps)[same] > 0)
            and np.all(pids[1:][~same] > pids[:-1][~same])
        ):
            raise DataError(
                "corpus readings must be strictly increasing in (patient_id, timestamp)"
            )

    @functools.cached_property
    def readings(self) -> tuple[GlucoseReading, ...]:
        """The readings as records, built from the columns on first access."""
        return tuple(
            map(
                GlucoseReading,
                self.patient_ids.tolist(),
                self.timestamps.tolist(),
                self.values.tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.values)


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
            "path": Path(self.path).name,  # the file name alone: a rerun elsewhere matches
            "total_rows": self.total_rows,
            "kept": self.kept,
            "rejected_count": len(self.rejected),
            "rejected_rows": [{"row": n, "reason": r} for n, r in self.rejected],
            "duplicates": self.duplicates,
            "conflicts": self.conflicts,
        }


def _utf8_error(path: Path) -> FormatError:
    """The error for a file that is not UTF-8, naming its first undecodable line."""
    with path.open("rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return FormatError(f"{path}: line {line_number} is not UTF-8: {exc.reason}")
    return FormatError(f"{path}: not UTF-8 text")


@contextmanager
def _typed_read_errors(path: Path, reader):
    """Raise a csv failure (an oversized field, say) or undecodable text as FormatError."""
    try:
        yield
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _utf8_error(path) from exc


def _open_rows(path: str | Path, expected_header: list[str]):
    """Open a CSV and check its header; returns the handle, positioned after
    the header, and its csv reader."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"input file not found: {p}")
    handle = p.open("r", encoding="utf-8", newline="")
    reader = csv.reader(handle)
    try:
        with _typed_read_errors(p, reader):
            header = next(reader, None)
        if header is None:
            raise FormatError(f"{p}: empty file, expected header {','.join(expected_header)}")
        if [h.strip() for h in header] != expected_header:
            raise FormatError(
                f"{p}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
            )
    except BaseException:
        handle.close()
        raise
    return handle, reader


def _checked_rows(numbered_rows, width: int, report: ParseReport):
    """(row number, cells, stripped patient id) of each row with ``width`` fields and an id.
    Blank rows are skipped; ``report`` counts every other and records each it rejects."""
    for row_number, row in numbered_rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        report.total_rows += 1
        if len(row) != width:
            report.rejected.append((row_number, f"expected {width} fields, got {len(row)}"))
        elif not (pid := row[0].strip()):
            report.rejected.append((row_number, "empty patient_id"))
        else:
            yield row_number, row, pid


def _data_rows(path: str | Path, header: list[str], report: ParseReport):
    """``_checked_rows`` of a CSV's data rows, numbered from 2."""
    handle, reader = _open_rows(path, header)
    with handle, _typed_read_errors(Path(path), reader):
        yield from _checked_rows(enumerate(reader, start=2), len(header), report)


def parse_cgm_csv(
    path: str | Path, max_malformed_fraction: float = 0.01
) -> tuple[Corpus, ParseReport]:
    """Parse a CGM CSV into a corpus sorted by (patient_id, timestamp).

    Malformed rows are counted per row number (records from the header's 1,
    blank ones too). If more than ``max_malformed_fraction`` of the data rows
    are malformed the whole parse fails. Exact duplicate rows collapse to one;
    conflicting values for the same (patient, timestamp) keep the smallest.
    """
    if not 0.0 <= max_malformed_fraction <= 1.0:
        raise InvalidValueError(
            f"max malformed fraction must lie in [0, 1], got {max_malformed_fraction!r}"
        )
    report = ParseReport(path=str(path))
    table: dict[str, int] = {}  # patient id -> code (its order of first sight), or -1
    handle, reader = _open_rows(path, CGM_HEADER)
    with handle, _typed_read_errors(Path(path), reader):  # text that is not UTF-8
        blocks = [_cgm_block(*p, table, report) for p in _record_blocks(handle, Path(path), reader)]
    if report.total_rows and len(report.rejected) > max_malformed_fraction * report.total_rows:
        rows = ", ".join(str(n) for n, _ in report.rejected[:20])
        raise DataError(
            f"{path}: {len(report.rejected)} of {report.total_rows} rows malformed "
            f"(limit {max_malformed_fraction:.2%}); rows {rows}"
        )
    names = sorted(name for name, code in table.items() if code >= 0)
    rank = np.empty(len(table), np.int64)
    rank[[table[name] for name in names]] = np.arange(len(names))
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))  # dtypes for no rows
    codes, stamps, values = (np.concatenate(parts) for parts in zip(empty, *blocks))
    del blocks
    codes = rank[codes]
    order = np.lexsort((stamps, codes))  # stable: a repeated key's rows stay in row order
    codes, stamps, values = codes[order], stamps[order], values[order]
    repeats = np.flatnonzero((np.diff(codes) == 0) & (np.diff(stamps) == 0)) + 1
    for at in repeats.tolist():  # each key's last row gets its smallest value
        if values[at] != values[at - 1]:
            report.conflicts += 1
            values[at] = min(values[at - 1], values[at])
    report.duplicates = len(repeats) - report.conflicts
    if repeats.size:
        codes, stamps, values = (np.delete(c, repeats - 1) for c in (codes, stamps, values))
    corpus = Corpus(np.array(names, dtype=object)[codes], stamps, values)
    report.kept = len(corpus)
    return corpus, report


# Only csv.reader reads a quote, a NUL or a lone CR, one that does not end a
# CRLF line end; the comma split reads every other line.
_LONE_CR = re.compile("\r(?!\n)")


def _record_blocks(handle, path: Path, header):
    """(cells, field count of each record, first row number, crlf) of the rest of
    the file after the ``header`` csv reader's lines, in blocks of whole lines.
    With crlf, a record's last cell may end in the CR of its CRLF line end."""
    texts = iter(lambda: handle.read(_READ_BLOCK_CHARS) + handle.readline(), "")
    buffers, row_number, line = [], 2, header.line_num  # line: physical lines read so far

    def buffered(chunks):  # the lines of each chunk; buffers[-1] holds the unread rest
        for chunk in chunks:
            buffers.append(io.StringIO(chunk, newline=""))
            yield from buffers[-1]

    for text in texts:
        while text:
            cr = text.find("\r")
            lone = _LONE_CR.search(text, cr) if cr >= 0 else None  # an LF text runs no regex
            found = [at for at in map(text.find, '"\0') if at >= 0]
            found += [lone.start()] if lone else []
            cut = text.rfind("\n", 0, min(found)) + 1 if found else len(text)
            crlf = 0 <= cr < cut
            if cut and (part := _split_lines(text[:cut])):
                text, lines = text[cut:], len(part[1])
            else:  # csv reads until a record ends at or after stop, a line end
                # to the line of the last quote or NUL, or of the first lone CR if later
                last = max(*map(text.rfind, '"\0'), lone.start() if lone else -1)
                stop = cut or text.find("\n", last) + 1 or len(text)
                lines = len(io.StringIO(text[:stop], newline="").readlines())
                buffers.clear()
                reader = csv.reader(buffered(chain((text,), texts)))
                try:  # each record takes at least one line
                    rows = list(islice(reader, lines))
                except csv.Error as exc:
                    raise FormatError(f"{path}: line {line + reader.line_num}: {exc}") from exc
                part = list(chain.from_iterable(rows)), np.array(list(map(len, rows)), np.int64)
                text, lines, crlf = buffers[-1].read(), reader.line_num, False
            yield *part, row_number, crlf
            line, row_number = line + lines, row_number + len(part[1])


def _split_lines(text: str):
    """(cells, field count of each line) of plain lines; None if a field may be too long for csv.
    A line that ends in CRLF keeps the CR in its last cell."""
    text += "" if text.endswith("\n") else "\n"
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))  # every field's end
    if np.diff(ends, prepend=-1).max() > csv.field_size_limit():  # bytes bound characters
        return None
    widths = np.diff(np.flatnonzero(raw[ends] == ord("\n")), prepend=-1)
    return text.replace("\n", ",").split(","), widths


def _cgm_block(
    cells: list[str], widths, row_number: int, crlf: bool, table: dict[str, int], report
):
    """(codes, timestamps, values) of a part's kept records, in record order;
    ``row_number`` is the first record's. New patient ids get a code in ``table``.
    With crlf, ``float`` ignores the CR that may end a record's last cell."""
    n = len(widths)
    if (widths == 3).all():
        pids, stamps, values = cells[0 : 3 * n : 3], cells[1 : 3 * n : 3], cells[2 : 3 * n : 3]
    else:  # any other record reads an empty id, timestamp 1 and value 1
        at = np.where(widths == 3, np.cumsum(widths) - 3, len(cells))
        column = np.array([*cells, "", "1", "1"], dtype=object)
        pids, stamps, values = (column[at + k].tolist() for k in range(3))
    for name in set(pids).difference(table):
        table[name] = len(table) if name and name == name.strip() else -1  # -1: empty or padded
    codes = np.fromiter(map(table.__getitem__, pids), np.int64, n)
    stamps, values = _floats(stamps), _floats(values)
    # int(float(cell)) lies in [1, 2**63) exactly when float(cell) does.
    kept = (codes >= 0) & (stamps >= 1.0) & (stamps < 2.0**63) & (values <= GLUCOSE_MAX_MGDL)
    kept &= values > GLUCOSE_MIN_MGDL
    flagged = np.flatnonzero(~kept)  # each goes through _checked_rows and the checks below
    stamps[flagged] = 1.0  # each is replaced or dropped below
    stamps = stamps.astype(np.int64)
    report.total_rows += n - len(flagged)
    ends = np.cumsum(widths)[flagged]
    spans = zip((row_number + flagged).tolist(), (ends - widths[flagged]).tolist(), ends.tolist())
    for number, row, pid in _checked_rows(((i, cells[a:b]) for i, a, b in spans), 3, report):
        try:
            ts, value = int(float(row[1])), float(row[2])
        except (ValueError, OverflowError):  # int(inf) overflows
            if crlf:  # the cells as csv reads them
                row[-1] = row[-1].removesuffix("\r")
            report.rejected.append((number, f"non-numeric field in {row!r}"))
            continue
        if ts <= 0:
            report.rejected.append((number, f"non-positive timestamp {ts}"))
        elif ts >= 2**63:
            report.rejected.append((number, f"timestamp {ts} beyond the int64 range"))
        elif not GLUCOSE_MIN_MGDL < value <= GLUCOSE_MAX_MGDL:  # NaN fails too
            report.rejected.append((number, f"glucose {value!r} out of range"))
        else:
            at = number - row_number
            codes[at], stamps[at], values[at] = table.setdefault(pid, len(table)), ts, value
            kept[at] = True
    cells.clear()  # frees the block's text before the next is read
    return (codes, stamps, values) if kept.all() else (codes[kept], stamps[kept], values[kept])


def _floats(cells: list[str]) -> np.ndarray:
    """``float`` of each cell, NaN for one it refuses (cell by cell once the column fails)."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), float, len(cells))


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _opt_float(cell: str) -> float | None:
    cell = cell.strip()
    return float(cell) if cell else None


def parse_patient_csv(path: str | Path) -> tuple[list[PatientRecord], ParseReport]:
    """Parse the patient CSV; empty cells become missing (None) fields.

    A row with a non-numeric or non-finite number (``nan``, ``inf``, ``1e400``),
    or whose weight and height give no finite BMI, is rejected.
    """
    report = ParseReport(path=str(path))
    records: dict[str, PatientRecord] = {}
    for row_number, row, pid in _data_rows(path, PATIENT_HEADER, report):
        if pid in records:
            report.duplicates += 1
            continue
        try:
            education = row[7].strip()
            record = PatientRecord(
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
            numbers = [record.feature(name) for name in PATIENT_NUMERIC_FEATURES]
        except ValueError:
            report.rejected.append((row_number, f"non-numeric field in {row!r}"))
            continue
        except ArithmeticError:  # a huge integer, or a height whose square over- or underflows
            numbers = [math.inf]
        if not all(v is None or math.isfinite(v) for v in numbers):
            report.rejected.append((row_number, f"non-finite field in {row!r}"))
            continue
        records[pid] = record
    report.kept = len(records)
    return [records[p] for p in sorted(records)], report


def read_cohorts(path: str | Path) -> dict[str, str]:
    """Patient-to-cohort labels from a ``patient_id,cohort`` CSV; a row
    without two cells or without an id is skipped, and a patient given two
    different labels is a ``DataError``. Read failures raise ``FormatError``,
    as for the other input CSVs."""
    rows = _data_rows(path, ["patient_id", "cohort"], ParseReport(path=str(path)))
    labels: dict[str, str] = {}
    first_rows: dict[str, int] = {}
    for row_number, row, pid in rows:
        label = row[1].strip()
        if labels.setdefault(pid, label) != label:
            raise DataError(
                f"{path}: patient {pid!r} is in cohort {labels[pid]!r} on row "
                f"{first_rows[pid]} and in cohort {label!r} on row {row_number}"
            )
        first_rows.setdefault(pid, row_number)
    return labels


class _CsvCells(dict):
    """Patient id -> its cell as ``csv.writer`` writes it, formatted once."""

    def __missing__(self, pid):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([pid, 0])
        cell = self[pid] = buffer.getvalue()[: -len(",0\n")]
        return cell


def _cgm_row_blocks(rows):
    """(patient ids, timestamps, values) of a corpus or readings, block by block."""
    if isinstance(rows, Corpus):
        for lo in range(0, len(rows), _WRITE_BLOCK_ROWS):
            hi = lo + _WRITE_BLOCK_ROWS
            yield rows.patient_ids[lo:hi], rows.timestamps[lo:hi].tolist(), rows.values[lo:hi].tolist()
        return
    readings = iter(rows)
    while block := list(islice(readings, _WRITE_BLOCK_ROWS)):
        yield [r.patient_id for r in block], [r.timestamp for r in block], [r.value for r in block]


def write_cgm_csv(rows: Corpus | Iterable[GlucoseReading], path: str | Path) -> str:
    """Write a corpus, or readings in the order given, as a CGM CSV; returns
    the SHA-256 hex digest of the bytes written.

    Each row is ``patient_id,timestamp,repr(value)``, the bytes ``csv.writer``
    gives for it, encoded as UTF-8.
    """
    cells = _CsvCells()
    digest = hashlib.sha256()
    texts = (
        "".join([f"{cells[p]},{t},{v!r}\n" for p, t, v in zip(pids, stamps, values)])
        for pids, stamps, values in _cgm_row_blocks(rows)
    )
    with atomic_write(path) as handle:
        for text in chain([",".join(CGM_HEADER) + "\n"], texts):
            data = text.encode("utf-8")
            digest.update(data)
            handle.write(data)
    return digest.hexdigest()


def corpus_sidecar(csv_path: str | Path) -> Path:
    """The sidecar that keeps the corpus of a CGM CSV: ``<csv>.gcorpus``."""
    path = Path(csv_path)
    return path.with_name(path.name + ".gcorpus")


def _sidecar_sha256(header: dict, payload) -> str:
    """SHA-256 of a sidecar header's other fields, as sorted-key JSON, then the payload."""
    rest = {key: value for key, value in header.items() if key != "sha256"}
    digest = hashlib.sha256(json.dumps(rest, sort_keys=True).encode("utf-8"))
    digest.update(payload)
    return digest.hexdigest()


def write_corpus_sidecar(corpus: Corpus, csv_sha256: str, path: str | Path) -> None:
    """Keep corpus in the sidecar at path, valid for the CSV whose bytes hash to csv_sha256.

    Timestamps are stored as their high and low 32-bit halves, each exact in float64.
    """
    pids, stamps = corpus.patient_ids, corpus.timestamps
    starts = np.flatnonzero(np.concatenate([[True], pids[1:] != pids[:-1]])[: len(pids)])
    counts = np.diff(np.append(starts, len(pids)))
    payload = np.concatenate([stamps >> 32, stamps & 0xFFFFFFFF, corpus.values], dtype="<f8")
    header = {
        "csv_sha256": csv_sha256,
        "patients": [[pid, n] for pid, n in zip(pids[starts].tolist(), counts.tolist())],
    }
    header["sha256"] = _sidecar_sha256(header, payload)
    write_framed(path, CORPUS_MAGIC, CORPUS_VERSION, header, payload)


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while block := handle.read(_HASH_BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _read_corpus_sidecar(csv_path: Path) -> Corpus | None:
    """The corpus in csv_path's sidecar; None unless the sidecar is well-formed
    and both its hashes match."""
    try:
        version, header, payload = read_framed(corpus_sidecar(csv_path), CORPUS_MAGIC, "corpus")
    except (OSError, FormatError):
        return None
    patients = header.get("patients")
    if not (
        version == CORPUS_VERSION
        and header.keys() == {"csv_sha256", "patients", "sha256"}
        and isinstance(patients, list)
        and all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and is_int(p[1])
            and p[1] >= 1
            for p in patients
        )
    ):
        return None
    counts = [n for _, n in patients]
    n = sum(counts)
    if len(payload) != 24 * n or header["sha256"] != _sidecar_sha256(header, payload):
        return None
    try:
        if header["csv_sha256"] != _file_sha256(csv_path):
            return None
    except OSError:
        return None
    high, low, values = np.frombuffer(payload, "<f8").reshape(3, n)
    if not np.all((high >= 0) & (high < 2.0**31) & (low >= 0) & (low < 2.0**32)):
        return None
    stamps, low_int = high.astype(np.int64), low.astype(np.int64)
    if not (np.array_equal(stamps, high) and np.array_equal(low_int, low)):  # whole halves
        return None
    stamps = stamps << 32 | low_int
    pids = np.repeat(np.array([pid for pid, _ in patients], dtype=object), counts)
    try:
        return Corpus(pids, stamps, values.astype(np.float64))
    except DataError:
        return None


def load_cgm_corpus(path: str | Path) -> Corpus:
    """The corpus of a CGM CSV: from its sidecar (see ``corpus_sidecar``) when
    the sidecar holds the corpus written as exactly these bytes, otherwise
    from ``parse_cgm_csv`` with its default malformed-row limit."""
    corpus = _read_corpus_sidecar(Path(path))
    return parse_cgm_csv(path)[0] if corpus is None else corpus


def write_patient_csv(patients, path: str | Path) -> None:
    def cell(v):
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    with atomic_write(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PATIENT_HEADER)
        for p in patients:
            writer.writerow([cell(getattr(p, name)) for name in PATIENT_HEADER])


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


def daily_profile(corpus: Corpus) -> list[tuple[float | None, float | None, int]]:
    """(mean, population s.d., count) of the readings in each five-minute slot
    of the day, for all 288 slots in order; an empty slot's mean and s.d. are None."""
    slots = (corpus.timestamps % 86400) // 300
    by_slot = corpus.values[np.argsort(slots, kind="stable")]
    profile, lo = [], 0
    for count in np.bincount(slots, minlength=SLOTS_PER_DAY).tolist():
        bucket = by_slot[lo : lo + count]
        lo += count
        mean_sd = (float(bucket.mean()), float(bucket.std())) if count else (None, None)
        profile.append((*mean_sd, count))
    return profile


def sequence_length_histogram(lengths, threshold: int = 144) -> dict:
    """Exact counts of sequence lengths (e.g. ``SequenceStore.lengths``, keyed
    by the length as a str) and the number and share at least threshold long."""
    lengths = np.asarray(lengths, dtype=np.int64)
    sizes, counts = np.unique(lengths, return_counts=True)
    eligible = int(np.count_nonzero(lengths >= threshold))
    return {
        "lengths": dict(zip(map(str, sizes.tolist()), counts.tolist())),
        "total_sequences": len(lengths),
        "threshold": threshold,
        "eligible_count": eligible,
        "eligible_fraction": eligible / len(lengths) if len(lengths) else 0.0,
    }


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


def _synth_patient(rng: np.random.Generator, days: int, start_ts: int):
    """One patient's (timestamps, values) columns."""
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
    first = rng.normal(0.0, _AR1_MARGINAL_SD)
    shocks = rng.normal(0.0, innovation_sd, size=n - 1).tolist()
    noise = np.fromiter(
        accumulate(shocks, lambda prev, shock: _AR1_PHI * prev + shock, initial=first), float, n
    )

    values = np.clip(signal + bumps + noise, _CLIP_LO, _CLIP_HI)

    # Dropout gaps with heavy-tailed lengths (lognormal steps).
    kept = []
    i = 0
    while i < n:
        if rng.random() < _GAP_RATE:
            gap = max(4, int(rng.lognormal(mean=3.0, sigma=1.2)))
            i += gap
            continue
        kept.append(i)
        i += 1
    return start_ts + t[kept] * 300, values[kept]


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
    ids = [f"synth{p:03d}" for p in range(n_patients)]
    patients: list[PatientRecord] = []
    columns = []
    start_ts = 1_600_000_000 - (1_600_000_000 % 86400)  # midnight-aligned epoch
    for p, patient_id in enumerate(ids):
        rng = np.random.default_rng([seed, p])
        patients.append(_synth_patient_record(rng, patient_id))
        columns.append(_synth_patient(rng, days, start_ts))
    order = sorted(range(n_patients), key=ids.__getitem__)  # "synth1000" < "synth101"
    return Corpus(
        np.repeat(np.array(ids, dtype=object)[order], [len(columns[p][0]) for p in order]),
        np.concatenate([columns[p][0] for p in order]),
        np.concatenate([columns[p][1] for p in order]),
        tuple(patients),
    )
