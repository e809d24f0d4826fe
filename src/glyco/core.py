"""Shared domain types, glucose unit conversion, atomic file writes and the
framed binary container.

All glucose concentrations are mg/dL internally. Timestamps are integer
seconds since epoch; sub-second precision is discarded at ingest.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidValueError

MGDL_PER_MMOLL = 18.0

# Physiological-plus-sensor glucose range accepted at ingest, mg/dL.
GLUCOSE_MIN_MGDL = 0.0  # exclusive
GLUCOSE_MAX_MGDL = 1000.0  # inclusive

# Consecutive readings further apart than this start a new sequence.
MAX_GAP_SECONDS = 900

# The patient features statistics read; each must be finite when present.
PATIENT_NUMERIC_FEATURES = (
    "age",
    "weight_kg",
    "height_cm",
    "bmi",
    "hba1c",
    "annual_income_usd",
    "education_level",
)


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true/false)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for an int or a float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Write through a sibling temporary file that replaces path on success.

    If the body raises, the temporary file is removed and whatever path held
    before (an earlier run's output, say) is left as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open(mode, **open_kwargs) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along an axis (all of ``a`` when None), shifted by the max."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def write_framed(path: str | Path, magic: bytes, version: int, header: dict, payload) -> None:
    """Write a framed file: the 8-byte magic, the version and header length as
    little-endian uint32, the header as sorted-key UTF-8 JSON, then the float
    array ``payload`` as little-endian float64."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as handle:
        handle.write(magic + struct.pack("<II", version, len(blob)) + blob)
        handle.write(np.ascontiguousarray(payload, dtype="<f8").data)


def _read_header(handle, size: int, path, magic: bytes, what: str) -> tuple[int, dict]:
    """(version, header) from a framed file of ``size`` bytes open at its
    start; the handle is left at the payload."""
    head = handle.read(16)
    if len(head) < 16 or head[:8] != magic:
        raise FormatError(f"{path}: not a {what} file (bad magic)")
    version, header_len = struct.unpack_from("<II", head, 8)
    # Checked against the size first, so a corrupt length allocates nothing.
    if size < 16 + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    return version, header


def read_framed_header(path: str | Path, magic: bytes, what: str) -> tuple[int, dict]:
    """(version, header) of a framed file, without reading its payload."""
    with Path(path).open("rb") as handle:
        return _read_header(handle, os.fstat(handle.fileno()).st_size, path, magic, what)


def read_framed(path: str | Path, magic: bytes, what: str) -> tuple[int, dict, memoryview]:
    """(version, header, payload bytes) of a framed file; ``what`` names the
    file kind in errors. The caller checks the version and the header."""
    raw = Path(path).read_bytes()
    handle = io.BytesIO(raw)  # shares raw's buffer: only the header is copied
    version, header = _read_header(handle, len(raw), path, magic, what)
    return version, header, memoryview(raw)[handle.tell() :]


def finite_floats(path: str | Path, payload: memoryview, count: int) -> np.ndarray:
    """The payload as ``count`` finite float64 values.

    The length is checked before anything is allocated, so a corrupt size in
    a header cannot ask for more memory than the file holds.
    """
    if len(payload) != 8 * count:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, the header needs {8 * count} "
            "(truncated or padded)"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite value in the payload")
    return values


def mgdl_to_mmoll(v: float) -> float:
    """Convert a glucose concentration from mg/dL to mmol/L."""
    if not math.isfinite(v):
        raise InvalidValueError(f"glucose value must be finite, got {v!r}")
    return v / MGDL_PER_MMOLL


def mmoll_to_mgdl(v: float) -> float:
    """Convert a glucose concentration from mmol/L to mg/dL."""
    if not math.isfinite(v):
        raise InvalidValueError(f"glucose value must be finite, got {v!r}")
    return v * MGDL_PER_MMOLL


@dataclass(frozen=True)
class GlucoseReading:
    """One CGM sample: patient, integer epoch seconds, glucose in mg/dL."""

    patient_id: str
    timestamp: int
    value: float

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, int) or self.timestamp <= 0:
            raise InvalidValueError(
                f"timestamp must be a positive integer, got {self.timestamp!r}"
            )
        if not math.isfinite(self.value) or not (
            GLUCOSE_MIN_MGDL < self.value <= GLUCOSE_MAX_MGDL
        ):
            raise InvalidValueError(
                f"glucose value {self.value!r} outside ({GLUCOSE_MIN_MGDL}, "
                f"{GLUCOSE_MAX_MGDL}] mg/dL"
            )


@dataclass(frozen=True)
class PatientRecord:
    """Static per-patient features. Missing fields are None and are excluded
    from statistics, never imputed.

    bmi is derived from weight and height when both are present, which needs
    a positive height. hba1c keeps an explicit unit label; statistics treat
    the value as dimensionless.
    """

    patient_id: str
    age: float | None = None
    weight_kg: float | None = None
    height_cm: float | None = None
    hba1c: float | None = None
    hba1c_unit: str | None = None
    annual_income_usd: float | None = None
    education_level: int | None = None
    sex: str | None = None
    bmi: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.weight_kg is not None and self.height_cm is not None:
            if not self.height_cm > 0:
                raise InvalidValueError(f"height_cm must be positive, got {self.height_cm!r}")
            derived = self.weight_kg / (self.height_cm / 100.0) ** 2
            if self.bmi is None:
                object.__setattr__(self, "bmi", derived)
            elif abs(self.bmi - derived) > 1e-9:
                raise InvalidValueError(
                    f"bmi {self.bmi} inconsistent with weight/height (expected {derived})"
                )

    def feature(self, name: str) -> float | None:
        """Numeric feature lookup by column name; None when missing."""
        value = getattr(self, name)
        if value is None:
            return None
        return float(value)
