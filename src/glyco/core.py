"""Shared domain types, glucose unit conversion and atomic file writes.

All glucose concentrations are mg/dL internally. Timestamps are integer
seconds since epoch; sub-second precision is discarded at ingest.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidValueError

MGDL_PER_MMOLL = 18.0

# Physiological-plus-sensor glucose range accepted at ingest, mg/dL.
GLUCOSE_MIN_MGDL = 0.0  # exclusive
GLUCOSE_MAX_MGDL = 1000.0  # inclusive

# Consecutive readings further apart than this start a new sequence.
MAX_GAP_SECONDS = 900


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
