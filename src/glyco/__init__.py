"""CGM glucose forecasting: ingestion, clustering, forecasters, and metrics."""

from .core import (
    GlucoseReading,
    PatientRecord,
    mgdl_to_mmoll,
    mmoll_to_mgdl,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    GlycoError,
    InvalidValueError,
    NumericError,
)

__version__ = "0.1.0"

__all__ = [
    "GlucoseReading",
    "PatientRecord",
    "mgdl_to_mmoll",
    "mmoll_to_mgdl",
    "GlycoError",
    "ConfigError",
    "DataError",
    "FormatError",
    "InvalidValueError",
    "NumericError",
    "__version__",
]
