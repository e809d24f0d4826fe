"""The machine a run was measured on, recorded with every result."""

from __future__ import annotations

import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def load_1m() -> float | None:
    """The 1-minute load average, so that a noisy neighbour shows in the record."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def record(blas_threads: int, load_start: float | None, load_end: float | None) -> dict:
    import numpy as np

    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "memory_mb": round(memory / 1e6),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "blas_threads": blas_threads,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_end,
    }
