"""The micro-benchmarks in ``tests/bench_*.py`` are not collected by a plain
test run, so this runs each of their cases once, untimed, to keep them working."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def test_micro_benchmarks_run_once():
    pytest.importorskip("pytest_benchmark")
    modules = sorted(str(p) for p in TESTS.glob("bench_*.py"))
    assert len(modules) == 5
    path = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *modules],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
