"""One pass of a workload in a fresh process; run.py starts one per pass.

Runs the workload's CLI steps through glyco.workflows in the current working
directory (the run's work directory) and writes the step times, the pass's
wall and CPU time and, when traced, the recorded spans to --result as JSON.
A fresh process per pass makes its peak RSS the pass's own.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload JSON written by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from glyco import workflows
    from glyco.config import RunConfig

    from spans import Tracer
    from workloads import Paths, Workload, run_config, run_step

    workload = Workload.load(Path(args.workload))
    config = run_config(RunConfig, workload, args.seed)
    paths = Paths.for_workload(workload)
    tracer = Tracer()
    if args.traced:
        tracer.install()
        tracer.enabled = True
    tracker = workflows.OutputTracker()
    steps: dict[str, float] = {}
    failed_step = None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with tracer.span("bench.pass"):
        for step in workload.steps:
            start = time.perf_counter()
            try:
                with tracer.span(f"bench.{step}"):
                    run_step(step, workload, workflows, tracker, config, paths)
            except Exception as error:  # a failed step is reported and counted, not a crash
                failed_step = f"{step}: {type(error).__name__}: {error}"
                break
            steps[step] = time.perf_counter() - start
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    tracer.enabled = False
    tracer.uninstall()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "steps": steps,
        "failed_step": failed_step,
        "trace": tracer.to_dict() if args.traced else None,
    }
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
