"""glyco benchmark: one command per workload, end-to-end metrics or a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload desk_lstm --seed 1 --seconds 40 --trace 0

The load is a closed loop with one caller. Set-up writes the seeded synthetic
corpus CSVs; then whole passes of the workload's CLI steps run back to back,
each in a fresh process (one_pass.py), for about --seconds and at least one
pass. With --trace 0 the last stdout line holds the end-to-end metrics: times
as the upper quartile over passes, sizes as medians. With --trace 1 it holds the
per-layer metrics of traced passes, alternated with untraced passes whose wall
time gives the tracing overhead. The line before it is the run record: every metric under the names
of bench/README.md, correctness failures, output digests and the machine.
Every pass's outputs are checked, and a failed check counts in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = nproc
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _cap_blas_threads()

import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import machine  # noqa: E402
import metrics_spec  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Paths, run_config  # noqa: E402

SETUP_REPEATS = 5
RESULTS_DIR = Path(ROOT) / ".bench_results"
ONE_PASS = Path(__file__).resolve().parent / "one_pass.py"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import glyco.workflows; print(time.perf_counter() - t)"
)


def _wait(proc: subprocess.Popen):
    """Wait for a child; returns its exit code and resource usage. Kills it if interrupted."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def import_seconds() -> float:
    """Time to import glyco in a fresh interpreter."""
    proc = subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, text=True,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    code, _ = _wait(proc)
    if code:
        raise RuntimeError(f"importing glyco failed with exit code {code}")
    return float(out)


class Run:
    """One benchmark run: set-up, the loop of passes, checks and the metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workflows):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workflows = workflows
        self.config = run_config(workflows.RunConfig, workload, seed)
        self.paths = Paths.for_workload(workload)
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.digest: str | None = None
        self.digest_files: dict[str, str] = {}

    def check(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Import time plus corpus time, each the median of SETUP_REPEATS.

        The corpus is made and written each time; when tracing, the calls
        into glyco are traced too, for ingest.synth_corpus.s.
        """
        w, ingest = self.workload, self.workflows.ingest
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        if self.trace:
            self.tracer.install()
            self.tracer.enabled = True
        times = []
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                readings, patients = corpus.fixed_size(
                    ingest, self.workflows.pipeline.window_count, self.seed, w.patients, w.days,
                    w.windows, self.config.train_step, self.config.window_total,
                    self.config.max_gap_s,
                )
                self.paths.raw_cgm.parent.mkdir(exist_ok=True)
                ingest.write_cgm_csv(readings, self.paths.raw_cgm)
                ingest.write_patient_csv(patients, self.paths.raw_patients)
                times.append(time.perf_counter() - start)
        finally:
            self.tracer.enabled = False
            self.tracer.uninstall()
        synth = self.tracer.call("ingest.synth_corpus")
        self.synth_s = synth.total_ns * 1e-9 / synth.calls if synth.calls else 0.0
        self.tracer.reset()
        self.readings = len(readings)
        return statistics.median(imports) + statistics.median(times)

    # -- one pass ------------------------------------------------------------

    def one_pass(self, traced: bool) -> bool:
        """Run every step once in a fresh process and check the outputs."""
        w, paths = self.workload, self.paths
        shutil.rmtree(paths.out, ignore_errors=True)
        result_file = Path("pass.json")
        result_file.unlink(missing_ok=True)
        w.save(Path("workload.json"))
        proc = subprocess.Popen(
            [sys.executable, str(ONE_PASS), "--workload", "workload.json", "--seed", str(self.seed),
             "--traced", str(int(traced)), "--result", str(result_file)],
            stdout=sys.stderr,
        )
        code, usage = _wait(proc)
        self.attempted += len(w.steps)
        if code or not result_file.exists():
            self.failures += [f"step {s}: pass process exited with code {code}" for s in w.steps]
            return False
        result = json.loads(result_file.read_text(encoding="utf-8"))
        if result["failed_step"] is not None:
            done = len(result["steps"])
            self.failures.append(f"step {result['failed_step']}")
            self.failures += [f"step {s}: not run" for s in w.steps[done + 1:]]
            return False
        if traced:
            self.tracer.merge(result["trace"])
        record = {
            "traced": traced,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "steps": result["steps"],
        }
        self.passes.append(record)
        self.verify(record)
        shutil.rmtree(paths.out, ignore_errors=True)
        return True

    def verify(self, record: dict) -> None:
        """Run the workload's checks on the pass outputs and compare their digest."""
        w, paths, config = self.workload, self.paths, self.config
        eval_doc = json.loads((paths.eval / "eval_report.json").read_text(encoding="utf-8"))
        gprep = sorted(paths.prep.glob("*.gprep"))
        record["prepared_bytes"] = sum(p.stat().st_size for p in gprep)
        record["rmse"] = {m: checks.aggregate_rmse(eval_doc, m) for m in w.eval_models}
        if "lstm" in w.eval_models:
            record["learning_margin"] = checks.learning_margin(eval_doc)
        for name in w.extra_checks:
            if name == "lstm_training":
                problem = checks.lstm_training(
                    paths.models, eval_doc, config.k_folds, config.lstm_heuristic_n
                )
            elif name == "log_likelihood":
                problem = checks.log_likelihood_monotone(paths.models, config.k_folds)
            elif name == "windows":
                problem = checks.prepared_windows(gprep, paths.cgm, config)
            elif name == "copy_last_rmse":
                problem = checks.copy_last_rmse(gprep, eval_doc)
            else:
                raise ValueError(f"unknown check {name!r}")
            self.check(name, problem)
        digest, files = checks.tree_digest(paths.out)
        if self.digest is None:
            self.digest, self.digest_files = digest, files
        else:
            changed = sorted(k for k in files.keys() | self.digest_files.keys()
                             if files.get(k) != self.digest_files.get(k))
            self.check("determinism", f"outputs differ between passes: {changed[:5]}" if changed else None)

    def check_stored_digest(self, digest_dir: Path) -> None:
        """Compare with an earlier run of the same code, workload and seed, if any."""
        if self.digest is None:
            return
        code = checks.source_digest([Path(ROOT) / "src", Path(ROOT) / "bench"])[:16]
        path = digest_dir / f"{self.workload.name}-seed{self.seed}-{code}.json"
        if path.exists():
            stored = json.loads(path.read_text(encoding="utf-8"))["digest"]
            self.check("determinism vs earlier run",
                       None if stored == self.digest else f"digest {self.digest} != stored {stored}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"digest": self.digest, "files": self.digest_files},
                                       sort_keys=True, indent=1) + "\n", encoding="utf-8")

    # -- the loop ------------------------------------------------------------

    def loop(self) -> None:
        """Whole passes for about `seconds`: stop when another would overrun.

        A traced run alternates untraced and traced passes, at least one of
        each, so both see the same machine and their difference is the
        tracing overhead.
        """
        start = time.perf_counter()
        minimum = 2 if self.trace else 1
        n = 0
        while True:
            ok = self.one_pass(traced=self.trace and n % 2 == 1)
            n += 1
            elapsed = time.perf_counter() - start
            if not ok or (n >= minimum and elapsed * (n + 1) / n > self.seconds):
                break


def execute(workload, seed: int, seconds: float, trace: bool, work_root: Path,
            digest_dir: Path | None) -> tuple[dict, dict, Run]:
    """One run in a fresh work directory; returns the record, the result line and the Run."""
    load_start = machine.load_1m()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from glyco import workflows

    work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        run = Run(workload, seed, seconds, trace, workflows)
        setup_s = run.setup()
        run.loop()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    if digest_dir is not None:
        run.check_stored_digest(digest_dir)

    report = metrics_spec.end_to_end(run, setup_s)
    if trace:
        metrics = metrics_spec.per_layer(run)
        run.check("profile", metrics_spec.profile_problem(run))
    else:
        metrics = {name: report[name] for name, _ in metrics_spec.END_TO_END if name in report}
    run.check("finite", checks.finite({k: v["value"] for k, v in {**report, **metrics}.items()}))
    failed = len(run.failures)
    report["failed_frac"] = {
        "value": failed / run.attempted, "unit": metrics_spec.REPORT_UNITS["failed_frac"]
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "config": run.config.to_dict(),
        "report": report,
        "failures": run.failures,
        "computed_metrics": sorted(metrics_spec.COMPUTED) if trace else [],
        "passes": run.passes,
        "digest": run.digest,
        "machine": machine.record(BLAS_THREADS, load_start, machine.load_1m()),
    }
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    return record, result, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "glyco")):
        print(f"bench: no glyco sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    record, result, run = execute(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        Path(ROOT) / ".bench_work", RESULTS_DIR / "digests",
    )
    if args.trace:
        spans = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(run.tracer.to_dict()) + "\n", encoding="utf-8")
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
