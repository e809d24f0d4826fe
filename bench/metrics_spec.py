"""Names, units and derivations of every metric the benchmark reports.

End-to-end times are the upper quartile of a run's untraced passes, and peak
RSS is the median over them, each pass a fresh process whose peak RSS is its
own. Per-layer
metrics come from the traced passes: rates use each function's total time
(its self time where the name says self_s, and for lstm.train), and every
`.s` metric is seconds per pass. A per-layer metric of a layer that did not
run in the workload reads 0. Metrics marked "computed" are operation or byte
counts derived from shapes and sizes, not timed.
"""

from __future__ import annotations

import statistics

from spans import LAYERS

# Reported in the result line of an untraced run, on every workload, with a bound.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("prepared_mb", "MB"),
)

# Per-command times, in the run record only where the workload runs the step.
# Some steps take well under a second on some workload, too noisy to bound, and
# the RMSEs vary by up to 10% between seeds, so neither is in the result line.
STEP_METRICS = (
    ("ingest_s", ("ingest",)),
    ("stats_s", ("stats", "cluster")),
    ("prepare_s", ("prepare",)),
    ("train_s", ("train",)),
    ("evaluate_s", ("evaluate",)),
)

# Every metric of the run record: the 14 end-to-end metrics plus the learning margin.
REPORT_UNITS = {
    **dict(END_TO_END),
    **{name: "s" for name, _ in STEP_METRICS},
    "copy_last_rmse_mgdl": "mg/dL",
    "lstm_rmse_mgdl": "mg/dL",
    "hmm_rmse_mgdl": "mg/dL",
    "lstm_learning_margin_mgdl": "mg/dL",
    "failed_frac": "fraction",
}

# Protocol shapes behind the computed operation counts.
LSTM_HIDDEN, LSTM_LAYERS, LSTM_INPUT, WINDOW_INPUT, HORIZON = 8, 3, 1, 132, 12
HMM_STATES, WINDOW_TOTAL = 100, 144

WORKFLOW_STEPS = ("ingest", "stats", "cluster", "prepare", "train", "evaluate", "explain")

PER_LAYER = (
    ("ingest.parse_cgm_csv.us_per_row", "us/row"),
    ("ingest.write_cgm_csv.us_per_row", "us/row"),
    ("ingest.daily_profile.us_per_reading", "us/reading"),
    ("ingest.synth_corpus.s", "s"),
    ("pipeline.segment.us_per_reading", "us/reading"),
    ("pipeline.prepare.s", "s"),
    ("pipeline.save_prepared.s", "s"),
    ("pipeline.load_prepared.s", "s"),
    ("pipeline.gprep_bytes_per_reading", "B/reading"),
    ("stats.gmm_fit.s", "s"),
    ("baselines.copy_last.us_per_window", "us/window"),
    ("hmm.baum_welch.ms_per_seq_iter", "ms/seq-iter"),
    ("hmm.baum_welch.iterations", "count"),
    ("hmm.baum_welch.flops_per_seq_iter", "flop/seq-iter"),
    ("hmm.viterbi.us_per_window", "us/window"),
    ("hmm.hmm_forecast.us_per_window", "us/window"),
    ("lstm.train.us_per_example", "us/example"),
    ("lstm.train.flops_per_example", "flop/example"),
    ("lstm.rollout_batch.us_per_window", "us/window"),
    ("lstm.rollout.us_per_window", "us/window"),
    ("metrics.score_pairs.us_per_point", "us/point"),
    ("metrics.pairs_from_arrays.us_per_pair", "us/pair"),
    ("metrics.predict_all.self_s", "s"),
    *((f"workflows.run_{step}.self_s", "s") for step in WORKFLOW_STEPS),
    *((f"layer.{layer}.{kind}_s", "s") for layer in LAYERS for kind in ("total", "self")),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.aggregated_calls", "count"),
)

COMPUTED = frozenset(
    {
        "pipeline.gprep_bytes_per_reading",
        "hmm.baum_welch.flops_per_seq_iter",
        "lstm.train.flops_per_example",
    }
)


def lstm_flops_per_example() -> int:
    """Forward plus backward (taken as twice the forward) flops for one window.

    Per layer and step: two gate matrix-vector products (2 flops per
    multiply-add), the sum and bias add, four gate activations, the cell
    update, tanh(c) and the output product; the head adds 2h+1 per forecast.
    """
    h = LSTM_HIDDEN
    per_step = 0
    for layer in range(LSTM_LAYERS):
        d = LSTM_INPUT if layer == 0 else h
        per_step += 8 * h * (d + h) + 17 * h
    forward = (WINDOW_INPUT + HORIZON - 1) * per_step + HORIZON * (2 * h + 1)
    return 3 * forward


def hmm_ops_per_seq_iter() -> int:
    """State-pair terms of forward, backward and xi over one sequence: 3 N^2 (T-1)."""
    return 3 * HMM_STATES * HMM_STATES * (WINDOW_TOTAL - 1)


def _median(values):
    return statistics.median(values) if values else None


def _upper_quartile(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def end_to_end(run, setup_s: float) -> dict:
    """The run's end-to-end metrics by name; a step's metric only where it ran.

    Times are the upper quartile over the untraced passes. Every pass does
    the same work, but on a shared host a pass runs up to about twice as long
    while other tenants are busy, and most runs see that loaded level. The
    upper quartile sits near it and is steadier between runs than the median
    or the fastest pass (see README.md).
    """
    passes = [p for p in run.passes if not p["traced"]]
    values = {"setup_s": setup_s}
    if passes:
        for name in ("wall_s", "cpu_s"):
            values[name] = _upper_quartile([p[name] for p in passes])
        values["peak_rss_mb"] = _median([p["peak_rss_mb"] for p in passes])
        for name, steps in STEP_METRICS:
            if all(s in run.workload.steps for s in steps):
                times = [sum(p["steps"][s] for s in steps) for p in passes]
                values[name] = _upper_quartile(times)
        values["prepared_mb"] = _median([p["prepared_bytes"] for p in passes]) / 1e6
        rmse = passes[0]["rmse"]
        values["copy_last_rmse_mgdl"] = rmse["copy_last"]
        for model in ("lstm", "hmm"):
            if model in rmse:
                values[f"{model}_rmse_mgdl"] = rmse[model]
        if "lstm" in rmse:
            values["lstm_learning_margin_mgdl"] = passes[0]["learning_margin"]
    return {name: {"value": value, "unit": REPORT_UNITS[name]} for name, value in values.items()}


def per_layer(run) -> dict:
    """Per-layer metrics from the traced passes of a run."""
    tracer = run.tracer
    traced = [p for p in run.passes if p["traced"]]
    untraced = [p for p in run.passes if not p["traced"]]
    n = max(len(traced), 1)

    def rate(name: str, scale: float, self_time: bool = False) -> float:
        stats = tracer.call(name)
        count = stats.counts.get("items", 0)
        ns = stats.self_ns if self_time else stats.total_ns
        return ns * 1e-9 * scale / count if count else 0.0

    def per_pass(name: str, self_time: bool = False) -> float:
        stats = tracer.call(name)
        return (stats.self_ns if self_time else stats.total_ns) * 1e-9 / n

    bw = tracer.call("hmm.baum_welch")
    values = {
        "ingest.parse_cgm_csv.us_per_row": rate("ingest.parse_cgm_csv", 1e6),
        "ingest.write_cgm_csv.us_per_row": rate("ingest.write_cgm_csv", 1e6),
        "ingest.daily_profile.us_per_reading": rate("ingest.daily_profile", 1e6),
        "ingest.synth_corpus.s": run.synth_s,
        "pipeline.segment.us_per_reading": rate("pipeline.segment", 1e6),
        "pipeline.prepare.s": per_pass("pipeline.prepare"),
        "pipeline.save_prepared.s": per_pass("pipeline.save_prepared"),
        "pipeline.load_prepared.s": per_pass("pipeline.load_prepared"),
        "pipeline.gprep_bytes_per_reading": (
            run.passes[0]["prepared_bytes"] / run.readings if run.passes else 0.0
        ),
        "stats.gmm_fit.s": per_pass("stats.gmm_fit"),
        "baselines.copy_last.us_per_window": rate("baselines.copy_last", 1e6),
        "hmm.baum_welch.ms_per_seq_iter": rate("hmm.baum_welch", 1e3),
        "hmm.baum_welch.iterations": bw.counts.get("iterations", 0) / bw.calls if bw.calls else 0.0,
        "hmm.baum_welch.flops_per_seq_iter": float(hmm_ops_per_seq_iter()),
        "hmm.viterbi.us_per_window": rate("hmm.viterbi", 1e6),
        "hmm.hmm_forecast.us_per_window": rate("hmm.hmm_forecast", 1e6),
        "lstm.train.us_per_example": rate("lstm.train", 1e6, self_time=True),
        "lstm.train.flops_per_example": float(lstm_flops_per_example()),
        "lstm.rollout_batch.us_per_window": rate("lstm.rollout_batch", 1e6),
        "lstm.rollout.us_per_window": rate("lstm.rollout", 1e6),
        "metrics.score_pairs.us_per_point": rate("metrics.score_pairs", 1e6),
        "metrics.pairs_from_arrays.us_per_pair": rate("metrics.pairs_from_arrays", 1e6),
        "metrics.predict_all.self_s": per_pass("metrics.predict_all", self_time=True),
    }
    for step in WORKFLOW_STEPS:
        values[f"workflows.run_{step}.self_s"] = per_pass(f"workflows.run_{step}", self_time=True)
    for layer in LAYERS:
        values[f"layer.{layer}.total_s"] = tracer.layer_total_ns[layer] * 1e-9 / n
        values[f"layer.{layer}.self_s"] = tracer.layer_self_ns[layer] * 1e-9 / n
    traced_wall = _median([p["wall_s"] for p in traced]) or 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - (_median([p["wall_s"] for p in untraced]) or 0.0)
    values["trace.spans"] = len(tracer.spans) / n
    values["trace.aggregated_calls"] = tracer.aggregated_calls() / n
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def profile_problem(run) -> str | None:
    """The workload's stated profile: dominant layers hold most traced time, absent ones none."""
    tracer = run.tracer
    traced_wall_ns = sum(p["wall_s"] for p in run.passes if p["traced"]) * 1e9
    if not traced_wall_ns:
        return "no traced pass completed"
    dominant = sum(tracer.layer_self_ns[layer] for layer in run.workload.dominant)
    share = dominant / traced_wall_ns
    if share <= 0.5:
        return f"{'+'.join(run.workload.dominant)} self time is {share:.1%} of the traced time"
    ran = [layer for layer in run.workload.absent if tracer.layer_total_ns[layer]]
    if ran:
        return f"layers {ran} recorded time but should not run"
    return None
