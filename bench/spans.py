"""Run-time span tracing of glyco's public functions, from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent) per call. Hot per-item
functions listed in AGGREGATED are folded into a call count plus total and
self time instead of one span each. Spans stay in memory until the run ends.
Nothing under src/ is edited: the wrappers are set as module attributes, so
they see every call made through a module attribute or a module-global name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("ingest", "pipeline", "stats", "baselines", "hmm", "lstm", "metrics", "workflows")

# Called once per window, row or sequence: a count plus total time each.
AGGREGATED = frozenset(
    {
        "baselines.copy_last",
        "baselines.linreg_forecast",
        "hmm.hmm_forecast",
        "hmm.viterbi",
        "hmm.log_forward",
        "hmm.log_backward",
        "hmm.sequence_log_likelihood",
        "stats.gmm_responsibilities",
    }
)

# Called once per forecast point, where even a count would cost more than the
# call: left unwrapped, so their time is the self time of their caller.
UNWRAPPED = frozenset(
    {
        "metrics.esod_n",
        "metrics.second_difference_energy",
        "metrics.classify",
        "metrics.clarke_zone",
    }
)


def _one(args, kwargs, result):
    return {"items": 1}


# Work counted at the boundary where it is done: name -> f(args, kwargs, result).
COUNTERS = {
    "ingest.parse_cgm_csv": lambda a, k, r: {"items": len(r[0])},
    "ingest.write_cgm_csv": lambda a, k, r: {"items": len(a[0])},
    "ingest.daily_profile": lambda a, k, r: {"items": len(a[0].readings)},
    "pipeline.segment": lambda a, k, r: {"items": len(a[0])},
    "baselines.copy_last": _one,
    "baselines.linreg_forecast": _one,
    "hmm.viterbi": _one,
    "hmm.hmm_forecast": _one,
    "hmm.baum_welch": lambda a, k, r: {
        "items": len(a[0]) * r.trained_iterations,
        "iterations": r.trained_iterations,
    },
    "lstm.train": lambda a, k, r: {"items": k.get("epochs", 20) * a[1].n_train},
    "lstm.rollout_batch": lambda a, k, r: {"items": len(a[1])},
    "lstm.rollout": _one,
    "metrics.score_pairs": lambda a, k, r: {"items": sum(len(p) for p in a[0])},
    "metrics.pairs_from_arrays": lambda a, k, r: {"items": len(r)},
}


@dataclass
class CallStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    self_ns: int = 0


@dataclass
class _Frame:
    name: str
    layer: str
    span_id: int | None
    parent_span: int | None
    start_ns: int = 0
    child_ns: int = 0


class Tracer:
    """Spans and per-function statistics for wrapped calls while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.stats: dict[str, CallStats] = {}
        self.layer_total_ns = {layer: 0 for layer in LAYERS}
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay."""
        self.spans.clear()
        self.stats.clear()
        for layer in LAYERS:
            self.layer_total_ns[layer] = self.layer_self_ns[layer] = 0

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        parent_span = None
        if parent is not None:
            parent_span = parent.span_id if parent.span_id is not None else parent.parent_span
        span_id = None
        if name not in AGGREGATED:
            span_id = len(self.spans)
            self.spans.append(Span(name, 0, parent=parent_span))
        frame = _Frame(name, layer, span_id, parent_span)
        self._stack.append(frame)
        frame.start_ns = time.perf_counter_ns()
        if span_id is not None:
            self.spans[span_id].start_ns = frame.start_ns
        return frame

    def _exit(self, frame: _Frame) -> None:
        end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack out of order: {popped.name} closed as {frame.name}")
        duration = end_ns - frame.start_ns
        self_ns = duration - frame.child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        stats = self.stats.setdefault(frame.name, CallStats())
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += self_ns
        if frame.layer in self.layer_self_ns:
            self.layer_self_ns[frame.layer] += self_ns
            if parent is None or parent.layer != frame.layer:
                self.layer_total_ns[frame.layer] += duration
        if frame.span_id is not None:
            span = self.spans[frame.span_id]
            span.end_ns = end_ns
            span.self_ns = self_ns

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (layer 'bench'), while enabled."""
        frame = self._enter(name, "bench") if self.enabled else None
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    def _wrap(self, name: str, layer: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if counter is not None:
                counts = tracer.stats[name].counts
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public module-level function of each glyco layer module."""
        for layer in LAYERS:
            module = importlib.import_module(f"glyco.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__ or f"{layer}.{attr}" in UNWRAPPED:
                    continue
                self._restore.append((module, attr, value))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", layer, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def call(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())

    def to_dict(self) -> dict:
        """Everything recorded, as JSON-ready data; `merge` reads it back."""
        return {
            "spans": [vars(span) for span in self.spans],
            "calls": {name: vars(stats) for name, stats in sorted(self.stats.items())},
            "layer_total_ns": self.layer_total_ns,
            "layer_self_ns": self.layer_self_ns,
        }

    def merge(self, recorded: dict) -> None:
        """Add what another process recorded (the output of its `to_dict`)."""
        offset = len(self.spans)
        for span in recorded["spans"]:
            parent = span["parent"]
            self.spans.append(Span(**{**span, "parent": None if parent is None else parent + offset}))
        for name, other in recorded["calls"].items():
            stats = self.stats.setdefault(name, CallStats())
            stats.calls += other["calls"]
            stats.total_ns += other["total_ns"]
            stats.self_ns += other["self_ns"]
            for key, value in other["counts"].items():
                stats.counts[key] = stats.counts.get(key, 0) + value
        for layer in LAYERS:
            self.layer_total_ns[layer] += recorded["layer_total_ns"][layer]
            self.layer_self_ns[layer] += recorded["layer_self_ns"][layer]

    def aggregated_calls(self) -> int:
        return sum(s.calls for n, s in self.stats.items() if n in AGGREGATED)
