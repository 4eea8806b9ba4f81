"""Outside-in tracing: spans recorded by wrappers around duallink's public functions.

The program itself is not edited.  Each layer boundary is a public function
that one module imports from another, so replacing the name at its import
site (``duallink.ensemble.split_step``, ``duallink.cli.load_config``, ...)
puts a span around every call that crosses that boundary.  A target that has
moved or been renamed is reported as missing rather than failing the run.

Spans are kept in memory and written out when the run ends; self time is
derived from the parent links afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute at the import site, span name).  The span name is the
# layer that owns the function followed by the function name.  Every library
# call a command makes has a span, so a command's self time is its own code:
# argument handling, CSV writing and per-eta loops.
SPAN_TARGETS = (
    ("duallink.ensemble", "split_step", "optics.split_step"),
    ("duallink.ensemble", "aperture_transmissivity", "optics.aperture_transmissivity"),
    ("duallink.ensemble", "plan_slabs", "screens.plan_slabs"),
    ("duallink.ensemble", "greenwood_and_coherence", "atmosphere.greenwood_and_coherence"),
    ("duallink.optics", "generate_screen", "screens.generate_screen"),
    ("duallink.optics", "apply_screen", "optics.apply_screen"),
    ("duallink.optics", "propagate_vacuum", "optics.propagate_vacuum"),
    ("duallink.cli", "load_config", "config.load_config"),
    ("duallink.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("duallink.cli", "fading_stats", "ensemble.fading_stats"),
    ("duallink.cli", "save_ensemble", "ensemble.save_ensemble"),
    ("duallink.cli", "load_ensemble", "ensemble.load_ensemble"),
    ("duallink.cli", "loss_histogram", "ensemble.loss_histogram"),
    ("duallink.cli", "coherence_step_series", "ensemble.coherence_step_series"),
    ("duallink.cli", "key_rate_summary", "keyrate.key_rate_summary"),
    ("duallink.cli", "render_key_rate_report", "keyrate.render_key_rate_report"),
    ("duallink.cli", "mc_quadrature_sim", "protocol.mc_quadrature_sim"),
    ("duallink.keyrate", "max_tolerable_loss", "keyrate.max_tolerable_loss"),
)

# Functions called thousands of times per command get a counter, not a span:
# a span each would cost more than the call it measures.  Their time stays in
# the caller's self time.
COUNT_TARGETS = (
    ("duallink.cli", "classical_ber", "protocol.classical_ber"),
    ("duallink.keyrate", "finite_size_rate", "keyrate.finite_size_rate"),
)

# Work units a span reports from its result, for rates such as shots per second.
_WORK = {"protocol.mc_quadrature_sim": lambda result: result.n_shots}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # A worker thread's first span hangs off the span the main thread
        # has open, which is the call that started the worker.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        record = {"work": None}
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), record["work"])
            )

    def _span_wrapper(self, fn, name: str):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if work is not None:
                    record["work"] = work(result)
                return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Substitute every wrapper at its import site; restore on exit."""
        saved = []
        try:
            for targets, make in (
                (SPAN_TARGETS, self._span_wrapper),
                (COUNT_TARGETS, self._count_wrapper),
            ):
                for module_name, attr, name in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if not callable(original):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover.

    Children on several worker threads overlap in time, so the covered part
    is the union of their intervals, clipped to the parent's.
    """
    by_id = {span.id: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration - _union_length(children[span.id]) for span in spans
    }


def realizations(spans) -> list[float]:
    """Wall time of each channel realization, in seconds.

    A realization is one ``split_step`` call plus the aperture metering that
    follows it on the same worker thread, up to the next ``split_step``.
    """
    per_thread = defaultdict(list)
    for span in spans:
        if span.name in ("optics.split_step", "optics.aperture_transmissivity"):
            per_thread[span.thread].append(span)
    durations = []
    for thread_spans in per_thread.values():
        start = end = None
        for span in sorted(thread_spans, key=lambda s: s.start):
            if span.name == "optics.split_step":
                if start is not None:
                    durations.append(end - start)
                start = span.start
            if start is not None:
                end = span.end
        if start is not None:
            durations.append(end - start)
    return durations


def tail_percentile(samples) -> tuple[float, float]:
    """Highest of the 90th/75th/50th percentiles with ten samples beyond it.

    With fewer than 20 samples no percentile qualifies, and the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    for pct in (90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, statistics.quantiles(ordered, n=100, method="inclusive")[int(pct) - 1]
    return 100.0, ordered[-1]


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median_ms(spans, name: str) -> float:
    durations = [span.duration for span in spans if span.name == name]
    return _ms(statistics.median(durations)) if durations else 0.0


# Layers whose self time makes up a realization.
_REALIZATION_LAYERS = (
    "screens.generate_screen",
    "optics.propagate_vacuum",
    "optics.apply_screen",
    "optics.split_step",
    "optics.aperture_transmissivity",
)
_COMMANDS = ("simulate-channel", "key-rate", "protocol-verify", "link-budget")


def layer_metrics(tracer: Tracer, ops: int, threads: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``ops`` operations.

    Every name is always present; a layer that did no work on a workload
    reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = Counter()
    for span in spans:
        self_by_name[span.name] += selfs[span.id]
        calls[span.name] += 1
    n_real = calls["optics.split_step"]

    def per_real(value: float) -> float:
        return value / n_real if n_real else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in _REALIZATION_LAYERS:
        out[f"{name}.self_ms_per_realization"] = (per_real(_ms(self_by_name[name])), "ms")
    for name in ("screens.generate_screen", "optics.propagate_vacuum"):
        out[f"{name}.calls_per_realization"] = (per_real(calls[name]), "count")
    # Two FFTs per hop (forward and inverse, or the two Fresnel steps) and
    # one per screen; counted from calls, not measured inside numpy.
    out["optics.fft_calls_per_realization_computed"] = (
        per_real(2 * calls["optics.propagate_vacuum"] + calls["screens.generate_screen"]),
        "count",
    )

    samples = realizations(spans)
    pct, tail = tail_percentile(samples)
    out["ensemble.realization_ms.p50"] = (
        _ms(statistics.median(samples)) if samples else 0.0,
        "ms",
    )
    out["ensemble.realization_ms.tail"] = (_ms(tail), "ms")
    out["ensemble.realization_ms.tail_percentile"] = (pct, "%")
    out["ensemble.realization_ms.samples"] = (len(samples), "count")
    realized = sum(samples)
    accounted = sum(self_by_name[name] for name in _REALIZATION_LAYERS)
    out["ensemble.realization_accounted_fraction"] = (
        accounted / realized if realized else 0.0,
        "ratio",
    )
    ensemble_wall = sum(s.duration for s in spans if s.name == "ensemble.run_ensemble")
    out["ensemble.worker_busy_fraction"] = (
        realized / (threads * ensemble_wall) if ensemble_wall else 0.0,
        "ratio",
    )

    for name in (
        "atmosphere.greenwood_and_coherence",
        "screens.plan_slabs",
        "config.load_config",
        "ensemble.save_ensemble",
        "ensemble.load_ensemble",
        "ensemble.fading_stats",
        "protocol.mc_quadrature_sim",
        "keyrate.key_rate_summary",
        "keyrate.max_tolerable_loss",
    ):
        out[f"{name}.ms"] = (_median_ms(spans, name), "ms")
    mc = [s for s in spans if s.name == "protocol.mc_quadrature_sim" and s.work]
    mc_time = sum(s.duration for s in mc)
    out["protocol.mc_quadrature_sim.shots_per_s"] = (
        sum(s.work for s in mc) / mc_time if mc_time else 0.0,
        "1/s",
    )
    for name in ("protocol.classical_ber", "keyrate.finite_size_rate"):
        out[f"{name}.calls"] = (tracer.counts[name] / ops if ops else 0.0, "count")
    for command in _COMMANDS:
        own = [selfs[s.id] for s in spans if s.name == f"cli.{command}"]
        out[f"cli.{command}.self_ms"] = (_ms(statistics.median(own)) if own else 0.0, "ms")
    return out
