"""Spans recorded around calls into dmect's layers, from outside the library.

A traced op swaps each module attribute that a caller looks up (for example
``dmect.cli.dmect_go``, which the CLI calls, or ``dmect.schedule.solve_slot``,
which ``SlotCache`` calls) for a wrapper that records a span and then calls
the original. The originals are restored when the op ends. Every span keeps
the index of the span open when it started, so self time is the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from harness import median

OP = "cli.op"
DP = "schedule.dmect_go"
GREEDY = "baseline.greedy_slot"
SLOT_SOLVERS = ("power.ea", "power.mia", GREEDY)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1     # index of the enclosing span, -1 at the top
    cells: int = 0       # DP spans: target * (target - 1) / 2

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self, infeasible_errors: tuple[type, ...] = (),
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.infeasible_errors = infeasible_errors
        self.spans: list[Span] = []
        self.site_calls: Counter[str] = Counter()
        self.infeasible: Counter[str] = Counter()   # raised, per span name
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, self.clock(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def wrap(self, site: str, fn: Callable, name: str | Callable[..., str],
             on_result: Callable[[Span, object], None] | None = None) -> Callable:
        """``fn`` inside a span; ``name`` may be computed from the arguments."""
        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            span = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except self.infeasible_errors:
                self.infeasible[span.name] += 1
                raise
            finally:
                self.finish(span)
            if on_result is not None:
                on_result(span, result)
            return result
        return traced


def _slot_name(problem, *args, **kwargs) -> str:
    return f"power.{problem.accumulation.value}"


def _dp_cells(span: Span, result) -> None:
    span.cells = result.target * (result.target - 1) // 2


# (module, attribute looked up by the caller, span name, result hook)
SITES = (
    ("dmect.cli", "load_instance", "model.load_instance", None),
    ("dmect.cli", "verify_schedule", "model.verify", None),
    ("dmect.cli", "dmect_go", DP, _dp_cells),
    ("dmect.ordering", "dmect_go", DP, _dp_cells),
    ("dmect.baseline", "dmect_go", DP, _dp_cells),
    ("dmect.schedule", "solve_slot", _slot_name, None),
    ("dmect.baseline", "greedy_slot", GREEDY, None),
    ("dmect.ordering", "dijkstra_ordering", "ordering.dijkstra", None),
    ("dmect.ordering", "brute_force_ordering", "ordering.brute", None),
    ("dmect.netgen", "generate", "netgen.generate", None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every site in SITES through ``tracer`` for the duration."""
    saved = []
    try:
        for module_name, attr, name, hook in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    tracer.wrap(f"{module_name}.{attr}", original, name, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures averaged over ``ops`` traced ops.

    Counts are per op (unit 1/op), busy and self times are seconds per op,
    call_ms_p50 is the median single call.
    """
    if ops < 1:
        raise ValueError("need at least one traced op")
    spans = tracer.spans
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_s: Counter[str] = Counter()
    for span, own in zip(spans, selfs):
        durations.setdefault(span.name, []).append(span.duration)
        self_s[span.name] += own

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return sum(durations.get(name, ()))

    slot_solves = sum(1 for s in spans
                      if s.name in SLOT_SOLVERS and s.parent >= 0
                      and spans[s.parent].name == DP)
    cells = sum(s.cells for s in spans if s.name == DP)
    brute_dp = sum(1 for s in spans
                   if s.name == DP and s.parent >= 0
                   and spans[s.parent].name == "ordering.brute")
    m = {}
    for mode in ("ea", "mia"):
        name = f"power.{mode}"
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.busy_s"] = busy(name) / ops
        m[f"{name}.call_ms_p50"] = median(durations.get(name, ())) * 1e3
    m["power.infeasible"] = sum(tracer.infeasible[f"power.{mode}"]
                                for mode in ("ea", "mia")) / ops
    m["schedule.dmect_go.calls"] = calls(DP) / ops
    m["schedule.dmect_go.busy_s"] = busy(DP) / ops
    m["schedule.self_s"] = self_s[DP] / ops
    m["schedule.slot_solves"] = slot_solves / ops
    m["schedule.cells"] = cells / ops
    m["schedule.solve_ratio"] = slot_solves / cells if cells else 0.0
    m[f"{GREEDY}.calls"] = calls(GREEDY) / ops
    m[f"{GREEDY}.busy_s"] = busy(GREEDY) / ops
    m["ordering.dijkstra.busy_s"] = busy("ordering.dijkstra") / ops
    m["ordering.brute.busy_s"] = busy("ordering.brute") / ops
    m["ordering.brute.dp_calls"] = brute_dp / ops
    m["model.load_instance.busy_s"] = busy("model.load_instance") / ops
    m["model.verify.busy_s"] = busy("model.verify") / ops
    m["model.verify.calls"] = calls("model.verify") / ops
    m["netgen.generate.busy_s"] = busy("netgen.generate") / ops
    m["cli.self_s"] = self_s[OP] / ops
    m["trace.op_s"] = busy(OP) / ops
    return m


# unit of each per-layer metric, trace.overhead_frac (computed by the run) included
UNITS = {
    "power.ea.calls": "1/op", "power.ea.busy_s": "s/op", "power.ea.call_ms_p50": "ms",
    "power.mia.calls": "1/op", "power.mia.busy_s": "s/op", "power.mia.call_ms_p50": "ms",
    "power.infeasible": "1/op",
    "schedule.dmect_go.calls": "1/op", "schedule.dmect_go.busy_s": "s/op",
    "schedule.self_s": "s/op", "schedule.slot_solves": "1/op", "schedule.cells": "1/op",
    "schedule.solve_ratio": "ratio",
    "baseline.greedy_slot.calls": "1/op", "baseline.greedy_slot.busy_s": "s/op",
    "ordering.dijkstra.busy_s": "s/op", "ordering.brute.busy_s": "s/op",
    "ordering.brute.dp_calls": "1/op",
    "model.load_instance.busy_s": "s/op", "model.verify.busy_s": "s/op",
    "model.verify.calls": "1/op", "netgen.generate.busy_s": "s/op",
    "cli.self_s": "s/op", "trace.op_s": "s/op", "trace.overhead_frac": "frac",
}
