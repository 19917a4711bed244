"""Spans recorded from outside the package, around its public functions.

Each function is wrapped where it is looked up: ``cli`` and ``experiments``
import the functions they call by name, and ``solvers`` reaches
``bisect_tau``, ``derive_allocation`` and ``enumerate_eta_vectors`` through
its own globals. :func:`installed` swaps the wrappers in and restores the
originals afterwards. Spans live in memory until the run writes them out.

Forked pool workers inherit the wrappers but not the span list, so the
wrappers pass straight through there; the layers below ``run_sweep`` are
then reported from the records the pool returns.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

from checks import WALL_COLUMN, blank_column


class Span:
    """One timed call: parent is an index into the span list, -1 for a root."""

    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, request, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = {} if attrs is None else attrs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            **self.attrs,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._pid = os.getpid()

    def recording(self) -> bool:
        return os.getpid() == self._pid

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, perf_counter(), 0.0, parent, self.request)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its children (and ``covered_s``) cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        max(
            0.0,
            s.end
            - s.start
            - covered_length(children[i], s.start, s.end)
            - s.attrs.get("covered_s", 0.0),
        )
        for i, s in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _report_attrs(args, kwargs, report) -> dict:
    return {
        "candidates": report.outer_candidates_evaluated,
        "iters": report.bisection_iterations_total,
        "users": report.allocation.n_users,
    }


def _export_attrs(args, kwargs, paths) -> dict:
    summary, detail = paths
    text = blank_column(summary.read_text(encoding="utf-8"), WALL_COLUMN)
    return {"bytes": len(text.encode("utf-8")) + detail.stat().st_size}


def _sweep_attrs(args, kwargs, records) -> dict:
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    attrs = {"jobs": jobs, "record_wall_ms": sum(r.wall_ms for r in records)}
    if jobs > 1:
        # The solves ran in workers; keep what their records tell.
        attrs["remote"] = [
            (
                r.report.method.value,
                r.wall_ms,
                r.report.outer_candidates_evaluated,
                r.report.bisection_iterations_total,
                r.report.allocation.n_users,
            )
            for r in records
        ]
    return attrs


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording():
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    return traced


def _wrap_bisect(tracer: Tracer, fn: Callable) -> Callable:
    """Span per bisection; time inside the predicate is kept as ``covered_s``."""

    @functools.wraps(fn)
    def traced(feasible_at, *args, **kwargs):
        if not tracer.recording():
            return fn(feasible_at, *args, **kwargs)
        spent = [0.0]

        def timed(tau):
            t0 = perf_counter()
            ok = feasible_at(tau)
            spent[0] += perf_counter() - t0
            return ok

        with tracer.span("solvers.bisect_tau") as span:
            result = fn(timed, *args, **kwargs)
        span.attrs["covered_s"] = spent[0]
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, cli, experiments, solvers) -> Iterator[list[str]]:
    """Swap traced wrappers into the modules; yields the names not found."""
    targets = [
        ("experiments.load_scenario_config", [(cli, "load_scenario_config")], None),
        ("experiments.run_scenario", [(cli, "run_scenario"), (experiments, "run_scenario")], None),
        ("experiments.run_sweep", [(cli, "run_sweep")], _sweep_attrs),
        ("experiments.export_csv", [(cli, "export_csv")], _export_attrs),
        ("experiments.emit_plot", [(cli, "emit_plot")], None),
        ("solvers.solve_method1", [(cli, "solve_method1"), (experiments, "solve_method1")], _report_attrs),
        ("solvers.solve_method2", [(cli, "solve_method2"), (experiments, "solve_method2")], _report_attrs),
        ("solvers.solve_oracle", [(cli, "solve_oracle"), (experiments, "solve_oracle")], _report_attrs),
        ("solvers.solve_equal_power", [(experiments, "solve_equal_power")], _report_attrs),
        ("solvers.solve_non_semantic", [(experiments, "solve_non_semantic")], _report_attrs),
        ("solvers.bisect_tau", [(solvers, "bisect_tau")], None),
        ("model.derive_allocation", [(solvers, "derive_allocation")], None),
        ("solvers.enumerate_eta_vectors", [(solvers, "enumerate_eta_vectors")], None),
    ]
    saved = []
    missing = []
    wrappers: dict[int, Callable] = {}
    try:
        for name, sites, attrs in targets:
            for module, attr in sites:
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                if id(original) not in wrappers:
                    if name == "solvers.bisect_tau":
                        wrappers[id(original)] = _wrap_bisect(tracer, original)
                    else:
                        wrappers[id(original)] = _wrap(tracer, name, original, attrs)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Reported fields per scheme; the rest are zero or say nothing new.
SOLVER_FIELDS = {
    "method1": ("ms", "calls", "bisect_iters", "ns_per_iter_user"),
    "method2": ("ms", "calls", "candidates", "bisect_iters", "iters_per_candidate", "ns_per_row_user"),
    "oracle": ("ms", "candidates", "bisect_iters", "ns_per_row_user"),
    "equal_power": ("ms",),
    "non_semantic": ("ms",),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals from one traced pass (times in ms, counts exact)."""
    selfs = self_times(spans)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    solver = {m: defaultdict(float) for m in SOLVER_FIELDS}
    sweep_wall_ms = sweep_record_ms = 0.0
    for s, own in zip(spans, selfs):
        dur = (s.end - s.start) * 1e3
        ms[s.name] += dur
        self_ms[s.name] += own * 1e3
        calls[s.name] += 1
        rows = []
        if s.name.startswith("solvers.solve_"):
            a = s.attrs
            rows.append((s.name[len("solvers.solve_"):], dur, a["candidates"], a["iters"], a["users"]))
        elif s.name == "experiments.run_sweep":
            sweep_wall_ms += s.attrs["jobs"] * dur
            sweep_record_ms += s.attrs["record_wall_ms"]
            rows.extend(s.attrs.get("remote", ()))
        if s.name == "solvers.bisect_tau":
            ms["solvers.method1_predicate"] += s.attrs["covered_s"] * 1e3
        for method, wall, cands, iters, users in rows:
            agg = solver[method]
            agg["ms"] += wall
            agg["calls"] += 1
            agg["candidates"] += cands
            agg["bisect_iters"] += iters
            agg["iter_users"] += iters * users
            agg["row_users"] += (cands + iters) * users

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for method, fields in SOLVER_FIELDS.items():
        agg = solver[method]
        derived = {
            "ms": agg["ms"],
            "calls": int(agg["calls"]),
            "candidates": int(agg["candidates"]),
            "bisect_iters": int(agg["bisect_iters"]),
            "ns_per_iter_user": ratio(agg["ms"] * 1e6, agg["iter_users"]),
            "ns_per_row_user": ratio(agg["ms"] * 1e6, agg["row_users"]),
            "iters_per_candidate": ratio(agg["bisect_iters"], agg["candidates"]),
        }
        for field in fields:
            out[f"solvers.solve_{method}.{field}"] = derived[field]
    out["solvers.bisect_tau.calls"] = calls["solvers.bisect_tau"]
    out["solvers.bisect_tau.self_ms"] = self_ms["solvers.bisect_tau"]
    out["solvers.method1_predicate.ms"] = ms["solvers.method1_predicate"]
    out["solvers.enumerate_eta_vectors.calls"] = calls["solvers.enumerate_eta_vectors"]
    out["model.derive_allocation.ms"] = ms["model.derive_allocation"]
    out["model.derive_allocation.calls"] = calls["model.derive_allocation"]
    out["experiments.load_scenario_config.ms"] = ms["experiments.load_scenario_config"]
    out["experiments.run_scenario.self_ms"] = self_ms["experiments.run_scenario"]
    out["experiments.export_csv.ms"] = ms["experiments.export_csv"]
    out["experiments.export_csv.bytes"] = int(
        sum(s.attrs["bytes"] for s in spans if s.name == "experiments.export_csv")
    )
    out["experiments.emit_plot.ms"] = ms["experiments.emit_plot"]
    out["experiments.run_sweep.ms"] = ms["experiments.run_sweep"]
    out["experiments.run_sweep.parallel_eff"] = ratio(sweep_record_ms, sweep_wall_ms)
    out["cli.main.self_ms"] = self_ms["cli.main"]
    return out
