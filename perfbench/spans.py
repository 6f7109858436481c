"""Span tracer that wraps covertq's public functions from outside the package.

Each wrapped function is replaced, for the length of one traced pass, at the
module attributes where its callers look it up (``covertq.cli.optimize``,
``covertq.sensitivity.optimize``, ...), so every call records a span:

    name, start, end, parent span, thread

plus exact per-call counts (rows, bytes, grid cells).  Nothing inside the
package is edited.  Spans opened on a worker thread with no open span of its
own are parented to the innermost open span of the main thread: the only
threads covertq starts are the generation pool workers, and the main thread
is blocked inside ``generate_sample_set`` while they run.

A span's self time is its duration minus the part of that interval its child
spans cover (the union of the child intervals, clipped to the span).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    thread: int
    end: float = 0.0
    rows: int = 0
    nbytes: int = 0
    cells: int = 0
    workers: int = 0
    points: int = 0


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, covertq_pkg, on_workers=None):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = _build_wrappers(self, covertq_pkg, on_workers)

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else -1
        span = Span(name=name, start=0.0, parent=parent, thread=tid)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, name, fn, measure=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer._open(name)
            try:
                if before is not None:
                    args, kwargs = before(sp, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if measure is not None:
                measure(sp, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _build_wrappers(tracer: Tracer, pkg, on_workers):
    """(module, attribute, wrapper) for every call site the benchmark traces."""
    import numpy as np

    m = {name: getattr(pkg, name) for name in (
        "distributions", "physics", "samples", "quantiles", "risk_constrained",
        "sensitivity", "risk_adjusted", "benchmark", "_csvio", "cli",
    )}
    default_grid = m["risk_adjusted"].GridSpec()

    def rows_at(index, name):
        def measure(sp, args, kwargs, result):
            sp.rows = int(_arg(args, kwargs, index, name))
            sp.nbytes = 8 * sp.rows
        return measure

    def physics_rows(sp, args, kwargs, result):
        sp.rows = int(np.size(args[0]))

    def generate(sp, args, kwargs, result):
        sp.rows = int(_arg(args, kwargs, 1, "K"))
        sp.workers = int(_arg(args, kwargs, 3, "workers", 1))
        if on_workers is not None:
            on_workers(sp.workers)

    def file_bytes(index, name):
        def measure(sp, args, kwargs, result):
            sp.nbytes = os.path.getsize(_arg(args, kwargs, index, name))
        return measure

    def grid(sp, args, kwargs, result):
        g = _arg(args, kwargs, 3, "g", default_grid)
        sp.cells = g.points_per_axis ** 2

    def points(sp, args, kwargs, result):
        sp.points = len(result)

    def count_csv_rows(sp, args, kwargs):
        rows = _arg(args, kwargs, 2, "rows")

        def counted():
            for row in rows:
                sp.rows += 1
                yield row

        if len(args) > 2:
            args = args[:2] + (counted(),) + args[3:]
        else:
            kwargs = {**kwargs, "rows": counted()}
        return args, kwargs

    # (span name, function, measure, before, call sites as "module.attr")
    table = [
        ("distributions.stream_uniforms", m["distributions"].stream_uniforms,
         rows_at(2, "count"), None, ["distributions.stream_uniforms"]),
        ("distributions.sample_truncated_lognormal", m["samples"].sample_truncated_lognormal,
         rows_at(1, "count"), None, ["samples.sample_truncated_lognormal"]),
        ("distributions.sample_truncated_gaussian", m["samples"].sample_truncated_gaussian,
         rows_at(1, "count"), None, ["samples.sample_truncated_gaussian"]),
        ("distributions.sample_exponential", m["samples"].sample_exponential,
         rows_at(1, "count"), None, ["samples.sample_exponential"]),
        ("physics.covertness_constant", m["samples"].covertness_constant,
         physics_rows, None, ["samples.covertness_constant"]),
        ("physics.achievable_rate", m["samples"].achievable_rate,
         physics_rows, None, ["samples.achievable_rate"]),
        ("samples.generate_sample_set", m["samples"].generate_sample_set,
         generate, None, ["cli.generate_sample_set", "benchmark.generate_sample_set"]),
        ("samples.save_sample_set", m["samples"].save_sample_set,
         file_bytes(1, "path"), None, ["cli.save_sample_set"]),
        ("samples.load_sample_set", m["samples"].load_sample_set,
         file_bytes(0, "path"), None, ["cli.load_sample_set", "samples.load_sample_set"]),
        ("quantiles.strict_cdf", m["quantiles"].strict_cdf,
         None, None, ["risk_adjusted.strict_cdf"]),
        ("quantiles.strict_outage_quantile", m["quantiles"].strict_outage_quantile,
         None, None, ["risk_constrained.strict_outage_quantile",
                      "sensitivity.strict_outage_quantile"]),
        ("risk_constrained.optimize", m["risk_constrained"].optimize,
         None, None, ["cli.optimize", "risk_constrained.optimize",
                      "sensitivity.optimize", "benchmark.optimize"]),
        ("risk_constrained.frontier_sweep", m["risk_constrained"].frontier_sweep,
         None, None, ["cli.frontier_sweep"]),
        ("risk_constrained.surface_sweep", m["risk_constrained"].surface_sweep,
         None, None, ["cli.surface_sweep"]),
        ("risk_constrained.n_scaling_sweep", m["risk_constrained"].n_scaling_sweep,
         None, None, ["cli.n_scaling_sweep"]),
        ("sensitivity.sensitivities_symmetric", m["sensitivity"].sensitivities_symmetric,
         points, None, ["cli.sensitivities_symmetric"]),
        ("risk_adjusted.grid_maximize", m["risk_adjusted"].grid_maximize,
         grid, None, ["risk_adjusted.grid_maximize"]),
        ("benchmark.validate", m["benchmark"].validate,
         None, None, ["cli.validate"]),
        ("csvio.write_csv", m["_csvio"].write_csv,
         file_bytes(0, "path"), count_csv_rows,
         ["cli.write_csv", "risk_constrained.write_csv", "risk_adjusted.write_csv",
          "sensitivity.write_csv", "benchmark.write_csv", "_csvio.write_csv"]),
        ("cli.resolve_config", m["cli"].resolve_config,
         None, None, ["cli.resolve_config"]),
    ]
    out = []
    for name, fn, measure, before, sites in table:
        wrapper = tracer.wrap(name, fn, measure, before)
        for site in sites:
            module, attr = site.split(".")
            out.append((m[module], attr, wrapper))
    return out


# -- aggregation ---------------------------------------------------------------


def _union(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class PassTrace:
    """Per-name totals of one traced pass and its accounting terms."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    busy: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    rows: dict = field(default_factory=lambda: defaultdict(int))
    nbytes: dict = field(default_factory=lambda: defaultdict(int))
    cells: int = 0
    points: int = 0
    sensitivity_optimize_calls: int = 0
    generate_child_busy: float = 0.0
    generate_capacity: float = 0.0
    spans: int = 0
    root_wall: float = 0.0
    self_total: float = 0.0
    overlap_total: float = 0.0
    worst_root_gap: float = 0.0


def aggregate(spans: list[Span]) -> PassTrace:
    """Fold one pass's spans into per-name calls, busy and self times.

    Also checks the accounting identity for every root span (one command):
    the self times of its subtree, minus the time parallel children overlap,
    add up to its wall time.  ``worst_root_gap`` is the largest violation.
    """
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)

    t = PassTrace(spans=len(spans))
    self_of = [0.0] * len(spans)
    overlap_of = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        kids = [(spans[c].start, spans[c].end) for c in children[i]]
        covered = _union(kids, sp.start, sp.end)
        self_of[i] = dur - covered
        overlap_of[i] = sum(min(b, sp.end) - max(a, sp.start) for a, b in kids) - covered
        t.calls[sp.name] += 1
        t.busy[sp.name] += dur
        t.self_time[sp.name] += self_of[i]
        t.rows[sp.name] += sp.rows
        t.nbytes[sp.name] += sp.nbytes
        t.cells += sp.cells
        t.points += sp.points
        if sp.name == "samples.generate_sample_set":
            t.generate_child_busy += sum(b - a for a, b in kids)
            t.generate_capacity += dur * max(1, sp.workers)

    def ancestors(i):
        while spans[i].parent >= 0:
            i = spans[i].parent
            yield spans[i].name

    for i, sp in enumerate(spans):
        if sp.name == "risk_constrained.optimize" and any(
            name == "sensitivity.sensitivities_symmetric" for name in ancestors(i)
        ):
            t.sensitivity_optimize_calls += 1

    subtree_self = list(self_of)
    subtree_overlap = list(overlap_of)
    for i in range(len(spans) - 1, -1, -1):  # children always follow parents
        p = spans[i].parent
        if p >= 0:
            subtree_self[p] += subtree_self[i]
            subtree_overlap[p] += subtree_overlap[i]
    for i, sp in enumerate(spans):
        if sp.parent < 0:
            wall = sp.end - sp.start
            t.root_wall += wall
            t.self_total += subtree_self[i]
            t.overlap_total += subtree_overlap[i]
            gap = abs(subtree_self[i] - subtree_overlap[i] - wall)
            t.worst_root_gap = max(t.worst_root_gap, gap)
    return t
