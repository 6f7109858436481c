#!/usr/bin/env python3
"""covertq benchmark: three CLI workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload query-sweeps --seed 1 --seconds 30 --trace 0

The benchmark imports covertq from ``src/`` of the checkout it sits in and
drives ``covertq.cli.main(argv)`` in-process: one process, one closed-loop
client, never more generation workers than the machine has processors.  A run
sets its workload up, then repeats passes over the workload's command list
until ``--seconds`` have gone by, hashing every cache and CSV the commands
write.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with times scaled to a reference machine speed (see Calibration).
With ``--trace 1`` untraced and traced passes alternate (see spans.py) and
the metrics are the per-layer ones.  Lines before the JSON record the run
environment and the per-command figures of the workload.  README.md lists the
workloads, every metric, and which layer metric should move which end-to-end
metric.

Other modes: ``--smoke`` runs at tiny K (see smoke.py), ``--write-reference``
rewrites reference.json from one pass per workload at the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
SETUP_PROBES = 5
MIN_PASSES = 3
SMOKE_K_DIVISOR = 1000
NPROC = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def load_covertq():
    """Import covertq from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "covertq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no covertq sources under {src}")
    sys.path.insert(0, str(src))
    import covertq
    import covertq.cli  # noqa: F401  (submodules the benchmark drives)

    if Path(covertq.__file__).resolve().parent != src / "covertq":
        raise SystemExit(f"perfbench: imported covertq from {covertq.__file__}, not {src}")
    return covertq


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One timed operation: a covertq command line or a direct cache load."""

    label: str
    argv: tuple = ()
    outputs: tuple = ()  # (artifact key, path) pairs the operation writes
    load: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    heavy: str  # label of the op reported as heavy_cmd_s
    quick: str  # label of the op reported as quick_cmd_ms.p50
    prepare: object  # (ctx) -> (setup ops, pass ops)
    report: object  # (ctx, times, pass walls) -> [(name, value, unit, n)]


def _sample_large(ctx):
    w2 = min(2, NPROC)
    cache = ctx.dir / "samples.cqcs"
    ops = []
    for label, workers in (("sample.w1", 1), ("sample.w2", w2)):
        ops.append(Op(
            label,
            ("sample", "--k", str(ctx.k), "--seed", str(ctx.seed),
             "--workers", str(workers), "--out", str(cache)),
            (("samples.cqcs", cache),),
        ))
        ops.append(Op("load", load=cache))
    return [], ops


def _report_sample_large(ctx, times, walls):
    return [
        ("sample_rows_per_s.w1", ctx.k / statistics.median(times["sample.w1"]), "1/s",
         len(times["sample.w1"])),
        ("sample_rows_per_s.w2", ctx.k / statistics.median(times["sample.w2"]), "1/s",
         len(times["sample.w2"])),
        ("cache_load_rows_per_s", ctx.k / statistics.median(times["load"]), "1/s",
         len(times["load"])),
    ]


QUERY_OPTIMIZE_REPEATS = 10
BUDGET_SWEEPS = ("frontier", "surface", "scaling", "decade-gains", "sensitivity")


def _query_sweeps(ctx):
    cache = ctx.dir / "samples.cqcs"
    setup = [Op(
        "setup.sample",
        ("sample", "--k", str(ctx.k), "--seed", str(ctx.seed), "--workers", "1",
         "--out", str(cache)),
        (("samples.cqcs", cache),),
    )]

    def query(label, *args):
        out = ctx.dir / f"{label}.csv"
        return Op(label, (*args, "--cache", str(cache), "--out", str(out)),
                  ((f"{label}.csv", out),))

    ops = [query("optimize", "optimize") for _ in range(QUERY_OPTIMIZE_REPEATS)]
    ops += [query(name, name) for name in BUDGET_SWEEPS]
    ops.append(query("lambda-sweep", "risk-adjusted", "--mode", "sweep"))
    ops.append(query("heatmap", "risk-adjusted", "--mode", "heatmap"))
    return setup, ops


def _report_query_sweeps(ctx, times, walls):
    opt_ms = [1e3 * t for t in times["optimize"]]
    budget = [sum(parts) for parts in zip(*(times[name] for name in BUDGET_SWEEPS))]
    return [
        ("optimize_ms.p50", statistics.median(opt_ms), "ms", len(opt_ms)),
        _tail("optimize_ms", opt_ms, "ms"),
        ("budget_sweeps_s", statistics.median(budget), "s", len(budget)),
        ("lambda_sweep_s", statistics.median(times["lambda-sweep"]), "s",
         len(times["lambda-sweep"])),
        ("heatmap_s", statistics.median(times["heatmap"]), "s", len(times["heatmap"])),
    ]


BENCHMARK_CHANNEL = {"kind": "benchmark", "eta0": 0.9, "rate": 10.0}


def _cli_cold(ctx):
    config = ctx.dir / "benchmark-channel.json"
    config.write_text(json.dumps({"channel": BENCHMARK_CHANNEL}))
    common = ("--k", str(ctx.k), "--seed", str(ctx.seed), "--workers", "1")

    def cold(label, *args, out_name=None):
        out = ctx.dir / (out_name or f"{label}.csv")
        return Op(label, (*args, *common, "--out", str(out)), ((out.name, out),))

    ops = [cold("sample", "sample", out_name="samples.cqcs")]
    ops.append(cold("optimize", "optimize"))
    ops.append(cold("optimize-config", "optimize", "--config", str(config)))
    ops += [cold(name, name) for name in ("frontier", "surface", "scaling")]
    ops.append(cold("benchmark-validate", "benchmark-validate",
                    "--eta0", str(BENCHMARK_CHANNEL["eta0"]),
                    "--rate", str(BENCHMARK_CHANNEL["rate"])))
    ops += [cold(name, name) for name in ("decade-gains", "sensitivity")]
    ops.append(cold("lambda-sweep", "risk-adjusted", "--mode", "sweep"))
    ops.append(cold("heatmap", "risk-adjusted", "--mode", "heatmap"))
    return [], ops


def _report_cli_cold(ctx, times, walls):
    cold_pass = [w - h for w, h in zip(walls, times["heatmap"])]
    return [
        ("cold_pass_s", statistics.median(cold_pass), "s", len(cold_pass)),
        ("heatmap_s", statistics.median(times["heatmap"]), "s", len(times["heatmap"])),
        ("validate_max_rel_err_pct", _max_validation_error(ctx.dir / "benchmark-validate.csv"),
         "%", 1),
    ]


def _max_validation_error(path: Path) -> float:
    import csv

    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return max(float(r["rel_error_percent"]) for r in rows if r["rel_error_percent"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sample-large", 10_000_000, "sample.w1", "load",
                 _sample_large, _report_sample_large),
        Workload("query-sweeps", 1_000_000, "heatmap", "optimize",
                 _query_sweeps, _report_query_sweeps),
        Workload("cli-cold", 100_000, "heatmap", "optimize",
                 _cli_cold, _report_cli_cold),
    )
}


def _tail(name, values, unit):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return (f"{name}.max", max(values), unit, n)
    return (f"{name}.p{pct}", statistics.quantiles(values, n=100)[pct - 1], unit, n)


# -- running operations and checking their outputs -----------------------------


def sha256_file(path: Path, skip: int = 0) -> tuple[str, str]:
    """SHA-256 of the whole file and of its bytes from offset ``skip`` on."""
    whole, tail = hashlib.sha256(), hashlib.sha256()
    seen = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            whole.update(chunk)
            if seen + len(chunk) > skip:
                tail.update(chunk[max(0, skip - seen):])
            seen += len(chunk)
    return whole.hexdigest(), tail.hexdigest()


# Cache layout (covertq.samples): a 64-byte header, then c_cov and r_ach.
CACHE_HEADER_BYTES = 64


@dataclass
class Context:
    workload: Workload
    seed: int
    k: int
    dir: Path
    pkg: object
    expected: dict  # artifact key -> SHA-256 every write must reproduce
    strict: bool  # expected holds the committed reference: unknown keys fail
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    payloads: dict = field(default_factory=dict)  # cache path -> payload SHA-256
    max_workers: int = 0

    def note_workers(self, workers: int) -> None:
        self.max_workers = max(self.max_workers, workers)
        if workers > NPROC:
            raise SystemExit(f"perfbench: workers={workers} exceeds {NPROC} processors")

    def fail(self, op: Op, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{op.label}: {why}")


def run_op(ctx: Context, op: Op, tracer=None, check: bool = True) -> float:
    """Run one operation, return its wall time, count it and check its outputs."""
    if "--workers" in op.argv:
        ctx.note_workers(int(op.argv[op.argv.index("--workers") + 1]))
    out, err = io.StringIO(), io.StringIO()
    root = (tracer.span(f"cli.{op.argv[0]}") if tracer is not None and op.argv
            else contextlib.nullcontext())
    rc, loaded, error = 0, None, None
    t0 = time.perf_counter()
    try:
        with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv:
                rc = ctx.pkg.cli.main(list(op.argv))
            else:
                loaded = ctx.pkg.samples.load_sample_set(op.load)
    except Exception as e:  # an operation that raises is a failed operation
        error = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if not check:
        return elapsed

    ctx.attempted += 1
    problems = []
    if error:
        problems.append(error)
    elif rc != 0:
        problems.append(f"exit {rc}: {err.getvalue().strip()[:200]}")
    elif op.argv and not out.getvalue().startswith(f"wrote {op.outputs[0][1]}"):
        problems.append(f"unexpected stdout {out.getvalue()[:200]!r}")
    if not problems:
        problems += _check_outputs(ctx, op, loaded)
    if problems:
        ctx.failed += 1
        for why in problems:
            ctx.fail(op, why)
    return elapsed


def _check_outputs(ctx: Context, op: Op, loaded) -> list[str]:
    problems = []
    for key, path in op.outputs:
        whole, payload = sha256_file(path, CACHE_HEADER_BYTES)
        if path.suffix == ".cqcs":
            ctx.payloads[path] = payload
        expected = ctx.expected.get(key)
        if expected is None and not ctx.strict:
            ctx.expected[key] = expected = whole
        if whole != expected:
            problems.append(f"{key} sha256 {whole[:16]} != expected {str(expected)[:16]}")
    if loaded is not None:
        h = hashlib.sha256(loaded.ccov)
        h.update(loaded.rach)
        if (loaded.K, loaded.seed) != (ctx.k, ctx.seed):
            problems.append(f"loaded K={loaded.K} seed={loaded.seed}")
        elif h.hexdigest() != ctx.payloads.get(op.load):
            problems.append("loaded arrays differ from the cache payload")
    return problems


# -- measurement ----------------------------------------------------------------

# Median time of one Calibration() call on the machine the benchmark was
# written on, when idle.  Reported times are scaled to that speed.
CAL_REF_S = 0.02


class Calibration:
    """Times a fixed kernel, independent of covertq, in a helper process.

    It is timed before and after every operation.  This machine's speed
    drifts by tens of percent over minutes (co-tenants), so an operation
    that took ``t`` seconds in a pass whose kernel times have median ``c``
    is reported as ``t * CAL_REF_S / c``: seconds at the reference speed.
    The kernel runs in its own process so that its memory counts neither
    towards the benchmark's peak RSS nor depends on covertq's heap.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--calibration-helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: calibration helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def calibration_helper() -> int:
    """Serve Calibration: one timed kernel per line read from stdin."""
    import numpy as np

    rng = np.random.default_rng(20260101)
    small, stream = rng.random(1 << 16), rng.random(1 << 18)

    def cached():
        np.sort(small)
        np.log1p(np.exp(stream))

    for _ in sys.stdin:
        cached()  # refill the caches the last operation evicted
        t0 = time.perf_counter()
        cached()
        np.ones(1 << 22).sum()  # 32 MiB of fresh pages: fault, zero, stream
        total = 0
        for i in range(10_000):
            total += i & 7
        print(time.perf_counter() - t0, flush=True)
    return 0


@dataclass
class Timings:
    """Seconds per operation label and per pass, raw and at reference speed."""

    raw: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    raw_passes: list = field(default_factory=list)
    ref_passes: list = field(default_factory=list)
    cal: list = field(default_factory=list)


def run_pass(ctx: Context, ops, timings: Timings, cal=None, tracer=None) -> None:
    gc.collect()
    cals = [cal()] if cal else []
    raw = []
    for op in ops:
        raw.append(run_op(ctx, op, tracer))
        if cal:
            cals.append(cal())
    timings.raw_passes.append(sum(raw))
    for op, dt in zip(ops, raw):
        timings.raw.setdefault(op.label, []).append(dt)
    if cal:
        scale = CAL_REF_S / statistics.median(cals)
        timings.ref_passes.append(scale * sum(raw))
        for op, dt in zip(ops, raw):
            timings.ref.setdefault(op.label, []).append(scale * dt)
        timings.cal.extend(cals)


def measure_untraced(ctx: Context, ops, seconds: float) -> Timings:
    timings = Timings()
    deadline = time.perf_counter() + seconds
    with Calibration() as cal:
        while len(timings.raw_passes) < MIN_PASSES or time.perf_counter() < deadline:
            run_pass(ctx, ops, timings, cal)
    return timings


def measure_traced(ctx: Context, ops, seconds: float):
    """Alternate untraced and traced passes; return both and the traces."""
    from spans import Tracer, aggregate

    tracer = Tracer(ctx.pkg, on_workers=ctx.note_workers)
    untraced, traced, traces = Timings(), Timings(), []
    deadline = time.perf_counter() + seconds
    while len(traces) < MIN_PASSES - 1 or time.perf_counter() < deadline:
        run_pass(ctx, ops, untraced)
        tracer.install()
        try:
            run_pass(ctx, ops, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        traces.append(aggregate(tracer.take()))
    return untraced.raw_passes, traced.raw_passes, traces


def setup_seconds(workload: str, seed: int, smoke: bool) -> list[float]:
    """Fresh interpreter to ready-to-measure, at reference speed, per probe."""
    out = []
    with Calibration() as cal:
        for _ in range(SETUP_PROBES):
            cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                   "--workload", workload, "--seed", str(seed)]
            if smoke:
                cmd.append("--smoke")
            before = cal()
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: setup probe failed: {proc.stderr.strip()[-500:]}")
            ready = float(proc.stdout.split()[-1]) - t0
            out.append(ready * CAL_REF_S * 2 / (before + cal()))
    return out


def environment() -> dict:
    import numpy
    import scipy

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def cache_size(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                continue
        return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    return {
        "cpu": cpu_model(), "nproc": NPROC, "l2_per_core": cache_size(2),
        "l3": cache_size(3), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ctx, setup, timings: Timings):
    w, ref = ctx.workload, timings.ref
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kib * 1024 / 1e6, "MB"),
        "pass_s": _metric(statistics.median(timings.ref_passes), "s"),
        "heavy_cmd_s": _metric(statistics.median(ref[w.heavy]), "s"),
        "quick_cmd_ms.p50": _metric(1e3 * statistics.median(ref[w.quick]), "ms"),
    }


COMMANDS = ("sample", "optimize", "frontier", "surface", "scaling", "benchmark-validate",
            "decade-gains", "risk-adjusted", "sensitivity")

# Metric name -> (unit, kind, span name): kind selects the PassTrace field.
LAYER_METRICS = {
    "distributions.stream_uniforms.calls": ("count", "calls", "distributions.stream_uniforms"),
    "distributions.stream_uniforms.rows": ("count", "rows", "distributions.stream_uniforms"),
    "distributions.stream_uniforms.busy_s": ("s", "busy", "distributions.stream_uniforms"),
    "distributions.sample_truncated_lognormal.busy_s":
        ("s", "busy", "distributions.sample_truncated_lognormal"),
    "distributions.sample_truncated_gaussian.busy_s":
        ("s", "busy", "distributions.sample_truncated_gaussian"),
    "distributions.sample_exponential.busy_s":
        ("s", "busy", "distributions.sample_exponential"),
    "physics.covertness_constant.rows": ("count", "rows", "physics.covertness_constant"),
    "physics.covertness_constant.busy_s": ("s", "busy", "physics.covertness_constant"),
    "physics.achievable_rate.rows": ("count", "rows", "physics.achievable_rate"),
    "physics.achievable_rate.busy_s": ("s", "busy", "physics.achievable_rate"),
    "samples.generate_sample_set.calls": ("count", "calls", "samples.generate_sample_set"),
    "samples.generate_sample_set.busy_s": ("s", "busy", "samples.generate_sample_set"),
    "samples.generate_sample_set.self_s": ("s", "self", "samples.generate_sample_set"),
    "samples.save_sample_set.busy_s": ("s", "busy", "samples.save_sample_set"),
    "samples.save_sample_set.bytes": ("B", "nbytes", "samples.save_sample_set"),
    "samples.load_sample_set.calls": ("count", "calls", "samples.load_sample_set"),
    "samples.load_sample_set.busy_s": ("s", "busy", "samples.load_sample_set"),
    "samples.load_sample_set.bytes": ("B", "nbytes", "samples.load_sample_set"),
    "quantiles.strict_cdf.calls": ("count", "calls", "quantiles.strict_cdf"),
    "quantiles.strict_cdf.busy_s": ("s", "busy", "quantiles.strict_cdf"),
    "quantiles.strict_outage_quantile.calls":
        ("count", "calls", "quantiles.strict_outage_quantile"),
    "quantiles.strict_outage_quantile.busy_s":
        ("s", "busy", "quantiles.strict_outage_quantile"),
    "risk_constrained.optimize.calls": ("count", "calls", "risk_constrained.optimize"),
    "risk_constrained.optimize.self_s": ("s", "self", "risk_constrained.optimize"),
    "risk_constrained.frontier_sweep.self_s": ("s", "self", "risk_constrained.frontier_sweep"),
    "risk_constrained.surface_sweep.self_s": ("s", "self", "risk_constrained.surface_sweep"),
    "risk_constrained.n_scaling_sweep.self_s":
        ("s", "self", "risk_constrained.n_scaling_sweep"),
    "sensitivity.sensitivities_symmetric.busy_s":
        ("s", "busy", "sensitivity.sensitivities_symmetric"),
    "sensitivity.sensitivities_symmetric.self_s":
        ("s", "self", "sensitivity.sensitivities_symmetric"),
    "risk_adjusted.grid_maximize.calls": ("count", "calls", "risk_adjusted.grid_maximize"),
    "risk_adjusted.grid_maximize.busy_s": ("s", "busy", "risk_adjusted.grid_maximize"),
    "risk_adjusted.grid_maximize.self_s": ("s", "self", "risk_adjusted.grid_maximize"),
    "benchmark.validate.busy_s": ("s", "busy", "benchmark.validate"),
    "benchmark.validate.self_s": ("s", "self", "benchmark.validate"),
    "csvio.write_csv.calls": ("count", "calls", "csvio.write_csv"),
    "csvio.write_csv.rows": ("count", "rows", "csvio.write_csv"),
    "csvio.write_csv.bytes": ("B", "nbytes", "csvio.write_csv"),
    "csvio.write_csv.busy_s": ("s", "busy", "csvio.write_csv"),
    "cli.resolve_config.busy_s": ("s", "busy", "cli.resolve_config"),
    **{f"cli.{c}.self_s": ("s", "self", f"cli.{c}") for c in COMMANDS},
}

# Optimize calls a two-budget central difference needs per point: t_star at
# eps +- h in each budget.
SENSITIVITY_USEFUL_CALLS = 4


def per_layer_pass(t) -> dict:
    """Per-layer values of one traced pass (counts exact, times in seconds)."""
    kinds = {"calls": t.calls, "rows": t.rows, "nbytes": t.nbytes,
             "busy": t.busy, "self": t.self_time}
    out = {name: kinds[kind].get(span, 0) for name, (_, kind, span) in LAYER_METRICS.items()}
    per_point = t.sensitivity_optimize_calls / t.points if t.points else 0.0
    out.update({
        "distributions.bytes_computed": sum(
            t.nbytes[name] for name in t.nbytes if name.startswith("distributions.")),
        "samples.generate.thread_busy_ratio":
            t.generate_child_busy / t.generate_capacity if t.generate_capacity else 0.0,
        "sensitivity.optimize_calls_per_point": per_point,
        "sensitivity.useful_call_ratio":
            SENSITIVITY_USEFUL_CALLS / per_point if per_point else 0.0,
        "risk_adjusted.grid_cells": t.cells,
        "trace.spans": t.spans,
    })
    return out


EXTRA_LAYER_UNITS = {
    "distributions.bytes_computed": "B",
    "samples.generate.thread_busy_ratio": "ratio",
    "sensitivity.optimize_calls_per_point": "calls/point",
    "sensitivity.useful_call_ratio": "ratio",
    "risk_adjusted.grid_cells": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
LAYER_UNITS = {name: spec[0] for name, spec in LAYER_METRICS.items()} | EXTRA_LAYER_UNITS


def per_layer(untraced, traced, traces, report):
    passes = [per_layer_pass(t) for t in traces]
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            continue
        values = [p[name] for p in passes]
        if unit in ("s", "ratio"):
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                report(f"warning {name} differs between traced passes: {values}")
        metrics[name] = _metric(value, unit)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")

    worst = max(t.worst_root_gap for t in traces)
    if worst > 1e-6:
        raise SystemExit(f"perfbench: span self times miss a command's wall by {worst} s")
    mid = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    t = traces[mid]
    report(
        "accounting untraced_pass_s={:.6f} traced_pass_s={:.6f} overhead_s={:.6f} | "
        "median traced pass: wall_s={:.6f} = layer_self_s={:.6f} - parallel_overlap_s={:.6f}"
        " + outside_spans_s={:.6f}; worst_command_gap_s={:.1e}".format(
            statistics.median(untraced), statistics.median(traced), overhead,
            traced[mid], t.self_total, t.overlap_total, traced[mid] - t.root_wall, worst))
    return metrics


# -- entry points ---------------------------------------------------------------


def make_context(pkg, name: str, seed: int, smoke: bool, run_dir: Path, reference) -> Context:
    workload = WORKLOADS[name]
    k = max(1000, workload.k // SMOKE_K_DIVISOR) if smoke else workload.k
    expected = dict(reference.get(name, {})) if reference is not None else {}
    return Context(workload=workload, seed=seed, k=k, dir=run_dir, pkg=pkg,
                   expected=expected, strict=reference is not None)


def load_reference(seed: int, smoke: bool):
    if smoke or seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"]


def run(args) -> int:
    pkg = load_covertq()
    os.environ.pop(pkg.cli.OUTPUT_DIR_ENV, None)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            ctx = make_context(pkg, args.workload, args.seed, args.smoke, run_dir, None)
            setup_ops, _ = ctx.workload.prepare(ctx)
            for op in setup_ops:
                run_op(ctx, op, check=False)
            print(time.monotonic())
            return 0
        if args.write_reference:
            return write_reference(pkg, run_dir)
        return measure(pkg, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(pkg, args, run_dir: Path) -> int:
    def report(line):
        print(line, flush=True)

    report("env " + json.dumps(environment(), sort_keys=True))
    ctx = make_context(pkg, args.workload, args.seed, args.smoke, run_dir,
                       load_reference(args.seed, args.smoke))
    setup_ops, ops = ctx.workload.prepare(ctx)
    for op in setup_ops:
        run_op(ctx, op)

    if args.trace:
        untraced, traced, traces = measure_traced(ctx, ops, args.seconds)
        metrics = per_layer(untraced, traced, traces, report)
        report(f"passes untraced={len(untraced)} traced={len(traced)}")
    else:
        setup = setup_seconds(args.workload, args.seed, args.smoke)
        timings = measure_untraced(ctx, ops, args.seconds)
        metrics = end_to_end(ctx, setup, timings)
        issue = [("setup_s", statistics.median(setup), "s", len(setup)),
                 ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", 1),
                 *ctx.workload.report(ctx, timings.ref, timings.ref_passes)]
        for name, value, unit, n in issue:
            report(f"metric {name} {value!r} {unit} n={n}")
        for label, values in timings.raw.items():
            report(f"command {label} raw_median_s={statistics.median(values)!r} "
                   f"ref_median_s={statistics.median(timings.ref[label])!r} n={len(values)}")
        report(f"calibration median_s={statistics.median(timings.cal)!r} "
               f"ref_s={CAL_REF_S} n={len(timings.cal)}")
        report(f"passes {len(timings.raw_passes)}")

    ratio = ctx.failed / ctx.attempted if ctx.attempted else 0.0
    report(f"metric failed_op_ratio {ratio!r} ratio n={ctx.attempted}")
    report(f"max_workers_passed {ctx.max_workers} nproc {NPROC}")
    for problem in ctx.problems:
        report(f"problem {problem}")
    result = {
        "correct": ctx.failed == 0 and not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def write_reference(pkg, run_dir: Path) -> int:
    import numpy
    import scipy

    workloads = {}
    for name in WORKLOADS:
        wdir = run_dir / name
        wdir.mkdir()
        ctx = make_context(pkg, name, REFERENCE_SEED, False, wdir, None)
        setup_ops, ops = ctx.workload.prepare(ctx)
        for op in setup_ops + ops:
            run_op(ctx, op)
        if ctx.failed:
            raise SystemExit(f"perfbench: {name} failed: {ctx.problems}")
        workloads[name] = dict(sorted(ctx.expected.items()))
    REFERENCE.write_text(json.dumps({
        "seed": REFERENCE_SEED, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "workloads": workloads,
    }, indent=2) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="query-sweeps")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"divide every K by {SMOKE_K_DIVISOR} (checks the benchmark itself)")
    p.add_argument("--write-reference", action="store_true",
                   help=f"rewrite {REFERENCE.name} from one pass per workload at seed "
                        f"{REFERENCE_SEED}")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--calibration-helper", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(calibration_helper() if arguments.calibration_helper else run(arguments))
