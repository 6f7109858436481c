#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny K (about a minute).

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json, traced and untraced, it runs
``run.py --smoke`` and checks that the run exits 0 and ends with a result
line whose metrics are exactly the ones BENCHMARK.json names, with the same
units; that no operation failed; that every per-task figure is printed with
its unit; and that no ``workers`` value above the processor count was passed.
It also checks that run.py fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 1 and
lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Per-task figures each untraced run prints as "metric <name> <value> <unit> n=<count>".
TASK_METRICS = {
    "setup_s": "s", "failed_op_ratio": "ratio", "peak_rss_mb": "MB",
    "sample_rows_per_s.w1": "1/s", "sample_rows_per_s.w2": "1/s",
    "cache_load_rows_per_s": "1/s", "optimize_ms.p50": "ms", "optimize_ms.tail": "ms",
    "budget_sweeps_s": "s", "lambda_sweep_s": "s", "heatmap_s": "s",
    "cold_pass_s": "s", "validate_max_rel_err_pct": "%",
}
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace, problems, printed):
    where = f"{workload} --trace {trace}"
    proc = run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    listed = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    for line in lines[:-1]:
        if match := METRIC_LINE.match(line):
            name, value, unit, _ = match.groups()
            if name.startswith("optimize_ms.") and name != "optimize_ms.p50":
                name = "optimize_ms.tail"  # the highest percentile the sample count allows
            printed[name] = unit
            if name == "failed_op_ratio" and float(value) != 0.0:
                problems.append(f"{where}: failed_op_ratio {value}")
        elif line.startswith("max_workers_passed"):
            _, workers, _, nproc = line.split()
            if int(workers) > min(int(nproc), os.cpu_count() or 1):
                problems.append(f"{where}: workers={workers} passed on {nproc} processors")


def check_bare_directory(problems):
    """run.py must fail, without a result, where covertq's sources are absent."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-cold",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, printed = [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(bench, workload, trace, problems, printed)
    for name, unit in TASK_METRICS.items():
        if printed.get(name) != unit:
            problems.append(f"per-task figure {name} printed with unit {printed.get(name)}")
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
