"""Output bytes match the benchmark's committed reference hashes.

perfbench/reference.json records the SHA-256 of every cache and CSV that the
benchmark's workloads write at seed 1.  This test runs the command lines of
the query-sweeps and cli-cold workloads, as perfbench/run.py lists them,
in-process through ``covertq.cli.main`` and checks every artifact against
those hashes.  The K = 1e7 sample-large cache is left to the benchmark.
The hashes hold for the numpy and scipy versions recorded beside them; under
other versions the test is skipped.  They also hold only on hosts where numpy
dispatches its X86_V4 (AVX-512) kernels, whose float64 exp, log1p and power
round differently from numpy's other paths; a failure names the features
numpy dispatched, so a host without them reads as that known limit.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest
import scipy

from covertq import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def load_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def dispatched_cpu_features():
    # The optimised kernels numpy picked at run time on this host.
    umath = numpy._core._multiarray_umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


@pytest.mark.skipif(
    (numpy.__version__, scipy.__version__) != (REFERENCE["numpy"], REFERENCE["scipy"]),
    reason="reference hashes were recorded under other numpy/scipy versions",
)
@pytest.mark.parametrize("workload", ["query-sweeps", "cli-cold"])
def test_artifacts_match_reference_hashes(monkeypatch, tmp_path, workload):
    run = load_run(monkeypatch)
    w = run.WORKLOADS[workload]
    ctx = SimpleNamespace(dir=tmp_path, k=w.k, seed=REFERENCE["seed"])
    setup, ops = w.prepare(ctx)
    hashes = {}
    for op in (*setup, *ops):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(op.argv)) == 0, op.argv
        for key, path in op.outputs:
            hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashes == REFERENCE["workloads"][workload], (
        f"numpy dispatches {dispatched_cpu_features()}; the reference hashes hold "
        "where it dispatches X86_V4")
