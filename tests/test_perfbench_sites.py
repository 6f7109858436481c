"""The benchmark tracer patches covertq call sites by module attribute name.

perfbench/spans.py looks up each traced function where its callers find it
(``covertq.cli.optimize``, ``covertq.sensitivity.optimize``, ...).  A
refactor that drops one of those imports breaks every traced benchmark run;
this test catches it in the tier-1 suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import covertq
import covertq.cli  # noqa: F401  (the tracer patches cli call sites too)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_call_sites_exist(monkeypatch):
    original = covertq.cli.optimize
    tracer = load_spans(monkeypatch).Tracer(covertq)
    try:
        tracer.install()  # AttributeError names a call site that is gone
        assert covertq.cli.optimize is not original
    finally:
        tracer.uninstall()
    assert covertq.cli.optimize is original
