"""The benchmark tracer patches covertq call sites by module attribute name.

perfbench/spans.py looks up each traced function where its callers find it
(``covertq.cli.optimize``, ``covertq.sensitivity.optimize``, ...).  A
refactor that drops one of those imports breaks every traced benchmark run,
and one that moves a measured argument zeroes its counts; these tests catch
both in the tier-1 suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import covertq
import covertq.cli  # noqa: F401  (the tracer patches cli call sites too)
from covertq import samples

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


def test_tracer_counts_a_traced_pass(monkeypatch, tmp_path):
    # The tracer reads each sampler's count as positional argument 1 and
    # write_csv's rows as argument 2; a signature change that moves either
    # one zeroes or breaks these counts, and this test names the site.
    spans = load_spans(monkeypatch)
    K = samples._BLOCK + 4_464  # two generation blocks, the second partial
    cache = tmp_path / "s.cqcs"
    tracer = spans.Tracer(covertq)
    tracer.install()
    try:
        for argv in (["sample", "--k", str(K), "--workers", "1", "--out", str(cache)],
                     ["optimize", "--cache", str(cache), "--out", str(tmp_path / "o.csv")]):
            with tracer.span(f"cli.{argv[0]}"):
                assert covertq.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    t = spans.aggregate(tracer.take())
    for sampler in ("sample_truncated_lognormal", "sample_truncated_gaussian"):
        name = f"distributions.{sampler}"
        assert (t.calls[name], t.rows[name]) == (2, K), name
    assert t.calls["distributions.stream_uniforms"] == 4
    assert t.rows["distributions.stream_uniforms"] == 2 * K
    assert t.rows["csvio.write_csv"] == 1
    assert t.nbytes["samples.save_sample_set"] == 16 * K + 64
    assert t.nbytes["samples.load_sample_set"] == 16 * K + 64
    assert t.worst_root_gap < 1e-6


def test_tracer_sees_sensitivity_stencil(monkeypatch, tmp_path):
    # sensitivities_symmetric calls optimize three times per point, and
    # strict_outage_quantile once more for its atom check; the tracer must
    # see both call sites through sensitivity's module attributes.
    spans = load_spans(monkeypatch)
    cache, config = tmp_path / "s.cqcs", tmp_path / "atom.json"
    config.write_text('{"channel": {"sigma_ln": 0.1}}')  # r_ach has an atom at 0
    sample = ["sample", "--k", "20000", "--config", str(config), "--out", str(cache)]
    assert covertq.cli.main(sample) == 0
    assert covertq.load_sample_set(cache).rach[0] == 0.0
    tracer = spans.Tracer(covertq)
    tracer.install()
    try:
        with tracer.span("cli.sensitivity"):
            assert covertq.cli.main(["sensitivity", "--cache", str(cache), "--config",
                                     str(config), "--points", "3",
                                     "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        tracer.uninstall()
    t = spans.aggregate(tracer.take())
    assert t.sensitivity_optimize_calls == 9
    assert t.calls["quantiles.strict_outage_quantile"] == 3 * (6 + 1)
    assert t.worst_root_gap < 1e-6


def test_tracer_counts_every_writer(monkeypatch, tmp_path):
    # Every CSV writer reaches write_csv through a traced call site with its
    # rows at argument 2: 4 + 9 + 6 + 4 + 3 + 40 + 625 + 10 rows in 8 calls.
    spans = load_spans(monkeypatch)
    cache = tmp_path / "s.cqcs"
    assert covertq.cli.main(["sample", "--k", "2000", "--out", str(cache)]) == 0
    cached = (["frontier", "--points", "4"], ["surface", "--points", "3"], ["scaling"],
              ["decade-gains"], ["sensitivity", "--points", "3"],
              ["risk-adjusted", "--mode", "sweep", "--grid-points", "11"],
              ["risk-adjusted", "--mode", "heatmap", "--grid-points", "11"])
    argvs = [*([*argv, "--cache", str(cache)] for argv in cached),
             ["benchmark-validate", "--k", "2000"]]
    tracer = spans.Tracer(covertq)
    tracer.install()
    try:
        for i, argv in enumerate(argvs):
            out = str(tmp_path / f"{i}.csv")
            with tracer.span(f"cli.{argv[0]}"):
                # decade-gains writes its CSV even when a gain is infeasible.
                assert covertq.cli.main([*argv, "--out", out]) in (0, 4)
    finally:
        tracer.uninstall()
    t = spans.aggregate(tracer.take())
    assert t.calls["csvio.write_csv"] == 8
    assert t.rows["csvio.write_csv"] == 701
    assert t.worst_root_gap < 1e-6
