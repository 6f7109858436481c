"""End-to-end CLI behavior: artifacts, precedence rules, and exit codes.

Every input refused with exit 2 before a set is drawn or loaded is one row
of CONFIG_ERRORS, and test_config_error_exits_2_before_sampling checks the
whole contract for each row: the exit code, one `config error: ` line
holding the row's message, no traceback, nothing drawn or loaded and nothing
written.  Every cache or output refused with exit 3 is one row of IO_ERRORS,
and test_io_error_exits_3 checks each row for exit 3, one `i/o error: ` line
holding its message, no traceback and nothing written.  Exit-2 refusals that
come later, once a set is drawn or a cache read, have tests of their own.
"""

import errno
import json
import math
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covertq
from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    RiskBudgets,
    SensitivityPoint,
    channel_digest,
    generate_sample_set,
    load_sample_set,
    optimize,
    save_sample_set,
)
from covertq import cli, risk_constrained, samples
from covertq.risk_adjusted import HeatmapResult
from covertq.samples import SampleFileTruncatedError

from conftest import make_baseline_spec, peak_bytes, run_fresh


def run(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# The channel digest of the default config's channel.
BASELINE_DIGEST = channel_digest(make_baseline_spec()).hex()


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


# ---------------------------------------------------------------------------
# sample / cache round trip


def test_sample_then_optimize_from_cache(tmp_path, capsys):
    cache = tmp_path / "samples.cqcs"
    assert run("sample", "--k", "2000", "--seed", "3", "--out", str(cache)) == 0
    assert cache.exists()
    assert "wrote" in capsys.readouterr().out

    out = tmp_path / "opt.csv"
    rc = run("optimize", "--cache", str(cache), "--eps-cov", "0.1",
             "--eps-rel", "0.1", "--out", str(out))
    assert rc == 0

    lines = out.read_text().splitlines()
    assert lines[0] == f"# seed=3 K=2000 channel_digest={BASELINE_DIGEST}"
    assert lines[1] == ("eps_cov,eps_rel,q_max,r_max,t_star,n_t_star,"
                        "q_capped,feasible,below_resolution")

    s = load_sample_set(cache)
    report = optimize(s, ProtocolParams(n=10_000_000, delta=0.05),
                      RiskBudgets(0.1, 0.1))
    cells = lines[2].split(",")
    assert cells[2] == repr(report.q_max)
    assert cells[3] == repr(report.r_max)
    assert cells[4] == repr(report.t_star)
    assert cells[5] == repr(report.total_payload)
    assert cells[7] == "true"


def test_csv_written_over_a_file_replaces_it(tmp_path, monkeypatch):
    # A hard link to the old CSV keeps the old bytes, a symlinked --out stays
    # a symlink to the new file, and a device is written as it is.
    out, old, link = tmp_path / "o.csv", tmp_path / "old.csv", tmp_path / "link.csv"
    assert run("optimize", "--k", "200", "--seed", "1", "--out", str(out)) == 0
    first = out.read_bytes()
    os.link(out, old)
    link.symlink_to(out)
    assert run("optimize", "--k", "200", "--seed", "2", "--out", str(link)) == 0
    assert old.read_bytes() == first
    assert link.is_symlink() and link.resolve() == out.resolve()
    assert out.read_text().startswith("# seed=2 ")

    def refuse(path):
        raise AssertionError(f"unlinked {path}")

    monkeypatch.setattr(os, "unlink", refuse)
    assert run("optimize", "--k", "200", "--out", os.devnull) == 0


def test_sample_csv_export(tmp_path):
    cache = tmp_path / "s.cqcs"
    csv_path = tmp_path / "s.csv"
    assert run("sample", "--k", "50", "--seed", "2", "--out", str(cache),
               "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "index,c_cov,r_ach"
    assert len(lines) == 52


def test_optimize_budget_of_one_order_statistic_is_resolved(tmp_path):
    # eps = 1/49 at K = 49 selects x_(2), one order statistic above the
    # minimum, so the report is not below resolution.
    out = tmp_path / "opt.csv"
    eps = repr(1 / 49)
    assert run("optimize", "--k", "49", "--eps-cov", eps, "--eps-rel", eps,
               "--out", str(out)) == 0
    header, row = data_lines(out)
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["below_resolution"] == "false"
    s = generate_sample_set(make_baseline_spec(), 49, seed=1)
    assert float(cells["r_max"]) == s.rach[1]


# ---------------------------------------------------------------------------
# subcommand outputs


def test_frontier_single_point_matches_optimize(tmp_path):
    front = tmp_path / "front.csv"
    opt = tmp_path / "opt.csv"
    common = ("--k", "2000", "--seed", "4")
    assert run("frontier", *common, "--eps-min", "0.07", "--eps-max", "0.07",
               "--points", "1", "--out", str(front)) == 0
    assert run("optimize", *common, "--eps-cov", "0.07", "--eps-rel", "0.07",
               "--out", str(opt)) == 0
    front_row = data_lines(front)[1].split(",")
    opt_row = data_lines(opt)[1].split(",")
    # The sweep grid rebuilds eps through log10/10**x, so the budget cell
    # may differ in the last ulp — the optimizer cells must not.
    assert float(front_row[0]) == pytest.approx(0.07, rel=1e-12)
    assert front_row[1:5] == opt_row[2:6]


def test_optimize_with_infeasible_rate_budget(tmp_path):
    # Lots of zero-rate draws: the optimum degenerates to r_max = 0, which
    # is an answer, not an error.
    cfg = write_config(tmp_path, {"channel": {"kind": "benchmark", "rate": 1.0}})
    out = tmp_path / "opt.csv"
    rc = run("optimize", "--config", cfg, "--k", "400", "--eps-rel", "0.01",
             "--out", str(out))
    assert rc == 0
    cells = data_lines(out)[1].split(",")
    assert cells[3] == "0.0"       # r_max
    assert cells[7] == "false"     # feasible
    assert cells[4] == "0.0"       # t_star


def test_scaling_quadruple_n_doubles_payload(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run("scaling", "--k", "2000", "--n-values", "1000000,4000000",
               "--eps", "0.01", "--out", str(out)) == 0
    rows = [l.split(",") for l in data_lines(out)[1:]]
    assert [r[0] for r in rows] == ["1000000", "4000000"]
    payloads = [float(r[1]) for r in rows]
    assert payloads[1] / payloads[0] == 2.0


def test_benchmark_validate_rows(tmp_path):
    out = tmp_path / "val.csv"
    assert run("benchmark-validate", "--eta0", "0.9", "--rate", "10",
               "--eps-list", "0.1,0.5", "--k", "2000", "--out", str(out)) == 0
    lines = data_lines(out)
    assert lines[0] == "eps,metric,theory,mc,rel_error_percent"
    table = [l.split(",")[:2] for l in lines[1:]]
    assert table == [["0.1", "q_max"], ["0.1", "r_max"],
                     ["0.5", "q_max"], ["0.5", "r_max"]]


def test_benchmark_validate_reads_channel_section(tmp_path):
    # Its refusals are rows of test_config_error_exits_2_before_sampling.
    cfg = write_config(tmp_path, {"channel": {"kind": "benchmark", "eta0": 0.95}})
    out = tmp_path / "val.csv"
    assert run("benchmark-validate", "--config", cfg, "--k", "500",
               "--out", str(out)) == 0
    digest = channel_digest(BenchmarkChannelSpec(0.95, ExponentialSpec(10.0)))
    assert out.read_text().splitlines()[0] == (
        f"# seed=1 K=500 channel_digest={digest.hex()}")


def test_every_csv_stamps_its_source(tmp_path):
    # A cached run stamps the cache's seed and K, whatever --seed and --k
    # say; benchmark-validate, which draws its own set, stamps its config's.
    cache, export = tmp_path / "s.cqcs", tmp_path / "sample.csv"
    assert run("sample", "--seed", "3", "--k", "2000", "--out", str(cache),
               "--csv", str(export)) == 0
    digest = load_sample_set(cache).channel_digest.hex()
    stamp = f"# seed=3 K=2000 channel_digest={digest}"
    assert export.read_text().splitlines()[0] == stamp
    for i, argv in enumerate((
        ["optimize"], ["frontier", "--points", "3"], ["surface", "--points", "2"],
        ["scaling"], ["decade-gains"], ["sensitivity", "--points", "2"],
        ["risk-adjusted", "--mode", "sweep", "--grid-points", "11"],
        ["risk-adjusted", "--mode", "heatmap", "--grid-points", "11"],
    )):
        out = tmp_path / f"{i}.csv"
        rc = run(*argv, "--cache", str(cache), "--seed", "7", "--k", "500",
                 "--out", str(out))
        # decade-gains writes its CSV even when a gain is infeasible (exit 4).
        assert rc in ((0, 4) if argv[0] == "decade-gains" else (0,)), argv
        assert out.read_text().splitlines()[0] == stamp, argv

    out = tmp_path / "val.csv"
    assert run("benchmark-validate", "--seed", "7", "--k", "500",
               "--out", str(out)) == 0
    digest = channel_digest(BenchmarkChannelSpec(0.9, ExponentialSpec(10.0))).hex()
    assert out.read_text().splitlines()[0] == f"# seed=7 K=500 channel_digest={digest}"


def test_decade_gains_feasible(tmp_path):
    out = tmp_path / "gains.csv"
    assert run("decade-gains", "--k", "2000", "--out", str(out)) == 0
    lines = data_lines(out)
    assert lines[0] == "eps_from,eps_to,gain"
    assert len(lines) == 5
    assert all(l.split(",")[2] != "" for l in lines[1:])


def test_decade_gains_infeasible_still_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": {"kind": "benchmark", "rate": 1.0}})
    out = tmp_path / "gains.csv"
    rc = run("decade-gains", "--config", cfg, "--k", "300", "--out", str(out))
    assert rc == 4
    assert "infeasible gain" in capsys.readouterr().err
    lines = data_lines(out)
    assert len(lines) == 5
    # Zero throughput at every smaller budget: all gain cells are empty.
    assert all(l.split(",")[2] == "" for l in lines[1:])


@pytest.mark.parametrize("command, flags, header, rows", [
    ("surface", ("--k", "500", "--eps-min", "0.01"),
     "eps_cov,eps_rel,q_max,r_max,t_star,n_t_star,q_capped", 4),
    ("sensitivity", ("--k", "1000", "--eps-min", "0.05"), "eps,s_cov,s_rel,flags", 2),
], ids=["surface", "sensitivity"])
def test_two_point_sweep_output(tmp_path, command, flags, header, rows):
    # Two points: a 2 x 2 budget grid for surface, two budgets for sensitivity.
    out = tmp_path / f"{command}.csv"
    assert run(command, *flags, "--eps-max", "0.1", "--points", "2", "--out", str(out)) == 0
    lines = data_lines(out)
    assert lines[0] == header
    assert len(lines) == 1 + rows


def test_sensitivity_csv_cells(tmp_path, monkeypatch):
    points = [
        SensitivityPoint(0.1, 1.5, 2.5, ()),
        SensitivityPoint(0.2, 0.5, 0.25, ("atom_suspected", "cap_transition")),
    ]
    monkeypatch.setattr(cli, "sensitivities_symmetric", lambda s, p, grid: points)
    out = tmp_path / "sens.csv"
    assert run("sensitivity", "--k", "10", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# seed=1 K=10 channel_digest={BASELINE_DIGEST}"
    assert lines[1] == "eps,s_cov,s_rel,flags"
    assert lines[2] == "0.1,1.5,2.5,"
    assert lines[3] == "0.2,0.5,0.25,atom_suspected;cap_transition"


def test_risk_adjusted_sweep_and_heatmap(tmp_path):
    cfg = write_config(tmp_path, {
        "sampling": {"k": 500},
        "risk_adjusted": {
            "grid_points": 21,
            "lambda_min": 0.1, "lambda_max": 10.0, "lambda_points": 3,
            "heatmap_min": 0.1, "heatmap_max": 10.0, "heatmap_points": 2,
        },
    })
    sweep = tmp_path / "sweep.csv"
    assert run("risk-adjusted", "--config", cfg, "--mode", "sweep",
               "--axis", "rel", "--out", str(sweep)) == 0
    lines = data_lines(sweep)
    assert lines[0] == ("lambda_cov,lambda_rel,q_star,r_star,j_value,"
                        "outside_sparse_regime")
    assert len(lines) == 4
    # rel axis: lambda_cov column pinned to fixed_other's default.
    assert {l.split(",")[0] for l in lines[1:]} == {"1.0"}

    heat = tmp_path / "heat.csv"
    assert run("risk-adjusted", "--config", cfg, "--mode", "heatmap",
               "--out", str(heat)) == 0
    lines = data_lines(heat)
    assert lines[0] == "lambda_cov,lambda_rel,q_star,r_star"
    assert len(lines) == 5


# Weight grids of two points whose values logspace produces exactly.
WEIGHT_GRID = {"lambda_min": 1.0, "lambda_max": 100.0, "lambda_points": 2,
               "heatmap_min": 1.0, "heatmap_max": 100.0, "heatmap_points": 2}


def heatmap_result(q, r, j, outside):
    return HeatmapResult(*(np.array(col) for col in (q, r, j, outside)))


def test_risk_adjusted_sweep_csv_cells(tmp_path, monkeypatch):
    # The pairs (q, r, j, outside) = (0.25, 0.5, 0.1, False), then
    # (0.0, 0.0, 0.0, True), shaped like the real sweep: one row per
    # lambda_cov, one column per lambda_rel.
    columns = ([0.25, 0.0], [0.5, 0.0], [0.1, 0.0], [False, True])
    monkeypatch.setattr(cli, "heatmap_sweep", lambda s, p, g, cov, rel: heatmap_result(
        *([[a], [b]] if len(cov) == 2 else [[a, b]] for a, b in columns)))
    cfg = write_config(tmp_path, {"risk_adjusted": WEIGHT_GRID})
    out = tmp_path / "sweep.csv"
    assert run("risk-adjusted", "--config", cfg, "--fixed-other", "1.5", "--k", "100",
               "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# seed=3 K=100 channel_digest={BASELINE_DIGEST}"
    assert lines[1] == ("lambda_cov,lambda_rel,q_star,r_star,j_value,"
                        "outside_sparse_regime")
    assert lines[2] == "1.0,1.5,0.25,0.5,0.1,false"
    assert lines[3] == "100.0,1.5,0.0,0.0,0.0,true"
    # A sweep along lambda_rel is one row.
    assert run("risk-adjusted", "--config", cfg, "--fixed-other", "1.5", "--axis", "rel",
               "--k", "100", "--seed", "3", "--out", str(out)) == 0
    assert out.read_text().splitlines()[:3] == [*lines[:2], "1.5,1.0,0.25,0.5,0.1,false"]


def test_risk_adjusted_heatmap_csv_cells(tmp_path, monkeypatch):
    q = [[0.1, 0.2], [0.3, 0.4]]
    r = [[0.5, 0.6], [0.7, 0.8]]
    result = heatmap_result(q, r, [[0.0, 0.0]] * 2, [[False, False]] * 2)
    monkeypatch.setattr(cli, "heatmap_sweep", lambda s, p, g, cov, rel: result)
    cfg = write_config(tmp_path, {"risk_adjusted": WEIGHT_GRID})
    out = tmp_path / "heat.csv"
    assert run("risk-adjusted", "--config", cfg, "--mode", "heatmap", "--k", "4",
               "--seed", "0", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# seed=0 K=4 channel_digest={BASELINE_DIGEST}"
    assert lines[1] == "lambda_cov,lambda_rel,q_star,r_star"
    assert lines[2] == "1.0,1.0,0.1,0.5"
    assert lines[5] == "100.0,100.0,0.4,0.8"


def test_risk_adjusted_extreme_weights_print_no_warning(tmp_path, capsys):
    # Weights near the float maximum overflow J to -inf in cells that cannot
    # win; the run must stay silent about it, not print a numpy warning.
    cfg = write_config(tmp_path, {"risk_adjusted": {
        "mode": "heatmap", "heatmap_min": 1, "heatmap_max": 1e308,
        "heatmap_points": 3, "grid_points": 11,
    }})
    heat = tmp_path / "heat.csv"
    rc = run("risk-adjusted", "--config", cfg, "--k", "1000", "--out", str(heat))
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert len(data_lines(heat)) == 10


@pytest.mark.parametrize("argv, section", [
    (("benchmark-validate", "--rate", "1e-300"), {}),
    (("optimize",), {"channel": {"nb_mu": 1e299, "nb_sigma": 1e298, "nb_upper": 1e300}}),
], ids=["benchmark-validate", "optimize"])
def test_extreme_finite_channel_prints_no_warning(tmp_path, capsys, argv, section):
    # Products in the physics kernels and the benchmark quantile overflow to
    # +inf, the right limit (q caps at 1, r_max is 0); numpy must not warn.
    out = tmp_path / "x.csv"
    rc = run(*argv, "--config", write_config(tmp_path, section), "--k", "1000",
             "--out", str(out))
    assert rc == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "benchmark-validate":
        rows = [line.split(",") for line in data_lines(out)[1:]]
        assert {(metric, theory, mc) for _, metric, theory, mc, _ in rows} == {
            ("q_max", "1.0", "1.0"), ("r_max", "0.0", "0.0")}


@pytest.mark.parametrize("section", [
    {"nb_mu": -0.04},                 # [0, 0.5] lies 40 sigma above the mean
    {"nb_mu": 10.0, "nb_sigma": 0.1},  # ... and 95 sigma below it
    {"mu_ln": 2.0},                   # (0, 1] lies 40 sigma below the lognormal's mean
], ids=["nb-above", "nb-below", "eta"])
def test_channel_beyond_the_float_tail_is_config_error(tmp_path, capsys, section):
    # Its truncated law has no representable mass; the draws once all sat
    # at one interval edge (or at eta = 0) and the run exited 0.
    out = tmp_path / "x.csv"
    rc = run("optimize", "--config", write_config(tmp_path, {"channel": section}),
             "--k", "1000", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and "no representable mass" in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# precedence


def test_seed_flag_beats_config(tmp_path):
    cfg = write_config(tmp_path, {"sampling": {"seed": 2, "k": 500}})
    out = tmp_path / "o.csv"
    assert run("optimize", "--config", cfg, "--seed", "9", "--out", str(out)) == 0
    assert out.read_text().splitlines()[0].startswith("# seed=9 K=500 ")
    assert run("optimize", "--config", cfg, "--out", str(out)) == 0
    assert out.read_text().splitlines()[0].startswith("# seed=2 K=500 ")


def test_flags_take_config_values(tmp_path):
    cfg = write_config(tmp_path, {"sampling": {"k": 1e5}})
    out = [tmp_path / "flag.csv", tmp_path / "cfg.csv"]
    assert run("optimize", "--k", "1e5", "--out", str(out[0])) == 0
    assert run("optimize", "--config", cfg, "--out", str(out[1])) == 0
    assert out[0].read_bytes() == out[1].read_bytes()


def test_output_dir_precedence(tmp_path, monkeypatch):
    flag_dir = tmp_path / "flag"
    cfg_dir = tmp_path / "cfg"
    env_dir = tmp_path / "env"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    cfg = write_config(tmp_path, {"output_dir": str(cfg_dir),
                                  "sampling": {"k": 300}})

    assert run("optimize", "--config", cfg, "--output-dir", str(flag_dir)) == 0
    assert (flag_dir / "optimize.csv").exists()
    assert not (cfg_dir / "optimize.csv").exists()

    assert run("optimize", "--config", cfg) == 0
    assert (cfg_dir / "optimize.csv").exists()
    assert not (env_dir / "optimize.csv").exists()

    assert run("optimize", "--k", "300") == 0
    assert (env_dir / "optimize.csv").exists()

    monkeypatch.delenv(cli.OUTPUT_DIR_ENV)
    monkeypatch.chdir(cwd)
    assert run("optimize", "--k", "300") == 0
    assert (cwd / "optimize.csv").exists()


def test_out_flag_beats_output_dir(tmp_path):
    side_dir = tmp_path / "side"
    out = tmp_path / "explicit.csv"
    assert run("optimize", "--k", "300", "--output-dir", str(side_dir),
               "--out", str(out)) == 0
    assert out.exists()
    assert not side_dir.exists()


# ---------------------------------------------------------------------------
# exit codes


def refuse_to_sample(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a set was loaded or drawn")
    monkeypatch.setattr(cli, "load_sample_set", fail)
    monkeypatch.setattr(cli, "generate_sample_set", fail)


NAN, INF = float("nan"), float("inf")
# Every input refused before a set is drawn or loaded: the command and its
# flags, the config written to cfg.json (None for no --config, bytes as they
# are) and a part of the message.
CONFIG_ERRORS = {
    # The schema: unknown keys, shapes, types and choices.
    "unknown-key": (("optimize",), {"bogus": {}}, "unknown key(s) in '': ['bogus']"),
    "key-of-the-other-kind": (("optimize",), {"channel": {"kind": "benchmark", "mu_ln": 1.0}},
                              "unknown key(s) in 'channel': ['mu_ln']"),
    "unknown-kind": (("optimize",), {"channel": {"kind": "exotic"}},
                     "bad value for 'channel.kind'"),
    "text-for-n": (("optimize",), {"protocol": {"n": "many"}}, "bad value for 'protocol.n'"),
    "fractional-n-flag": (("optimize", "--n", "10.5"), None, "bad value for 'protocol.n'"),
    "section-not-an-object": (("optimize",), {"protocol": 7},
                              "'protocol' must be a JSON object"),
    "root-a-list": (("optimize",), [1, 2], "config root must be a JSON object"),
    "root-a-number": (("optimize",), 7, "config root must be a JSON object"),
    "output-dir-a-number": (("optimize",), {"output_dir": 5}, "bad value for 'output_dir'"),
    "mode": (("risk-adjusted",), {"risk_adjusted": {"mode": "nope"}},
             "bad value for 'risk_adjusted.mode'"),
    "mode-flag": (("risk-adjusted", "--mode", "nope"), None,
                  "bad value for 'risk_adjusted.mode'"),
    "axis": (("risk-adjusted",), {"risk_adjusted": {"axis": "diag"}},
             "bad value for 'risk_adjusted.axis'"),
    "axis-flag": (("risk-adjusted", "--axis", "diag"), None,
                  "bad value for 'risk_adjusted.axis'"),
    # int() and float() take JSON true as 1: these once ran at K = 1,
    # sigma_ln = 1.0 or n = 1 and exited 0.
    "true-for-k": (("optimize",), {"sampling": {"k": True}}, "bad value for 'sampling.k'"),
    "true-for-sigma_ln": (("optimize",), {"channel": {"sigma_ln": True}},
                          "bad value for 'channel.sigma_ln'"),
    "true-in-n_values": (("scaling",), {"scaling": {"n_values": [True, 4]}},
                         "bad value for 'scaling.n_values'"),
    "false-for-fixed_other": (("risk-adjusted",), {"risk_adjusted": {"fixed_other": False}},
                              "bad value for 'risk_adjusted.fixed_other'"),
    # A list key takes an array or comma-separated text, with one value or more.
    "n_values-an-object": (("scaling",), {"scaling": {"n_values": {"100000": 0, "4": 1}}},
                           "bad value for 'scaling.n_values'"),
    "n_values-empty": (("scaling",), {"scaling": {"n_values": []}},
                       "bad value for 'scaling.n_values'"),
    "eps_list-an-object": (("benchmark-validate",), {"benchmark": {"eps_list": {"0.1": 0}}},
                           "bad value for 'benchmark.eps_list'"),
    "eps_list-empty": (("benchmark-validate",), {"benchmark": {"eps_list": []}},
                       "bad value for 'benchmark.eps_list'"),
    # eta0 and rate live only in the channel section, on its benchmark kind.
    "validate-eta0-outside-channel": (("benchmark-validate",), {"benchmark": {"eta0": 0.95}},
                                      "unknown key(s) in 'benchmark': ['eta0']"),
    "validate-stochastic-kind": (("benchmark-validate",), {"channel": {"kind": "stochastic"}},
                                 "benchmark-validate needs channel.kind 'benchmark'"),
    # The sampling settings.
    "k-zero": (("optimize",), {"sampling": {"k": 0}}, "sampling.k must be >= 1"),
    "workers-zero": (("optimize",), {"sampling": {"workers": 0}},
                     "sampling.workers must be >= 1"),
    "seed-negative": (("optimize",), {"sampling": {"seed": -1}},
                      "sampling.seed must lie in [0, 2**64)"),
    "seed-negative-flag": (("optimize", "--seed", "-1"), None,
                           "sampling.seed must lie in [0, 2**64)"),
    "seed-2**64-flag": (("optimize", "--seed", str(2**64)), None,
                        "sampling.seed must lie in [0, 2**64)"),
    # JSON's NaN and Infinity are refused for every float key, by its name.
    **{f"{key}-{value}": (("optimize",), {"channel": {key: value}},
                          f"bad value for 'channel.{key}': {value}")
       for key, value in (("mu_ln", NAN), ("mu_ln", INF), ("mu_ln", -INF), ("sigma_ln", INF),
                          ("nb_mu", NAN), ("nb_mu", INF), ("nb_mu", -INF),
                          ("nb_sigma", INF), ("nb_upper", INF))},
    "rate-inf": (("optimize",), {"channel": {"kind": "benchmark", "rate": INF}},
                 "bad value for 'channel.rate': inf"),
    "delta-nan": (("optimize",), {"protocol": {"delta": NAN}},
                  "bad value for 'protocol.delta': nan"),
    "budget-minus-inf": (("optimize",), {"budgets": {"eps_cov": -INF}},
                         "bad value for 'budgets.eps_cov': -inf"),
    "k-inf": (("optimize",), {"sampling": {"k": INF}}, "bad value for 'sampling.k': inf"),
    "nan-in-n_values": (("scaling",), {"scaling": {"n_values": [4, NAN]}},
                        "bad value for 'scaling.n_values': nan"),
    "nan-in-eps_list": (("benchmark-validate",), {"benchmark": {"eps_list": [0.1, NAN]}},
                        "bad value for 'benchmark.eps_list': nan"),
    # Finite values the library refuses, named by their keys.
    "nb_sigma-negative": (("optimize",), {"channel": {"nb_sigma": -1}},
                          "channel.nb_sigma must be > 0, got -1.0"),
    "nb_lower-above-nb_upper": (("optimize",), {"channel": {"nb_lower": 0.6}},
                                "need 0 <= channel.nb_lower < channel.nb_upper, got [0.6, 0.5]"),
    "sigma_ln-zero": (("optimize",), {"channel": {"sigma_ln": 0}},
                      "channel.sigma_ln must be > 0, got 0.0"),
    "eta0-above-1": (("optimize",), {"channel": {"kind": "benchmark", "eta0": 1.5}},
                     "channel.eta0 must lie in (0, 1), got 1.5"),
    "rate-zero": (("optimize",), {"channel": {"kind": "benchmark", "rate": 0}},
                  "channel.rate must be > 0, got 0.0"),
    "delta-above-half": (("optimize",), {"protocol": {"delta": 0.7}},
                         "protocol.delta must lie in (0, 0.5), got 0.7"),
    "eps_cov-above-1": (("optimize",), {"budgets": {"eps_cov": 2}},
                        "budgets.eps_cov must lie in (0, 1), got 2.0"),
    # np.sqrt cannot take an integer n >= 2**64: these once ended in a
    # TypeError traceback after sampling.
    **{f"n-beyond-uint64-{argv[0]}": (argv, None, f"{key} must be a positive integer below 2**64")
       for argv, key in ((("optimize", "--n", "1e30"), "protocol.n"),
                         (("scaling", "--n-values", "1e30"), "scaling.n_values"),
                         (("risk-adjusted", "--n", "1e30"), "protocol.n"),
                         (("benchmark-validate", "--n", "1e30"), "protocol.n"))},
    # Frame lengths and budgets the library refuses.
    "scaling-n-zero": (("scaling",), {"scaling": {"n_values": [0]}},
                       "scaling.n_values must be a positive integer below 2**64, got 0"),
    "scaling-n-negative": (("scaling",), {"scaling": {"n_values": [4, -3]}},
                           "scaling.n_values must be a positive integer below 2**64, got -3"),
    "scaling-eps": (("scaling",), {"scaling": {"eps": 1.5}},
                    "scaling.eps must lie in (0, 1), got 1.5"),
    "validate-eps": (("benchmark-validate",), {"benchmark": {"eps_list": [0.1, 1.5]}},
                     "benchmark.eps_list must lie in (0, 1), got 1.5"),
    # Sweep bounds and sizes.
    "frontier-eps-min-zero": (("frontier", "--eps-min", "0"), None,
                              "frontier.eps_min <= frontier.eps_max"),
    "frontier-bounds-reversed": (("frontier", "--eps-min", "0.5", "--eps-max", "0.1"), None,
                                 "frontier.eps_min <= frontier.eps_max"),
    "frontier-eps-max-above-1": (("frontier", "--eps-max", "1.5"), None, "frontier.eps_max < 1"),
    "frontier-points-zero": (("frontier", "--points", "0"), None,
                             "frontier.points must be >= 1"),
    "surface-eps-max-1": (("surface", "--eps-max", "1.0"), None, "surface.eps_max < 1"),
    "surface-points-zero": (("surface", "--points", "0"), None, "surface.points must be >= 1"),
    "sensitivity-bounds-reversed": (("sensitivity", "--eps-min", "0.5", "--eps-max", "0.1"),
                                    None, "sensitivity.eps_min <= sensitivity.eps_max"),
    "sensitivity-points-zero": (("sensitivity", "--points", "0"), None,
                                "sensitivity.points must be >= 1"),
    # The risk-adjusted grid, weight grids and fixed weight.
    "grid-points-1": (("risk-adjusted", "--grid-points", "1"), None,
                      "risk_adjusted.grid_points must be >= 2, got 1"),
    "fixed-other--1": (("risk-adjusted", "--fixed-other", "-1"), None,
                       "risk_adjusted.fixed_other must be >= 0, got -1.0"),
    **{f"fixed-other-{value}": (("risk-adjusted", "--fixed-other", value), None,
                                f"bad value for 'risk_adjusted.fixed_other': {value}")
       for value in ("nan", "inf")},
    "fixed-other-inf-rel-axis": (("risk-adjusted", "--axis", "rel", "--fixed-other", "inf"),
                                 None, "bad value for 'risk_adjusted.fixed_other': inf"),
    "lambda-bounds-reversed": (("risk-adjusted",), {"risk_adjusted": {
        "lambda_min": 2.0, "lambda_max": 1.0}},
        "need 0 < risk_adjusted.lambda_min <= risk_adjusted.lambda_max, got [2.0, 1.0]"),
    "lambda-max-inf": (("risk-adjusted",), {"risk_adjusted": {"lambda_max": INF}},
                       "bad value for 'risk_adjusted.lambda_max': inf"),
    "lambda-points-zero": (("risk-adjusted",), {"risk_adjusted": {"lambda_points": 0}},
                           "risk_adjusted.lambda_points must be >= 1"),
    "heatmap-bounds-reversed": (("risk-adjusted",), {"risk_adjusted": {
        "mode": "heatmap", "heatmap_min": 2.0, "heatmap_max": 1.0}},
        "need 0 < risk_adjusted.heatmap_min <= risk_adjusted.heatmap_max, got [2.0, 1.0]"),
    "heatmap-max-inf": (("risk-adjusted",), {"risk_adjusted": {
        "mode": "heatmap", "heatmap_max": INF}}, "bad value for 'risk_adjusted.heatmap_max': inf"),
    "heatmap-points-zero": (("risk-adjusted",), {"risk_adjusted": {
        "mode": "heatmap", "heatmap_points": 0}}, "risk_adjusted.heatmap_points must be >= 1"),
    # Config files that cannot be read or decoded; json.load raises
    # RecursionError, not ValueError, past its nesting limit.
    "config-missing": (("optimize", "--config", "missing.json"), None,
                       "cannot read config missing.json: [Errno 2]"),
    "config-not-json": (("optimize",), b"{nope", "cannot read config cfg.json: Expecting"),
    "config-not-utf8": (("optimize",), b'{"output_dir": "caf\xe9"}',
                        "cannot read config cfg.json: 'utf-8' codec can't decode byte 0xe9"),
    "config-nested-too-deep": (("optimize",), b"[" * 100_000 + b"]" * 100_000,
                               "cannot read config cfg.json: maximum recursion depth"),
}


@pytest.mark.parametrize("argv, config, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_exits_2_before_sampling(tmp_path, monkeypatch, capsys, argv, config,
                                              message):
    # Exit 2 with one message line and no traceback, before any set is drawn
    # or loaded, and with nothing written: the run's directory holds only its
    # config.  A command that reads a cache runs again with one that must
    # never be read.
    refuse_to_sample(monkeypatch)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    if config is not None:
        Path("cfg.json").write_bytes(
            config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = (*argv, "--config", "cfg.json")
    sources = [()]
    if "cache" in cli._COMMANDS[argv[0]][3]:
        sources.append(("--cache", "never-read.cqcs"))
    for source in sources:
        assert run(*argv, *source) == 2, source
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("config error: ") and message in err, err
        assert "Traceback" not in err
    assert os.listdir() == ([] if config is None else ["cfg.json"])


def test_unallocatable_size_is_config_error(tmp_path, monkeypatch, capsys):
    # Stands in for numpy's allocation failure at a K no machine can hold;
    # nothing here asks the allocator for that much memory.  The memory
    # figure is lifted so that the physical-memory check lets K through.
    def too_big(channel, K, seed, workers=1):
        raise MemoryError(f"Unable to allocate {16 * K} bytes")

    monkeypatch.setattr(cli, "generate_sample_set", too_big)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**62)
    for command in ("sample", "optimize", "risk-adjusted", "benchmark-validate"):
        rc = run(command, "--k", "1e12", "--out", str(tmp_path / "x.out"))
        err = capsys.readouterr().err
        assert rc == 2, command
        assert err.startswith("config error") and "cannot allocate" in err, err
        assert "Traceback" not in err


# Each size key with the command that reads it and its name in its section.
SIZE_KEYS = {
    "sampling.k": (("sample",), "k"),
    "frontier.points": (("frontier",), "points"),
    "surface.points": (("surface",), "points"),
    "sensitivity.points": (("sensitivity",), "points"),
    "risk_adjusted.grid_points": (("risk-adjusted",), "grid_points"),
    "risk_adjusted.lambda_points": (("risk-adjusted",), "lambda_points"),
    "risk_adjusted.heatmap_points": (("risk-adjusted", "--mode", "heatmap"),
                                     "heatmap_points"),
}


def test_size_costs_of_arrays():
    # A K-row set is two float64 arrays; the risk-adjusted grid is G x G.
    assert cli._SIZE_BYTES["sampling.k"] == (16, 1)
    assert cli._SIZE_BYTES["risk_adjusted.grid_points"] == (8, 2)
    assert set(cli._SIZE_BYTES) == set(SIZE_KEYS)


# Two sizes of each points key, and flags that pin the risk-adjusted grid to
# 11 points so its G x G array does not swamp the per-point cost.
MEASURED_SIZES = {
    "frontier.points": ((), (500, 1000)),
    "surface.points": ((), (30, 60)),
    "sensitivity.points": ((), (500, 1000)),
    "risk_adjusted.lambda_points": (("--grid-points", "11"), (500, 1000)),
    "risk_adjusted.heatmap_points": (("--grid-points", "11"), (30, 60)),
}


@pytest.mark.parametrize("key", MEASURED_SIZES)
def test_size_cost_per_point_is_at_most_the_measured_cost(key, tmp_path, monkeypatch):
    # A per-point figure is a command's tracemalloc peak per added cell on a
    # K = 1000 cache, rounded down, so that a refusal never turns away a size
    # that fits.
    cache = tmp_path / "s.cqcs"
    assert run("sample", "--k", "1000", "--out", str(cache)) == 0
    argv, name = SIZE_KEYS[key]
    flags, sizes = MEASURED_SIZES[key]
    per_cell, power = cli._SIZE_BYTES[key]

    def peak(size):
        # A fresh cache record, so every load runs the same checks whether
        # or not the file has settled.
        monkeypatch.setattr(samples, "_checked", set())
        cfg = write_config(tmp_path, {key.split(".")[0]: {name: size}})
        peak, rc = peak_bytes(lambda: run(*argv, *flags, "--config", cfg, "--cache", str(cache),
                                          "--out", str(tmp_path / "x.csv")))
        assert rc == 0
        return peak

    peak(sizes[0])  # builds what a process builds once, such as the parser
    small, large = peak(sizes[0]), peak(sizes[1])
    cost = (large - small) / (sizes[1] ** power - sizes[0] ** power)
    assert per_cell <= cost, cost


@pytest.mark.parametrize("key", SIZE_KEYS)
def test_size_beyond_physical_memory_is_refused_before_sampling(key, tmp_path,
                                                                monkeypatch, capsys):
    # The machine is made to report 16 MiB, which the default K of 1e6 fits,
    # and no set is drawn or loaded: the refusal comes from the size alone.
    memory = 16 << 20
    monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
    refuse_to_sample(monkeypatch)
    argv, name = SIZE_KEYS[key]
    per_cell, power = cli._SIZE_BYTES[key]
    # The largest size that fits, and one more.
    fits = memory // per_cell if power == 1 else math.isqrt(memory // per_cell)
    too_big = fits + 1
    section = key.split(".")[0]
    cfg = write_config(tmp_path, {section: {name: too_big}})
    rc = run(*argv, "--config", cfg, "--out", str(tmp_path / "x.out"))
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"config error: {key}={too_big} needs about "
                   f"{per_cell * too_big**power} bytes, more than the "
                   f"{memory} bytes of physical memory\n")
    assert not (tmp_path / "x.out").exists()
    # The largest size that fits gets past the check to the sampling.
    cfg = write_config(tmp_path, {section: {name: fits}})
    with pytest.raises(AssertionError, match="a set was loaded or drawn"):
        run(*argv, "--config", cfg, "--out", str(tmp_path / "x.out"))


def test_physical_memory_is_the_machine_figure():
    memory = cli._physical_memory()
    assert memory == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") > 0


def test_unknown_physical_memory_refuses_no_size(monkeypatch):
    # Where the platform cannot say, no size is refused.  resolve_config
    # draws nothing, so the huge K allocates nothing.
    def sysconf(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", sysconf)
    assert cli._physical_memory() is None
    args = cli._parser().parse_args(["optimize", "--k", "1000000000000000"])
    assert cli.resolve_config(args).raw["sampling"]["k"] == 10**15


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_config_flag_names_a_schema_key(command):
    # The merge reads flags only at DEFAULTS paths, so a misspelt key would
    # add a flag that parses and is then ignored.  Channel flags name keys
    # of the command's default kind.
    kind = "benchmark" if command == "benchmark-validate" else "stochastic"
    schema = {**cli.DEFAULTS, "channel": cli.DEFAULTS["channel"][kind]}
    subparser = cli._parser()._subparsers._group_actions[0].choices[command]
    dests = [action.dest for action in subparser._actions
             if action.dest not in ("help", *cli._FILE_FLAGS)]
    assert dests
    for dest in dests:
        section, _, key = dest.rpartition(".")
        table = schema[section] if section else schema
        assert key in table and not isinstance(table[key], dict), dest


def test_argparse_errors_and_help(capsys):
    assert run() == 2
    assert run("optimize", "--no-such-flag") == 2
    assert run("no-such-command") == 2
    assert run("sample", "--cache", "x") == 2  # sample never reads a cache
    assert run("--help") == 0
    capsys.readouterr()


def test_cache_digest_mismatch_is_config_error(tmp_path, capsys):
    cache = tmp_path / "c.cqcs"
    assert run("sample", "--k", "200", "--out", str(cache)) == 0
    cfg = write_config(tmp_path, {"channel": {"mu_ln": -0.02}})
    rc = run("optimize", "--config", cfg, "--cache", str(cache),
             "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def saved_cache(K=200, edit=None):
    # A default-channel cache in the working directory, edited before the save.
    s = generate_sample_set(make_baseline_spec(), K, seed=1)
    if edit:
        edit(s)
    save_sample_set(s, "c.cqcs")
    return "c.cqcs"


def optimize_on(cache):
    return ("optimize", "--cache", cache, "--out", "x.csv")


def edited_cache(edit, K=200):
    return lambda monkeypatch: optimize_on(saved_cache(K, edit))


def nan_at_top(s):
    s.ccov[-1] = np.nan


def rate_of_minus_inf(s):
    s.rach[0] = -np.inf


def swap_at_seam(s):
    # An inversion where two pieces of the sortedness check meet.
    B = samples._CHECK_PAIRS
    s.ccov[B - 1], s.ccov[B] = s.ccov[B], s.ccov[B - 1]


def cut_cache(head):
    # The bytes head(raw) keeps of a K = 200 cache.
    def prepare(monkeypatch):
        Path("cut.cqcs").write_bytes(head(Path(saved_cache()).read_bytes()))
        return optimize_on("cut.cqcs")
    return prepare


def shrinking_cache(left):
    # The cache shrinks to `left` bytes right after its size is checked, so
    # the mapped length falls short (and mmap refuses an empty file outright).
    def prepare(monkeypatch):
        cache = Path(saved_cache())
        full = cache.read_bytes()
        real_fstat = os.fstat

        def fstat_then_shrink(fd):
            st = real_fstat(fd)
            if st.st_ino == cache.stat().st_ino:
                os.truncate(cache, left)
            return st

        monkeypatch.setattr(os, "fstat", fstat_then_shrink)
        with pytest.raises(SampleFileTruncatedError):
            load_sample_set(cache)
        cache.write_bytes(full)
        return optimize_on(str(cache))
    return prepare


def unmappable_cache(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))

    cache = saved_cache()
    monkeypatch.setattr(mmap, "mmap", refuse)
    return optimize_on(cache)


# Every input refused with exit 3: a function that builds the run's files in
# its working directory and returns the command line, and a part of the
# message.  test_samples.py owns the library checks of each load fault.
IO_ERRORS = {
    "cache-missing": (lambda monkeypatch: optimize_on("missing.cqcs"),
                      "No such file or directory"),
    "cache-cut": (cut_cache(lambda raw: raw[:100]), "expected 3264 bytes for K=200, found 100"),
    # A header declaring K = 0, with a matching digest and no arrays.
    "cache-k-zero": (cut_cache(lambda raw: raw[:8] + bytes(8) + raw[16:64]),
                     "header declares K=0, need K >= 1"),
    "cache-nan": (edited_cache(nan_at_top), "ccov array is not sorted or holds NaN"),
    **{f"cache-shrinking-to-{left}": (shrinking_cache(left),
                                      "file changed size while loading K=200 rows")
       for left in (0, 100)},
    "cache-unmappable": (unmappable_cache, os.strerror(errno.ENODEV)),
    # Before the domain check this exited 0 and wrote t_star=-inf.
    "cache-value-outside-domain": (edited_cache(rate_of_minus_inf), "outside their domain"),
    "cache-inversion-at-a-piece-seam": (edited_cache(swap_at_seam, 2 * samples._CHECK_PAIRS + 5),
                                        "ccov array is not sorted or holds NaN"),
    "output-unwritable": (lambda monkeypatch: ("optimize", "--k", "200",
                                               "--out", "no_such_dir/x.csv"),
                          "No such file or directory"),
}


@pytest.mark.parametrize("prepare, message", IO_ERRORS.values(), ids=IO_ERRORS)
def test_io_error_exits_3(tmp_path, monkeypatch, capsys, prepare, message):
    # Exit 3 with one message line and no traceback, and nothing written: the
    # run leaves its directory as the row built it.
    monkeypatch.chdir(tmp_path)
    argv = prepare(monkeypatch)
    before = sorted(os.listdir())
    assert run(*argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("i/o error: ") and message in err, err
    assert "Traceback" not in err
    assert sorted(os.listdir()) == before


CACHE_COMMANDS = [("optimize", "optimize.csv"), ("frontier", "frontier.csv"),
                  ("surface", "surface.csv"), ("scaling", "scaling.csv"),
                  ("decade-gains", "decade_gains.csv"), ("risk-adjusted", "risk_adjusted.csv"),
                  ("sensitivity", "sensitivity.csv")]


@pytest.mark.parametrize("how", ["out", "symlink", "default_name", "missing_cache"])
@pytest.mark.parametrize("command, default_name", CACHE_COMMANDS)
def test_output_naming_the_cache_is_config_error(tmp_path, capsys, monkeypatch,
                                                 command, default_name, how):
    # Writing the CSV would replace the cache it reads.  The same file named
    # by --out, through a symlink, as the command's default name in the
    # output directory, or as a path that does not exist yet: exit 2 before
    # any load, and the cache keeps its bytes.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cache = out_dir / default_name
    if how != "missing_cache":
        assert run("sample", "--k", "200", "--out", str(cache)) == 0
    before = cache.read_bytes() if cache.exists() else None
    refuse_to_sample(monkeypatch)
    capsys.readouterr()
    if how == "default_name":
        argv = ["--output-dir", str(out_dir)]
    elif how == "symlink":
        (tmp_path / "link.csv").symlink_to(cache)
        argv = ["--out", str(tmp_path / "link.csv")]
    else:
        argv = ["--out", os.path.relpath(cache)]
    assert run(command, "--cache", str(cache), *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --cache and the output name the same file")
    assert (cache.read_bytes() if cache.exists() else None) == before


@pytest.mark.parametrize("how", ["out", "default_name", "existing"])
def test_sample_csv_naming_the_cache_is_config_error(tmp_path, capsys, monkeypatch, how):
    # sample writes its cache and then the CSV: the same path for both would
    # leave only the CSV.  Refused before any sampling, nothing is written.
    out_dir = tmp_path / "out"
    path = out_dir / "samples.cqcs"
    argv = ["--csv", str(path)]
    if how == "default_name":
        argv += ["--output-dir", str(out_dir)]
    else:
        argv += ["--out", str(path)]
    if how == "existing":
        out_dir.mkdir()
        path.write_bytes(b"old")
    refuse_to_sample(monkeypatch)
    assert run("sample", "--k", "100", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --csv and the output name the same file")
    if how == "existing":
        assert path.read_bytes() == b"old"
    else:
        assert not out_dir.exists()


@pytest.mark.parametrize("command, how", [
    ("optimize", "out"), ("optimize", "default_name"), ("sample", "out"), ("sample", "csv"),
])
def test_output_naming_the_config_is_config_error(tmp_path, capsys, monkeypatch,
                                                  command, how):
    # Writing an output over the config it was read from would destroy the
    # config.  Refused before any sampling: exit 2, the config keeps its
    # bytes and nothing is written.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = out_dir / "optimize.csv"
    config.write_text('{"sampling": {"k": 100}}')
    before = config.read_bytes()
    if how == "default_name":
        argv = ["--output-dir", str(out_dir)]
    else:
        argv = [f"--{how}", str(config)]
    refuse_to_sample(monkeypatch)
    assert run(command, "--config", str(config), *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    second = "--csv" if how == "csv" else "the output"
    assert captured.err.startswith(f"config error: --config and {second} name the same file")
    assert config.read_bytes() == before
    assert list(out_dir.iterdir()) == [config]


def test_distinct_outputs_and_caches_still_run(tmp_path):
    # Files that differ only in name, or share a directory, are still fine.
    cache = tmp_path / "c.cqcs"
    assert run("sample", "--k", "200", "--out", str(cache),
               "--csv", str(tmp_path / "c.csv")) == 0
    assert run("optimize", "--cache", str(cache), "--out", str(tmp_path / "c.cqcs.csv")) == 0
    assert run("optimize", "--cache", str(cache), "--output-dir", str(tmp_path)) == 0
    assert (tmp_path / "optimize.csv").exists()
    config = tmp_path / "c.json"
    config.write_text('{"sampling": {"k": 100}}')
    assert run("optimize", "--config", str(config), "--out", str(tmp_path / "c.json.csv")) == 0


def test_internal_invariant_violation_exits_5_under_optimize_flag(tmp_path):
    # python -O strips assert statements; the invariant check must survive.
    script = (
        "import sys\n"
        "from covertq import OptimumReport, cli\n"
        "cli.optimize = lambda s, p, b: OptimumReport(\n"
        "    q_max=1.5, r_max=0.5, total_payload=1.0, q_capped=False)\n"
        "sys.exit(cli.main(['optimize', '--k', '200', '--out', sys.argv[1]]))\n"
    )
    env = {**os.environ,
           "PYTHONPATH": str(Path(covertq.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 5, proc.stderr
    assert "internal invariant violation" in proc.stderr


@pytest.mark.parametrize("command", [
    "optimize", "frontier", "surface", "scaling", "decade-gains", "sensitivity",
    "benchmark-validate",
])
def test_every_command_rejects_q_max_outside_unit_interval(tmp_path, monkeypatch,
                                                          capsys, command):
    # The report checks itself, so no command can write a corrupt one, and
    # none needs a check of its own.
    monkeypatch.setattr(risk_constrained.ProtocolParams, "q_ceiling", lambda self, c: -1.0)
    out = tmp_path / "x.csv"
    assert run(command, "--k", "500", "--out", str(out)) == 5
    assert "internal invariant violation" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cold start: scipy.special's ufuncs are loaded only where sampling and
# entropy run (tests/test_special.py covers how)

SCIPY_SPECIAL_MODULES = ("[m for m in sys.modules"
                         " if m == 'scipy.special' or m.startswith('scipy.special.')]")


def test_import_does_not_load_scipy_special():
    out = run_fresh("import sys\n"
                    "import covertq, covertq.cli\n"
                    f"print({SCIPY_SPECIAL_MODULES})\n")
    assert out == "[]\n"


def test_cached_optimize_does_not_load_scipy_special(tmp_path):
    cache = tmp_path / "s.cqcs"
    assert run("sample", "--k", "1000", "--out", str(cache)) == 0
    out = tmp_path / "opt.csv"
    script = ("import sys\n"
              "from covertq import cli\n"
              "rc = cli.main(['optimize', '--cache', sys.argv[1], '--out', sys.argv[2]])\n"
              f"print(rc, {SCIPY_SPECIAL_MODULES})\n")
    assert run_fresh(script, cache, out).splitlines()[-1] == "0 []"
    assert len(data_lines(out)) == 2


@pytest.mark.parametrize("kind", ["stochastic", "benchmark"])
def test_first_generation_in_two_threads_matches_one(kind):
    # The first sampler and entropy calls of the process run in two pool
    # threads at once, so both load scipy.special's ufuncs concurrently.
    script = (
        "import sys\n"
        "from covertq import (BenchmarkChannelSpec, ExponentialSpec,\n"
        "    StochasticChannelSpec, TruncatedGaussianSpec, TruncatedLognormalSpec,\n"
        "    generate_sample_set)\n"
        "assert 'scipy.special' not in sys.modules\n"
        "spec = (StochasticChannelSpec(\n"
        "            eta=TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=0.05),\n"
        "            nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5))\n"
        "        if sys.argv[1] == 'stochastic' else\n"
        "        BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0)))\n"
        "K = 4 * 2**16 + 7\n"
        "two = generate_sample_set(spec, K, 11, workers=2)\n"
        "one = generate_sample_set(spec, K, 11, workers=1)\n"
        "print(two.ccov.tobytes() == one.ccov.tobytes(),\n"
        "      two.rach.tobytes() == one.rach.tobytes())\n"
    )
    assert run_fresh(script, kind) == "True True\n"
