"""End-to-end CLI behavior: artifacts, precedence rules, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import covertq
from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    RiskBudgets,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    channel_digest,
    load_sample_set,
    optimize,
    save_sample_set,
)
from covertq import cli


def run(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def default_channel():
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=0.05),
        nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, lower=0.0, upper=0.5),
    )


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
    digest = channel_digest(default_channel()).hex()
    assert lines[0] == f"# seed=3 K=2000 channel_digest={digest}"
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


def test_reruns_are_byte_identical(tmp_path):
    out = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in out:
        assert run("optimize", "--k", "2000", "--seed", "5",
                   "--out", str(path)) == 0
    assert out[0].read_bytes() == out[1].read_bytes()


def test_worker_count_does_not_change_cache(tmp_path):
    caches = []
    for workers in ("1", "3"):
        path = tmp_path / f"w{workers}.cqcs"
        assert run("sample", "--k", "40001", "--seed", "7",
                   "--workers", workers, "--out", str(path)) == 0
        caches.append(path.read_bytes())
    assert caches[0] == caches[1]


def test_sample_csv_export(tmp_path):
    cache = tmp_path / "s.cqcs"
    csv_path = tmp_path / "s.csv"
    assert run("sample", "--k", "50", "--seed", "2", "--out", str(cache),
               "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "index,c_cov,r_ach"
    assert len(lines) == 52


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


def test_benchmark_validate_reads_channel_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": {"kind": "benchmark", "eta0": 0.95}})
    out = tmp_path / "val.csv"
    assert run("benchmark-validate", "--config", cfg, "--k", "500",
               "--out", str(out)) == 0
    digest = channel_digest(BenchmarkChannelSpec(0.95, ExponentialSpec(10.0)))
    assert out.read_text().splitlines()[0] == (
        f"# seed=1 K=500 channel_digest={digest.hex()}")

    # eta0/rate live only in the channel section, and only on its
    # benchmark kind.
    for i, bad in enumerate(({"benchmark": {"eta0": 0.95}},
                             {"channel": {"kind": "stochastic"}})):
        cfg = write_config(tmp_path, bad, name=f"bad{i}.json")
        assert run("benchmark-validate", "--config", cfg, "--k", "500",
                   "--out", str(out)) == 2, bad
        assert "config error" in capsys.readouterr().err


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


def test_surface_grid_output(tmp_path):
    out = tmp_path / "surface.csv"
    assert run("surface", "--k", "500", "--eps-min", "0.01", "--eps-max", "0.1",
               "--points", "2", "--out", str(out)) == 0
    lines = data_lines(out)
    assert lines[0] == "eps_cov,eps_rel,q_max,r_max,t_star,n_t_star,q_capped"
    assert len(lines) == 5


def test_sensitivity_output(tmp_path):
    out = tmp_path / "sens.csv"
    assert run("sensitivity", "--k", "1000", "--eps-min", "0.05",
               "--eps-max", "0.1", "--points", "2", "--out", str(out)) == 0
    lines = data_lines(out)
    assert lines[0] == "eps,s_cov,s_rel,flags"
    assert len(lines) == 3


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


def test_config_error_exits(tmp_path, capsys):
    # All of these are rejected while resolving the config, before any
    # sampling happens; no flags may mask the broken key.
    bad_configs = [
        {"bogus": {}},
        {"channel": {"kind": "benchmark", "mu_ln": 1.0}},
        {"channel": {"kind": "exotic"}},
        {"protocol": {"n": "many"}},
        {"protocol": 7},
        {"sampling": {"k": 0}},
        {"sampling": {"workers": 0}},
        {"sampling": {"seed": -1}},
        {"output_dir": 5},
    ]
    for i, cfg in enumerate(bad_configs):
        path = write_config(tmp_path, cfg, name=f"bad{i}.json")
        rc = run("optimize", "--config", path, "--out", str(tmp_path / "x.csv"))
        assert rc == 2, cfg
        assert "config error" in capsys.readouterr().err

    # mode/axis choices are checked with the rest of the config, and a
    # flag is checked like the config key it sets.
    for j, section in enumerate(({"mode": "nope"}, {"axis": "diag"})):
        path = write_config(tmp_path, {"risk_adjusted": section,
                                       "sampling": {"k": 100}},
                            name=f"ra{j}.json")
        rc = run("risk-adjusted", "--config", path,
                 "--out", str(tmp_path / "x.csv"))
        assert rc == 2, section
        assert "config error" in capsys.readouterr().err
    bad_flags = [
        ("optimize", "--n", "10.5"),
        ("optimize", "--seed", "-1"),
        ("optimize", "--seed", str(2**64)),
        ("risk-adjusted", "--mode", "nope"),
        ("risk-adjusted", "--axis", "diag"),
    ]
    for argv in bad_flags:
        rc = run(*argv, "--k", "100", "--out", str(tmp_path / "x.csv"))
        assert rc == 2, argv
        assert "config error" in capsys.readouterr().err

    not_json = tmp_path / "not.json"
    not_json.write_text("{nope")
    assert run("optimize", "--config", str(not_json)) == 2
    assert run("optimize", "--config", str(tmp_path / "missing.json")) == 2
    assert run("optimize", "--k", "100", "--n", "10.5",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("frontier", "--k", "100", "--eps-min", "0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("frontier", "--k", "100", "--eps-min", "0.5", "--eps-max", "0.1",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("frontier", "--k", "100", "--points", "0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("risk-adjusted", "--k", "100", "--grid-points", "1",
               "--out", str(tmp_path / "x.csv")) == 2
    cfg = write_config(tmp_path, {"scaling": {"n_values": [0]}}, name="sc.json")
    assert run("scaling", "--config", cfg, "--k", "100",
               "--out", str(tmp_path / "x.csv")) == 2


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


def test_cache_io_errors(tmp_path, capsys):
    rc = run("optimize", "--cache", str(tmp_path / "missing.cqcs"),
             "--out", str(tmp_path / "x.csv"))
    assert rc == 3

    cache = tmp_path / "c.cqcs"
    assert run("sample", "--k", "200", "--out", str(cache)) == 0
    (tmp_path / "cut.cqcs").write_bytes(cache.read_bytes()[:100])
    rc = run("optimize", "--cache", str(tmp_path / "cut.cqcs"),
             "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err

    s = load_sample_set(cache)
    s.ccov[-1] = np.nan
    save_sample_set(s, tmp_path / "nan.cqcs")
    rc = run("optimize", "--cache", str(tmp_path / "nan.cqcs"),
             "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path):
    out = tmp_path / "no_such_dir" / "x.csv"
    assert run("optimize", "--k", "200", "--out", str(out)) == 3


def test_internal_invariant_violation_exits_5(tmp_path, monkeypatch, capsys):
    corrupt = SimpleNamespace(q_max=0.5, r_max=0.5, t_star=0.3,
                              total_payload=1.0, q_capped=False,
                              below_resolution=False)
    monkeypatch.setattr(cli, "optimize", lambda s, p, b: corrupt)
    rc = run("optimize", "--k", "200", "--out", str(tmp_path / "x.csv"))
    assert rc == 5
    assert "internal invariant violation" in capsys.readouterr().err


def test_internal_invariant_violation_exits_5_under_optimize_flag(tmp_path):
    # python -O strips assert statements; the invariant check must survive.
    script = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "from covertq import cli\n"
        "corrupt = SimpleNamespace(q_max=0.5, r_max=0.5, t_star=0.3,\n"
        "                          total_payload=1.0, q_capped=False,\n"
        "                          below_resolution=False)\n"
        "cli.optimize = lambda s, p, b: corrupt\n"
        "sys.exit(cli.main(['optimize', '--k', '200', '--out', sys.argv[1]]))\n"
    )
    env = {**os.environ,
           "PYTHONPATH": str(Path(covertq.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 5, proc.stderr
    assert "internal invariant violation" in proc.stderr
