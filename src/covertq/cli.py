"""Command-line front door: config in, deterministic CSV artifacts out.

Subcommands map one-to-one onto the library's pipelines:

    sample              draw a sample set and persist the binary cache
    optimize            single risk-constrained optimum
    frontier            symmetric-budget sweep
    surface             eps_cov x eps_rel budget grid
    scaling             payload versus frame length n
    benchmark-validate  closed forms vs Monte Carlo on the benchmark channel
    decade-gains        throughput gains across decade budgets
    risk-adjusted       weighted-penalty grid maximization (sweep or heatmap)
    sensitivity         finite-difference budget sensitivities

Configuration is a JSON document with nested sections.  DEFAULTS below is
the whole schema: every key is optional, its default fixes its type (a tuple
lists the allowed strings, the first being the default), and unknown keys
are rejected.  The channel section's keys depend on its "kind".
benchmark-validate reads its channel from that section, where the kind
defaults to "benchmark"; its "benchmark" section holds only eps_list.

Flags override config values, which override the defaults.  A flag
``--key`` sets config key ``section.key`` (underscores written as dashes)
and takes the same values, a list as comma-separated text.  The default
output directory can also be set through the environment variable
COVERTQ_OUTPUT_DIR (flags and config still win over it).

Every CSV artifact starts with a comment line recording the seed, K, and
the channel digest of the sample set used, so identical configs reproduce
byte-identical files.

Exit codes: 0 success; 2 configuration error (also argparse errors and a
cache whose channel digest contradicts the config); 3 I/O error (missing,
malformed, unsorted, NaN-holding or truncated cache, unwritable output);
4 a decade gain was requested but is infeasible (zero-throughput
denominator); 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmark import InvariantError, validate, write_validation_csv
from .distributions import (
    ExponentialSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
)
from .quantiles import RiskBudgets
from .risk_adjusted import (
    GridSpec,
    heatmap_sweep,
    lambda_sweep,
    write_heatmap_csv,
    write_lambda_sweep_csv,
)
from .risk_constrained import (
    DECADE_BUDGETS,
    ProtocolParams,
    decade_gains,
    frontier_sweep,
    n_scaling_sweep,
    optimize,
    surface_sweep,
    write_decade_gains_csv,
    write_frontier_csv,
    write_scaling_csv,
    write_surface_csv,
)
from .samples import (
    BenchmarkChannelSpec,
    ChannelSpec,
    SampleFileDigestError,
    SampleFileError,
    SampleSet,
    StochasticChannelSpec,
    channel_digest,
    export_sample_csv,
    generate_sample_set,
    load_sample_set,
    save_sample_set,
)
from .sensitivity import sensitivities_symmetric, write_sensitivity_csv
from ._csvio import write_csv

__all__ = ["main", "ConfigError", "InfeasibleGainError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE_GAIN = 4
EXIT_INTERNAL = 5

OUTPUT_DIR_ENV = "COVERTQ_OUTPUT_DIR"


class ConfigError(Exception):
    """The configuration (file or flags) cannot be used as given."""


class InfeasibleGainError(Exception):
    """A requested decade gain has a zero-throughput denominator."""


DEFAULTS = {
    # One table of keys per channel kind; the first kind is the default.
    "channel": {
        "stochastic": {
            "mu_ln": -0.0126,
            "sigma_ln": 0.05,
            "nb_mu": 0.005,
            "nb_sigma": 0.001,
            "nb_lower": 0.0,
            "nb_upper": 0.5,
        },
        "benchmark": {"eta0": 0.9, "rate": 10.0},
    },
    "protocol": {"n": 10_000_000, "delta": 0.05},
    "sampling": {"k": 1_000_000, "seed": 1, "workers": 1},
    "budgets": {"eps_cov": 0.01, "eps_rel": 0.01},
    "frontier": {"eps_min": 1e-5, "eps_max": 1e-1, "points": 30},
    "surface": {"eps_min": 1e-5, "eps_max": 1e-1, "points": 20},
    "scaling": {
        "eps": 0.01,
        "n_values": [100_000, 400_000, 1_000_000, 4_000_000, 10_000_000, 40_000_000],
    },
    "benchmark": {"eps_list": [1e-3, 1e-2, 1e-1, 0.2, 0.5]},
    "risk_adjusted": {
        "grid_points": 401,
        "mode": ("sweep", "heatmap"),
        "axis": ("cov", "rel"),
        "fixed_other": 1.0,
        "lambda_min": 1e-2,
        "lambda_max": 1e6,
        "lambda_points": 40,
        "heatmap_min": 1e-6,
        "heatmap_max": 1e6,
        "heatmap_points": 25,
    },
    "sensitivity": {"eps_min": 1e-4, "eps_max": 1e-1, "points": 20},
    "output_dir": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: domain objects plus the merged raw tree."""

    channel: ChannelSpec
    protocol: ProtocolParams
    k: int
    seed: int
    workers: int
    budgets: RiskBudgets
    raw: dict
    output_dir: Path


def _coerce_like(name: str, default, value):
    # The defaults table doubles as the type schema: config values and flag
    # strings alike are coerced to their default's shape, so type problems
    # fail here with a config error instead of deep inside a pipeline.
    try:
        if isinstance(default, tuple):
            if value not in default:
                raise ValueError(f"expected one of {', '.join(default)}")
            return value
        if default is None:
            if not isinstance(value, str):
                raise TypeError("expected a string")
            return value
        if isinstance(default, list):
            if isinstance(value, str):
                value = value.split(",")
            return [_coerce_like(name, default[0], v) for v in value]
        if isinstance(default, int):
            if isinstance(value, str):
                try:
                    value = int(value)  # exact, where float() would round a 64-bit seed
                except ValueError:
                    value = float(value)
            as_int = int(value)
            if as_int != value:
                raise ValueError("expected an integer")
            return as_int
        return float(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad value for '{name}': {value!r} ({e})") from e


def _merge(name: str, user, defaults: dict, flags: dict) -> dict:
    # Flag values beat config values, which beat defaults.  Keys are named
    # by their dotted path, as the flags' argparse destinations are.
    if not isinstance(user, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        path = f"{name}.{key}" if name else key
        if isinstance(default, dict):
            merged[key] = _merge(path, user.get(key, {}), default, flags)
        elif path in flags or key in user:
            merged[key] = _coerce_like(path, default, flags.get(path, user.get(key)))
        else:
            merged[key] = default[0] if isinstance(default, tuple) else default
    return merged


def _merge_config(user, flags: dict, kind: str) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    channel = user.get("channel", {})
    if isinstance(channel, dict):
        kind = channel.get("kind", kind)
    kind = _coerce_like("channel.kind", tuple(DEFAULTS["channel"]), kind)
    schema = {**DEFAULTS, "channel": {"kind": (kind,), **DEFAULTS["channel"][kind]}}
    return _merge("", user, schema, flags)


def _build_channel(section: dict) -> ChannelSpec:
    if section["kind"] == "stochastic":
        return StochasticChannelSpec(
            eta=TruncatedLognormalSpec(
                mu_ln=section["mu_ln"], sigma_ln=section["sigma_ln"]
            ),
            nb=TruncatedGaussianSpec(
                mu=section["nb_mu"],
                sigma=section["nb_sigma"],
                lower=section["nb_lower"],
                upper=section["nb_upper"],
            ),
        )
    return BenchmarkChannelSpec(
        eta0=section["eta0"], nb=ExponentialSpec(rate=section["rate"])
    )


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Load the JSON config, apply flag overrides, build domain objects."""
    user = {}
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {args.config} is not valid JSON: {e}") from e
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    # benchmark-validate checks the benchmark channel, so that is its default
    # kind; elsewhere it is the first kind in DEFAULTS.
    if args.command == "benchmark-validate":
        kind = "benchmark"
    else:
        kind = next(iter(DEFAULTS["channel"]))
    raw = _merge_config(user, flags, kind)

    # flags > config > environment > built-in default for the output dir
    out_dir = raw["output_dir"]
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")

    try:
        channel = _build_channel(raw["channel"])
        protocol = ProtocolParams(n=raw["protocol"]["n"], delta=raw["protocol"]["delta"])
        budgets = RiskBudgets(
            eps_cov=raw["budgets"]["eps_cov"], eps_rel=raw["budgets"]["eps_rel"]
        )
        k = raw["sampling"]["k"]
        seed = raw["sampling"]["seed"]
        workers = raw["sampling"]["workers"]
        if k < 1:
            raise ValueError(f"sampling.k must be >= 1, got {k}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"sampling.seed must lie in [0, 2**64), got {seed}")
        if workers < 1:
            raise ValueError(f"sampling.workers must be >= 1, got {workers}")
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    return RunConfig(
        channel=channel,
        protocol=protocol,
        k=k,
        seed=seed,
        workers=workers,
        budgets=budgets,
        raw=raw,
        output_dir=Path(out_dir),
    )


def _out_path(cfg: RunConfig, args: argparse.Namespace, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir / default_name


def _obtain_samples(cfg: RunConfig, args: argparse.Namespace) -> SampleSet:
    if args.cache:
        return load_sample_set(args.cache, expected_digest=channel_digest(cfg.channel))
    return generate_sample_set(cfg.channel, cfg.k, cfg.seed, workers=cfg.workers)


def _check_report(report) -> None:
    # Cheap internal consistency gate before anything is persisted.
    if report.t_star != report.q_max * report.r_max:
        raise InvariantError("t_star != q_max * r_max")
    if not 0.0 <= report.q_max <= 1.0:
        raise InvariantError("q_max outside [0, 1]")


def _log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not 0 < lo <= hi:
        raise ConfigError(f"need 0 < eps_min <= eps_max, got [{lo}, {hi}]")
    if points < 1:
        raise ConfigError(f"points must be >= 1, got {points}")
    return np.logspace(np.log10(lo), np.log10(hi), points)


def _cmd_sample(args) -> int:
    cfg = resolve_config(args)
    s = generate_sample_set(cfg.channel, cfg.k, cfg.seed, workers=cfg.workers)
    path = _out_path(cfg, args, "samples.cqcs")
    save_sample_set(s, path)
    if args.csv:
        export_sample_csv(s, args.csv)
    print(f"wrote {path} (K={s.K}, seed={s.seed})")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    report = optimize(s, cfg.protocol, cfg.budgets)
    _check_report(report)
    path = _out_path(cfg, args, "optimize.csv")
    write_csv(
        path,
        [
            "eps_cov",
            "eps_rel",
            "q_max",
            "r_max",
            "t_star",
            "n_t_star",
            "q_capped",
            "feasible",
            "below_resolution",
        ],
        [
            (
                cfg.budgets.eps_cov,
                cfg.budgets.eps_rel,
                report.q_max,
                report.r_max,
                report.t_star,
                report.total_payload,
                report.q_capped,
                report.r_max > 0,
                report.below_resolution,
            )
        ],
        seed=s.seed,
        K=s.K,
        digest=s.channel_digest,
    )
    print(
        f"wrote {path} (t_star={report.t_star!r}, payload={report.total_payload!r})"
    )
    return EXIT_OK


def _cmd_frontier(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    block = cfg.raw["frontier"]
    grid = _log_grid(block["eps_min"], block["eps_max"], block["points"])
    rows = frontier_sweep(s, cfg.protocol, grid)
    for _, report in rows:
        _check_report(report)
    path = _out_path(cfg, args, "frontier.csv")
    write_frontier_csv(rows, path, seed=s.seed, K=s.K, digest=s.channel_digest)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_surface(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    block = cfg.raw["surface"]
    grid = _log_grid(block["eps_min"], block["eps_max"], block["points"])
    matrix = surface_sweep(s, cfg.protocol, grid, grid)
    path = _out_path(cfg, args, "surface.csv")
    write_surface_csv(
        matrix, grid, grid, path, seed=s.seed, K=s.K, digest=s.channel_digest
    )
    print(f"wrote {path} ({len(grid)}x{len(grid)} grid)")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    block = cfg.raw["scaling"]
    try:
        rows = n_scaling_sweep(s, cfg.protocol.delta, block["eps"], block["n_values"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    path = _out_path(cfg, args, "scaling.csv")
    write_scaling_csv(rows, path, seed=s.seed, K=s.K, digest=s.channel_digest)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_benchmark_validate(args) -> int:
    cfg = resolve_config(args)
    if not isinstance(cfg.channel, BenchmarkChannelSpec):
        raise ConfigError("benchmark-validate needs channel.kind 'benchmark'")
    try:
        rows = validate(
            cfg.channel, cfg.protocol, cfg.raw["benchmark"]["eps_list"],
            cfg.k, cfg.seed, cfg.workers,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    path = _out_path(cfg, args, "benchmark_validate.csv")
    digest = channel_digest(cfg.channel)
    write_validation_csv(rows, path, seed=cfg.seed, K=cfg.k, digest=digest)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_decade_gains(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    rows = frontier_sweep(s, cfg.protocol, DECADE_BUDGETS)
    gains = decade_gains(rows)
    path = _out_path(cfg, args, "decade_gains.csv")
    write_decade_gains_csv(gains, path, seed=s.seed, K=s.K, digest=s.channel_digest)
    infeasible = [(lo, hi) for lo, hi, gain in gains if gain is None]
    print(f"wrote {path} ({len(gains)} gains)")
    if infeasible:
        raise InfeasibleGainError(
            f"zero throughput at the smaller budget of {infeasible}"
        )
    return EXIT_OK


def _cmd_risk_adjusted(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    block = cfg.raw["risk_adjusted"]
    try:
        grid = GridSpec(points_per_axis=block["grid_points"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    path = _out_path(cfg, args, "risk_adjusted.csv")
    if block["mode"] == "sweep":
        values = _log_grid(block["lambda_min"], block["lambda_max"], block["lambda_points"])
        rows = lambda_sweep(
            s, cfg.protocol, grid, block["axis"], values, block["fixed_other"]
        )
        write_lambda_sweep_csv(
            rows, block["axis"], block["fixed_other"], path,
            seed=s.seed, K=s.K, digest=s.channel_digest,
        )
        print(f"wrote {path} ({len(rows)} rows)")
    else:
        values = _log_grid(block["heatmap_min"], block["heatmap_max"], block["heatmap_points"])
        q_star, r_star = heatmap_sweep(s, cfg.protocol, grid, values, values)
        write_heatmap_csv(
            q_star, r_star, values, values, path,
            seed=s.seed, K=s.K, digest=s.channel_digest,
        )
        print(f"wrote {path} ({len(values)}x{len(values)} grid)")
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    cfg = resolve_config(args)
    s = _obtain_samples(cfg, args)
    block = cfg.raw["sensitivity"]
    grid = _log_grid(block["eps_min"], block["eps_max"], block["points"])
    try:
        points = sensitivities_symmetric(s, cfg.protocol, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    path = _out_path(cfg, args, "sensitivity.csv")
    write_sensitivity_csv(points, path, seed=s.seed, K=s.K, digest=s.channel_digest)
    print(f"wrote {path} ({len(points)} rows)")
    return EXIT_OK


# Flags that name files, not config keys.
_FILE_FLAGS = {
    "config": "JSON config file",
    "out": "explicit output path (overrides --output-dir)",
    "cache": "reuse a sample cache written by 'sample'",
    "csv": "also export the arrays as CSV",
}

# Flags every subcommand takes, after --config and --out.
_COMMON_FLAGS = (
    "output_dir", "protocol.n", "protocol.delta",
    "sampling.k", "sampling.seed", "sampling.workers",
)

# name: (handler, help, further flags: file flags and config keys)
_COMMANDS = {
    "sample": (_cmd_sample, "generate and persist a sample cache", ("csv",)),
    "optimize": (_cmd_optimize, "single risk-constrained optimum",
                 ("cache", "budgets.eps_cov", "budgets.eps_rel")),
    "frontier": (_cmd_frontier, "symmetric budget sweep",
                 ("cache", "frontier.eps_min", "frontier.eps_max", "frontier.points")),
    "surface": (_cmd_surface, "budget grid sweep",
                ("cache", "surface.eps_min", "surface.eps_max", "surface.points")),
    "scaling": (_cmd_scaling, "payload vs frame length",
                ("cache", "scaling.eps", "scaling.n_values")),
    "benchmark-validate": (_cmd_benchmark_validate, "closed forms vs Monte Carlo",
                           ("channel.eta0", "channel.rate", "benchmark.eps_list")),
    "decade-gains": (_cmd_decade_gains, "gains across decade budgets", ("cache",)),
    "risk-adjusted": (_cmd_risk_adjusted, "weighted-penalty grid maximization",
                      ("cache", "risk_adjusted.mode", "risk_adjusted.axis",
                       "risk_adjusted.grid_points", "risk_adjusted.fixed_other")),
    "sensitivity": (_cmd_sensitivity, "finite-difference sensitivities",
                    ("cache", "sensitivity.eps_min", "sensitivity.eps_max",
                     "sensitivity.points")),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Risk-aware operating points for covert quantum links.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = subs.add_parser(
            name, help=help_text,
            epilog="A flag shown as --key SECTION.KEY sets that config key and "
                   "takes the same values; a list is written comma-separated.",
        )
        for flag in ("config", "out", *_COMMON_FLAGS, *flags):
            if flag in _FILE_FLAGS:
                p.add_argument(f"--{flag}", help=_FILE_FLAGS[flag])
            else:
                p.add_argument("--" + flag.rpartition(".")[2].replace("_", "-"), dest=flag)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, SampleFileDigestError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SampleFileError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except InfeasibleGainError as e:
        print(f"infeasible gain: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE_GAIN
    except InvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
