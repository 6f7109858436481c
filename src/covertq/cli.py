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

Each handler declares its CSV's columns and rows; the library modules
take a sample set and return results only, and _obtain_samples is the
one place a set is drawn or loaded.  Every CSV artifact starts with a
comment line recording the seed, K and channel digest of the sample set
its rows come from: a cached run stamps the cache's, whatever the flags
say.  Identical configs reproduce byte-identical files.

Exit codes: 0 success; 2 configuration error, checked before any sampling and
naming the dotted key of any value it refuses: a value of the wrong type for
any key (NaN and Infinity for every float key), an out-of-range value in the
channel, protocol, sampling or budgets section or in a section the command
reads (sweep bounds and weights included), a size (sampling.k, a points key,
grid_points) whose arrays need more than the machine's physical memory or that
numpy refuses to allocate, an unreadable, undecodable, non-JSON or too deeply
nested config file, argparse errors, a cache whose channel digest contradicts
the config, and an output (--out or the default name, and sample's --csv) that
names an input (--config, --cache) or the other output (checked before any
load or sampling); 3 I/O error (missing, malformed, K = 0, unsorted,
NaN-holding or truncated cache, a cache with a negative c_cov or an r_ach
outside [0, 1], unwritable output); 4 a decade gain was requested but is
infeasible (zero-throughput denominator); 5 internal invariant violation, such
as a risk-constrained report from any command with q_max outside [0, 1].
Handlers raise and main() alone maps exceptions to these codes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .benchmark import validate
from .distributions import (
    ExponentialSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
)
from .quantiles import RiskBudgets
from .risk_adjusted import GridSpec, heatmap_sweep
from .risk_constrained import (
    REPORT_COLUMNS,
    InvariantError,
    ProtocolParams,
    decade_gains,
    frontier_sweep,
    n_scaling_sweep,
    optimize,
    surface_sweep,
)
from .samples import (
    BenchmarkChannelSpec,
    ChannelSpec,
    SampleFileDigestError,
    SampleFileError,
    SampleSet,
    StochasticChannelSpec,
    channel_digest,
    generate_sample_set,
    load_sample_set,
    save_sample_set,
)
from .sensitivity import sensitivities_symmetric
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


# Bytes the arrays and result objects of each size key take per cell, and
# the power of the key that counts cells.  A K-row sample set is two float64
# arrays and the risk-adjusted grid one G x G float64 array; a surface or
# heatmap of P points has P**2 cells, each a result object or a row of
# Python floats.  The per-point figures are a command's tracemalloc peak per
# added cell on a K = 1000 cache, rounded down, so a refusal never turns
# away a size that fits.
_SIZE_BYTES = {
    "sampling.k": (16, 1),
    "frontier.points": (310, 1),
    "surface.points": (170, 2),
    "sensitivity.points": (400, 1),
    "risk_adjusted.grid_points": (8, 2),
    "risk_adjusted.lambda_points": (240, 1),
    "risk_adjusted.heatmap_points": (160, 2),
}


def _physical_memory() -> int | None:
    # Bytes of physical memory, or None where the platform cannot say.
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: domain objects plus the merged raw tree."""

    channel: ChannelSpec
    protocol: ProtocolParams
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
            if not isinstance(value, list) or not value:
                raise TypeError("expected a non-empty list or comma-separated text")
            return [_coerce_like(name, default[0], v) for v in value]
        if isinstance(value, bool):  # int() and float() would take JSON true
            raise TypeError("expected a number")
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
        value = float(value)
        if not math.isfinite(value):  # JSON's NaN and Infinity, or a flag's "nan"
            raise ValueError("expected a finite number")
        return value
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


def _built(keys: dict, build, **fields):
    # A library refusal, each field it names replaced by that field's config key.
    try:
        return build(**fields)
    except ValueError as e:
        raise ConfigError(re.sub(r"\w+", lambda m: keys.get(m[0], m[0]), str(e))) from e


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
        except (OSError, ValueError, RecursionError) as e:  # unreadable or undecodable
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
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

    # Checked here, before any load; _obtain_samples reads them.
    k, seed, workers = (raw["sampling"][key] for key in ("k", "seed", "workers"))
    if k < 1:
        raise ConfigError(f"sampling.k must be >= 1, got {k}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"sampling.seed must lie in [0, 2**64), got {seed}")
    if workers < 1:
        raise ConfigError(f"sampling.workers must be >= 1, got {workers}")
    # A size whose arrays cannot fit in memory is refused here, before any
    # load or sampling: numpy might reserve it, and the kernel end the run.
    memory = _physical_memory()
    for key, (per_cell, power) in _SIZE_BYTES.items():
        section, name = key.split(".")
        size = raw[section][name]
        need = per_cell * max(size, 0) ** power
        if memory is not None and need > memory:
            raise ConfigError(f"{key}={size} needs about {need} bytes, more than "
                              f"the {memory} bytes of physical memory")
    # Library fields are named as their keys, less "nb_" (sigma: channel.nb_sigma).
    keys = {key.removeprefix("nb_"): f"{name}.{key}"
            for name in ("channel", "protocol", "budgets") for key in raw[name]}
    return RunConfig(channel=_built(keys, _build_channel, section=raw["channel"]),
                     protocol=_built(keys, ProtocolParams, **raw["protocol"]),
                     budgets=_built(keys, RiskBudgets, **raw["budgets"]),
                     raw=raw, output_dir=Path(out_dir))


def _obtain_samples(cfg: RunConfig, cache=None) -> SampleSet:
    if cache:
        return load_sample_set(cache, expected_digest=channel_digest(cfg.channel))
    sampling = cfg.raw["sampling"]
    return generate_sample_set(cfg.channel, sampling["k"], sampling["seed"],
                               workers=sampling["workers"])


def _log_grid(cfg: RunConfig, section: str,
              keys=("eps_min", "eps_max", "points"), budget=True) -> np.ndarray:
    # Budget grids lie in (0, 1); weight grids are bounded below only.
    lo, hi, points = (cfg.raw[section][key] for key in keys)
    lo_key, hi_key, points_key = (f"{section}.{key}" for key in keys)
    if not 0 < lo <= hi or budget and hi >= 1:
        top = " < 1" if budget else ""
        raise ConfigError(f"need 0 < {lo_key} <= {hi_key}{top}, got [{lo}, {hi}]")
    if points < 1:
        raise ConfigError(f"{points_key} must be >= 1, got {points}")
    return np.logspace(np.log10(lo), np.log10(hi), points)


def _out_path(cfg: RunConfig, args, mkdir: bool = True) -> Path:
    # --out, else the command's default name in the output directory.
    if args.out:
        return Path(args.out)
    if mkdir:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir / _COMMANDS[args.command][1]


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def _check_distinct_files(cfg: RunConfig, args) -> None:
    # An output written over an input, or over the other output, would
    # replace that file.  "out" is the resolved output path.
    paths = {flag: getattr(args, flag, None) for flag in _FILE_FLAGS}
    paths["out"] = _out_path(cfg, args, mkdir=False)
    named = [flag for flag in _FILE_FLAGS if paths[flag]]
    for a, b in itertools.combinations(named, 2):
        if "output" in (_FILE_FLAGS[a][0], _FILE_FLAGS[b][0]) and _same_file(paths[a], paths[b]):
            second = "the output" if b == "out" else f"--{b}"
            raise ConfigError(f"--{a} and {second} name the same file: {paths[a]}")


def _emit(cfg: RunConfig, args, columns, rows, summary: str, source: SampleSet) -> None:
    """Write one CSV artifact, stamped with its rows' sample set, and report it."""
    path = _out_path(cfg, args)
    write_csv(path, columns, rows, source)
    print(f"wrote {path} ({summary})")


def _cmd_sample(cfg, args) -> None:
    s = _obtain_samples(cfg)
    # The cache header records its own provenance.
    path = _out_path(cfg, args)
    save_sample_set(s, path)
    print(f"wrote {path} (K={s.K}, seed={s.seed})")
    if args.csv:
        # Row i pairs the i-th smallest c_cov with the i-th smallest r_ach: not a draw.
        write_csv(args.csv, ["index", "c_cov", "r_ach"],
                  ((i, s.ccov[i], s.rach[i]) for i in range(s.K)), s)


def _cmd_optimize(cfg, args) -> None:
    s = _obtain_samples(cfg, args.cache)
    report = optimize(s, cfg.protocol, cfg.budgets)
    row = (cfg.budgets.eps_cov, cfg.budgets.eps_rel, *report.cells(),
           report.r_max > 0, report.below_resolution)
    _emit(cfg, args, ["eps_cov", "eps_rel", *REPORT_COLUMNS, "feasible", "below_resolution"],
          [row], f"t_star={report.t_star!r}, payload={report.total_payload!r}", s)


def _cmd_frontier(cfg, args) -> None:
    grid = _log_grid(cfg, "frontier")
    s = _obtain_samples(cfg, args.cache)
    rows = frontier_sweep(s, cfg.protocol, grid)
    _emit(cfg, args, ["eps", *REPORT_COLUMNS],
          ((eps, *rep.cells()) for eps, rep in rows), f"{len(rows)} rows", s)


def _cmd_surface(cfg, args) -> None:
    grid = _log_grid(cfg, "surface")
    s = _obtain_samples(cfg, args.cache)
    matrix = surface_sweep(s, cfg.protocol, grid, grid)
    rows = ((ec, er, *rep.cells())
            for ec, row in zip(grid, matrix, strict=True)
            for er, rep in zip(grid, row, strict=True))
    _emit(cfg, args, ["eps_cov", "eps_rel", *REPORT_COLUMNS], rows,
          f"{len(grid)}x{len(grid)} grid", s)


def _cmd_scaling(cfg, args) -> None:
    block = cfg.raw["scaling"]
    # The library objects check every n and eps here, before any sampling.
    for n in block["n_values"]:
        _built({"n": "scaling.n_values"}, ProtocolParams, n=n, delta=cfg.protocol.delta)
    RiskBudgets.check(block["eps"], "scaling.eps")
    s = _obtain_samples(cfg, args.cache)
    rows = n_scaling_sweep(s, cfg.protocol.delta, block["eps"], block["n_values"])
    _emit(cfg, args, ["n", "n_t_star"], rows, f"{len(rows)} rows", s)


def _cmd_benchmark_validate(cfg, args) -> None:
    if not isinstance(cfg.channel, BenchmarkChannelSpec):
        raise ConfigError("benchmark-validate needs channel.kind 'benchmark'")
    eps_list = cfg.raw["benchmark"]["eps_list"]
    for eps in eps_list:  # checked here, before any sampling
        RiskBudgets.check(eps, "benchmark.eps_list")
    s = _obtain_samples(cfg)
    rows = validate(s, cfg.channel, cfg.protocol, eps_list)
    _emit(cfg, args, ["eps", "metric", "theory", "mc", "rel_error_percent"],
          ((r.eps, r.metric, r.theory, r.mc, r.rel_error_percent) for r in rows),
          f"{len(rows)} rows", s)


def _cmd_decade_gains(cfg, args) -> None:
    s = _obtain_samples(cfg, args.cache)
    gains = decade_gains(s, cfg.protocol)
    _emit(cfg, args, ["eps_from", "eps_to", "gain"], gains, f"{len(gains)} gains", s)
    infeasible = [(lo, hi) for lo, hi, gain in gains if gain is None]
    if infeasible:
        raise InfeasibleGainError(
            f"zero throughput at the smaller budget of {infeasible}"
        )


def _cmd_risk_adjusted(cfg, args) -> None:
    block = cfg.raw["risk_adjusted"]
    grid = _built({"points_per_axis": "risk_adjusted.grid_points"}, GridSpec,
                  points_per_axis=block["grid_points"])
    columns = ["lambda_cov", "lambda_rel", "q_star", "r_star", "j_value",
               "outside_sparse_regime"]
    if block["mode"] == "heatmap":
        values = _log_grid(cfg, "risk_adjusted",
                           ("heatmap_min", "heatmap_max", "heatmap_points"), budget=False)
        cov_values, rel_values = values, values
        # The heatmap drops j_value and the sparse-regime flag.
        columns, summary = columns[:4], f"{len(values)}x{len(values)} grid"
    else:
        values = _log_grid(cfg, "risk_adjusted",
                           ("lambda_min", "lambda_max", "lambda_points"), budget=False)
        fixed = block["fixed_other"]  # finite: _coerce_like refuses NaN and Infinity
        if fixed < 0:
            raise ConfigError(f"risk_adjusted.fixed_other must be >= 0, got {fixed}")
        cov_values, rel_values = (values, [fixed]) if block["axis"] == "cov" else ([fixed], values)
        summary = f"{len(values)} rows"
    s = _obtain_samples(cfg, args.cache)
    res = heatmap_sweep(s, cfg.protocol, grid, cov_values, rel_values)
    # One row per weight pair, row-major like the result's arrays, cut to the columns.
    cols = (*np.meshgrid(cov_values, rel_values, indexing="ij"), res.q_star,
            res.r_star, res.j_value, res.outside_sparse_regime)[: len(columns)]
    rows = zip(*(col.ravel().tolist() for col in cols), strict=True)
    _emit(cfg, args, columns, rows, summary, s)


def _cmd_sensitivity(cfg, args) -> None:
    grid = _log_grid(cfg, "sensitivity")
    s = _obtain_samples(cfg, args.cache)
    points = sensitivities_symmetric(s, cfg.protocol, grid)
    _emit(cfg, args, ["eps", "s_cov", "s_rel", "flags"],
          ((pt.eps, pt.s_cov, pt.s_rel, ";".join(pt.flags)) for pt in points),
          f"{len(points)} rows", s)


# Flags that name files, not config keys: (role, help).  No output may name
# an input or the other output; "out" comes last, so a clash with it reads
# "--<flag> and the output".
_FILE_FLAGS = {
    "config": ("input", "JSON config file"),
    "cache": ("input", "reuse a sample cache written by 'sample'"),
    "csv": ("output",
            "also export the sorted arrays as CSV (row i: i-th smallest c_cov and r_ach)"),
    "out": ("output", "explicit output path (overrides --output-dir)"),
}

# Flags every subcommand takes, after --config and --out.
_COMMON_FLAGS = (
    "output_dir", "protocol.n", "protocol.delta",
    "sampling.k", "sampling.seed", "sampling.workers",
)

# name: (handler, default output name, help, further flags: file flags and
# config keys)
_COMMANDS = {
    "sample": (_cmd_sample, "samples.cqcs", "generate and persist a sample cache",
               ("csv",)),
    "optimize": (_cmd_optimize, "optimize.csv", "single risk-constrained optimum",
                 ("cache", "budgets.eps_cov", "budgets.eps_rel")),
    "frontier": (_cmd_frontier, "frontier.csv", "symmetric budget sweep",
                 ("cache", "frontier.eps_min", "frontier.eps_max", "frontier.points")),
    "surface": (_cmd_surface, "surface.csv", "budget grid sweep",
                ("cache", "surface.eps_min", "surface.eps_max", "surface.points")),
    "scaling": (_cmd_scaling, "scaling.csv", "payload vs frame length",
                ("cache", "scaling.eps", "scaling.n_values")),
    "benchmark-validate": (_cmd_benchmark_validate, "benchmark_validate.csv",
                           "closed forms vs Monte Carlo",
                           ("channel.eta0", "channel.rate", "benchmark.eps_list")),
    "decade-gains": (_cmd_decade_gains, "decade_gains.csv", "gains across decade budgets",
                     ("cache",)),
    "risk-adjusted": (_cmd_risk_adjusted, "risk_adjusted.csv",
                      "weighted-penalty grid maximization",
                      ("cache", "risk_adjusted.mode", "risk_adjusted.axis",
                       "risk_adjusted.grid_points", "risk_adjusted.fixed_other")),
    "sensitivity": (_cmd_sensitivity, "sensitivity.csv", "finite-difference sensitivities",
                    ("cache", "sensitivity.eps_min", "sensitivity.eps_max",
                     "sensitivity.points")),
}


@cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: the parser holds no per-parse state, and main
    # looks each handler up in _COMMANDS at call time.  Only a process that
    # runs main more than once saves anything.
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Risk-aware operating points for covert quantum links.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, flags) in _COMMANDS.items():
        p = subs.add_parser(
            name, help=help_text,
            epilog="A flag shown as --key SECTION.KEY sets that config key and "
                   "takes the same values; a list is written comma-separated.",
        )
        for flag in ("config", "out", *_COMMON_FLAGS, *flags):
            if flag in _FILE_FLAGS:
                p.add_argument(f"--{flag}", help=_FILE_FLAGS[flag][1])
            else:
                p.add_argument("--" + flag.rpartition(".")[2].replace("_", "-"), dest=flag)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # Handlers raise; this is the one place errors become exit codes.  Every
    # library argument comes from the config, the flags or a cache that
    # load_sample_set has checked, so a ValueError is a bad config value.
    try:
        cfg = resolve_config(args)
        _check_distinct_files(cfg, args)
        _COMMANDS[args.command][0](cfg, args)
        return EXIT_OK
    except (ConfigError, SampleFileDigestError, ValueError) as e:
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
    except MemoryError as e:  # sampling.k or grid_points too large to allocate
        print(f"config error: cannot allocate: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
