"""Closed-form benchmark: fixed transmittance with exponential thermal noise.

With eta0 in (0, 1) fixed and nb ~ Exp(rate), both optimizer outputs admit
exact expressions, which makes this channel the validation oracle for the
Monte Carlo pipeline:

* c_cov = k * sqrt(nb + eta0*nb^2) with k = sqrt(2*eta0)/(1 - eta0) is
  strictly increasing in nb, so its strict-outage quantile at eps maps to
  the exponential quantile x_eps = -ln(1 - eps)/rate.  Substituting gives

      q_max = min{1, (2*delta/sqrt(n)) * k * sqrt((Z^2 - 1)/(4*eta0))},
      Z = 1 - (2*eta0/rate) * ln(1 - eps_cov).

* R_ach is strictly decreasing in nb, so its lower quantile at eps_rel sits
  at the upper exponential quantile:  R_max = achievable_rate(eta0,
  -ln(eps_rel)/rate).

The c_cov law itself: inverting c = k*sqrt(x + eta0*x^2) for x >= 0 gives
the positive quadratic root x_root(c) = (-1 + sqrt(1 + 4*eta0*(c/k)^2)) /
(2*eta0), hence CDF 1 - exp(-rate * x_root) and, by the chain rule, density
rate * exp(-rate * x_root) * dx_root/dc with the analytic derivative

    dx_root/dc = 2*c / (k^2 * sqrt(1 + 4*eta0*(c/k)^2)).

The derivative is implemented analytically (a finite-difference cross-check
lives in the tests) because first-order-condition residuals downstream need
a smooth density, not a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantiles import RiskBudgets
from .risk_constrained import InvariantError, OptimumReport, ProtocolParams, optimize
from .samples import BenchmarkChannelSpec, generate_sample_set
from .physics import achievable_rate
from ._csvio import write_csv

__all__ = [
    "benchmark_qmax",
    "benchmark_rmax",
    "benchmark_ccov_quantile",
    "benchmark_ccov_cdf",
    "benchmark_ccov_density",
    "ValidationRow",
    "validate",
    "write_validation_csv",
]


def _k(c: BenchmarkChannelSpec) -> float:
    # Prefactor of c_cov = k * sqrt(nb + eta0*nb^2).
    return np.sqrt(2.0 * c.eta0) / (1.0 - c.eta0)


def benchmark_ccov_quantile(c: BenchmarkChannelSpec, eps_cov: float) -> float:
    """Exact strict-outage quantile of c_cov: k * sqrt((Z^2 - 1)/(4*eta0))."""
    eps_cov = RiskBudgets.check(eps_cov, "eps_cov")
    z = 1.0 - (2.0 * c.eta0 / c.nb.rate) * np.log1p(-eps_cov)
    # ln(1 - eps) < 0 for eps in (0, 1), so Z > 1 and the radicand is
    # positive; check rather than trust the caller's floating point.
    if not z * z - 1.0 >= 0.0:
        raise InvariantError(f"quantile radicand negative at eps={eps_cov}")
    return float(_k(c) * np.sqrt((z * z - 1.0) / (4.0 * c.eta0)))


def benchmark_qmax(c: BenchmarkChannelSpec, p: ProtocolParams, eps_cov: float) -> float:
    """Closed-form optimal transmission probability, capped at 1."""
    q = 2.0 * p.delta / np.sqrt(p.n) * benchmark_ccov_quantile(c, eps_cov)
    return min(1.0, float(q))


def benchmark_rmax(c: BenchmarkChannelSpec, eps_rel: float) -> float:
    """Closed-form optimal code rate: the achievable rate at the upper
    exponential noise quantile -ln(eps_rel)/rate."""
    eps_rel = RiskBudgets.check(eps_rel, "eps_rel")
    return float(achievable_rate(c.eta0, -np.log(eps_rel) / c.nb.rate))


def benchmark_ccov_cdf(c: BenchmarkChannelSpec, x):
    """P[c_cov <= x] = 1 - exp(-rate * x_root(x)), elementwise."""
    x_a = np.asarray(x, dtype=float)
    if np.any(x_a < 0):
        raise ValueError("x must be >= 0")
    out = -np.expm1(-c.nb.rate * _x_root(c, x_a))
    return float(out) if np.ndim(x) == 0 else out


def benchmark_ccov_density(c: BenchmarkChannelSpec, x):
    """Density of c_cov: rate * exp(-rate * x_root(x)) * dx_root/dx."""
    x_a = np.asarray(x, dtype=float)
    if np.any(x_a < 0):
        raise ValueError("x must be >= 0")
    k = _k(c)
    u = x_a / k
    root = np.sqrt(1.0 + 4.0 * c.eta0 * u * u)
    dxroot = 2.0 * x_a / (k * k * root)
    out = c.nb.rate * np.exp(-c.nb.rate * _x_root(c, x_a)) * dxroot
    return float(out) if np.ndim(x) == 0 else out


def _x_root(c: BenchmarkChannelSpec, x: np.ndarray) -> np.ndarray:
    # Positive root of eta0*v^2 + v - (x/k)^2 = 0, i.e. the noise level
    # whose covertness constant equals x.
    u = x / _k(c)
    return (-1.0 + np.sqrt(1.0 + 4.0 * c.eta0 * u * u)) / (2.0 * c.eta0)


@dataclass(frozen=True)
class ValidationRow:
    """One metric at one symmetric budget: closed form vs Monte Carlo."""

    eps: float
    metric: str
    theory: float
    mc: float
    rel_error_percent: float | None


def validate(
    c: BenchmarkChannelSpec,
    p: ProtocolParams,
    eps_list,
    K: int,
    seed: int,
    workers: int = 1,
) -> list[ValidationRow]:
    """Monte Carlo vs closed forms at each symmetric budget.

    One sample set of size K is generated and reused across all budgets.
    Relative errors are computed from full-precision values; when the
    closed-form value is below 1e-12 (the R_max ~ 0 rows) the error is
    recorded as None — agreement there is absolute, not relative.
    """
    eps_list = [RiskBudgets.check(eps) for eps in eps_list]  # before sampling
    s = generate_sample_set(c, K, seed, workers=workers)
    rows: list[ValidationRow] = []
    for eps in eps_list:
        report: OptimumReport = optimize(s, p, RiskBudgets(eps, eps))
        for metric, theory, mc in (
            ("q_max", benchmark_qmax(c, p, eps), report.q_max),
            ("r_max", benchmark_rmax(c, eps), report.r_max),
        ):
            if theory > 1e-12:
                err = abs(mc - theory) / theory * 100.0
            else:
                err = None
            rows.append(ValidationRow(eps, metric, theory, mc, err))
    return rows


def write_validation_csv(rows, path, source) -> None:
    write_csv(path, ["eps", "metric", "theory", "mc", "rel_error_percent"],
              ((r.eps, r.metric, r.theory, r.mc, r.rel_error_percent) for r in rows),
              source)
