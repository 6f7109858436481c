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
a smooth density, not a numerical one.  Where a product overflows (Z*Z at a
tiny rate, rate * x_root at a huge one) the result is its limit, silently.

validate(s, c, p, eps_list) compares optimize on a sample set drawn from c
with these closed forms; it draws nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantiles import RiskBudgets
from .risk_constrained import OptimumReport, ProtocolParams, optimize
from .samples import BenchmarkChannelSpec, SampleSet, channel_digest
from .samples import generate_sample_set  # noqa: F401  (uncalled; perfbench/spans.py patches it)
from .physics import achievable_rate
from ._csvio import write_csv  # noqa: F401  (uncalled; perfbench/spans.py patches it)

__all__ = [
    "benchmark_qmax",
    "benchmark_rmax",
    "benchmark_ccov_quantile",
    "benchmark_ccov_cdf",
    "benchmark_ccov_density",
    "ValidationRow",
    "validate",
]


def _k(c: BenchmarkChannelSpec) -> float:
    # Prefactor of c_cov = k * sqrt(nb + eta0*nb^2).
    return np.sqrt(2.0 * c.eta0) / (1.0 - c.eta0)


def benchmark_ccov_quantile(c: BenchmarkChannelSpec, eps_cov: float) -> float:
    """Exact strict-outage quantile of c_cov: k * sqrt((Z^2 - 1)/(4*eta0))."""
    eps_cov = RiskBudgets.check(eps_cov, "eps_cov")
    z = 1.0 - (2.0 * c.eta0 / c.nb.rate) * np.log1p(-eps_cov)
    # ln(1 - eps) < 0 for eps in (0, 1), so Z >= 1 (or +inf) and the
    # radicand is never negative.  Z*Z overflows at a tiny rate, where the
    # quantile's limit +inf is right.
    with np.errstate(over="ignore"):
        return float(_k(c) * np.sqrt((z * z - 1.0) / (4.0 * c.eta0)))


def benchmark_qmax(c: BenchmarkChannelSpec, p: ProtocolParams, eps_cov: float) -> float:
    """Closed-form optimal transmission probability, capped at 1."""
    # The slope keeps the order (2*delta/sqrt(n)) * Q that the validation CSV
    # pins; q_ceiling(Q) can differ from it in the last ulp.
    return min(1.0, p.q_ceiling(1.0) * benchmark_ccov_quantile(c, eps_cov))


def benchmark_rmax(c: BenchmarkChannelSpec, eps_rel: float) -> float:
    """Closed-form optimal code rate: the achievable rate at the upper
    exponential noise quantile -ln(eps_rel)/rate."""
    eps_rel = RiskBudgets.check(eps_rel, "eps_rel")
    return float(achievable_rate(c.eta0, -np.log(eps_rel) / c.nb.rate))


def benchmark_ccov_cdf(c: BenchmarkChannelSpec, x):
    """P[c_cov <= x] = 1 - exp(-rate * x_root(x)), elementwise."""
    _, root, _ = _x_root(c, x)
    with np.errstate(over="ignore"):  # rate * root past the float range: the cdf is 1
        out = -np.expm1(-c.nb.rate * root)
    return float(out) if np.ndim(x) == 0 else out


def benchmark_ccov_density(c: BenchmarkChannelSpec, x):
    """Density of c_cov: rate * exp(-rate * x_root(x)) * dx_root/dx."""
    x_a, root, sqrt_term = _x_root(c, x)
    k = _k(c)
    with np.errstate(invalid="ignore"):  # inf/inf at x = inf, masked below
        dxroot = 2.0 * x_a / (k * k * sqrt_term)
    # Past the overflow the root, or rate * root, is +inf, where the
    # density's limit is 0.
    with np.errstate(over="ignore"):
        out = np.where(np.isinf(root), 0.0,
                       c.nb.rate * np.exp(-c.nb.rate * root) * dxroot)
    return float(out) if np.ndim(x) == 0 else out


def _x_root(c: BenchmarkChannelSpec, x):
    # x as a checked float array, the positive root of eta0*v^2 + v - (x/k)^2
    # = 0 (the noise level whose c_cov is x) and its sqrt(1 + 4*eta0*(x/k)^2).
    x_a = np.asarray(x, dtype=float)
    if np.any(x_a < 0):
        raise ValueError("x must be >= 0")
    u = x_a / _k(c)
    # u*u overflows for huge x (past ~1e155 at eta0 = 0.9): the root is +inf, the cdf 1.
    with np.errstate(over="ignore"):
        sqrt_term = np.sqrt(1.0 + 4.0 * c.eta0 * u * u)
    return x_a, (-1.0 + sqrt_term) / (2.0 * c.eta0), sqrt_term


@dataclass(frozen=True)
class ValidationRow:
    """One metric at one symmetric budget: closed form vs Monte Carlo."""

    eps: float
    metric: str
    theory: float
    mc: float
    rel_error_percent: float | None


def validate(s: SampleSet, c: BenchmarkChannelSpec, p: ProtocolParams,
             eps_list) -> list[ValidationRow]:
    """Monte Carlo on ``s`` vs the closed forms of ``c`` at each symmetric budget.

    ``s`` must be drawn from ``c`` (ValueError otherwise) and is reused
    across all budgets.  Relative errors are computed from full-precision
    values; when the closed-form value is below 1e-12 (the R_max ~ 0 rows)
    the error is recorded as None — agreement there is absolute, not relative.
    """
    if s.channel_digest != channel_digest(c):
        raise ValueError("the sample set was not drawn from the benchmark channel given")
    eps_list = [RiskBudgets.check(eps) for eps in eps_list]
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
