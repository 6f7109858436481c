"""Risk-constrained throughput optimizer and its sweep harnesses.

Under strict-outage budgets the chance-constrained design problem separates:
the covertness constraint pins the largest admissible transmission
probability and the reliability constraint pins the largest admissible code
rate, independently of each other.  The optimum over the resulting feasible
rectangle is its upper-right corner,

    q_max = min{1, (2*delta/sqrt(n)) * Q<_ccov(eps_cov)},
    r_max = Q<_rach(eps_rel),
    t_star = q_max * r_max          (per-use covert throughput),

with Q< the strict-outage quantile of the cached sample arrays.  t_star is
q_max * r_max by definition: OptimumReport derives it rather than storing it.
Because both quantiles are nondecreasing in their budget, t_star is monotone
in each budget (the Pareto property the sweep tests rely on), and in the
uncapped regime n * t_star grows exactly like sqrt(n) — the square-root law.

r_max = 0 is a legal result meaning the reliability budget cannot be met at
any positive rate; the report then carries t_star = 0 rather than an error.

surface_sweep is the one solver: it looks q_max up once per eps_cov and r_max
once per eps_rel, and optimize is its 1x1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import write_csv  # noqa: F401  (uncalled; perfbench/spans.py patches it)
from .quantiles import RiskBudgets, order_index, strict_outage_quantile
from .samples import SampleSet

__all__ = [
    "InvariantError",
    "ProtocolParams",
    "OptimumReport",
    "REPORT_COLUMNS",
    "optimize",
    "frontier_sweep",
    "surface_sweep",
    "n_scaling_sweep",
    "decade_gains",
    "DECADE_BUDGETS",
]

# Symmetric budgets of the decade-gain table, smallest first.
DECADE_BUDGETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

# CSV columns of OptimumReport.cells(), in order.
REPORT_COLUMNS = ("q_max", "r_max", "t_star", "n_t_star", "q_capped")


class InvariantError(Exception):
    """An internal consistency check failed: a bug, not bad input."""


@dataclass(frozen=True)
class ProtocolParams:
    """Frame length n and covertness threshold delta.

    They own the square-root-law map q = 2*delta*c_cov/sqrt(n): q_ceiling is
    the map and ccov_threshold its inverse.  Each at 1.0 is a slope, and a
    slope times x has the bits of the product written out in that order.
    """

    n: int
    delta: float

    def __post_init__(self) -> None:
        # np.sqrt takes an integer n only below 2**64; the range test comes
        # first so that inf and nan raise ValueError, not int()'s errors.
        if not 1 <= self.n < 2**64 or self.n != int(self.n):
            raise ValueError(f"n must be a positive integer below 2**64, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "delta", float(self.delta))
        if not 0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta}")

    def q_ceiling(self, c_cov) -> float:
        """Uncapped bound 2*delta*c_cov/sqrt(n) as a Python float; +inf passes through."""
        return float(2.0 * self.delta * c_cov / np.sqrt(self.n))

    def ccov_threshold(self, q):
        """c_cov = q*sqrt(n)/(2*delta) at which q is the bound, elementwise."""
        return q * np.sqrt(self.n) / (2.0 * self.delta)


@dataclass(frozen=True, kw_only=True)
class OptimumReport:
    """Optimizer output: the feasible rectangle's corner and its payload.

    ``t_star`` is q_max * r_max by definition, so it is a property, not a
    field.  ``q_capped`` records that the covertness bound exceeded 1 and was
    capped.  ``below_resolution`` is order_index(min budget, K) == 0: the
    budget is finer than 1/K, its quantile is the minimum sample and the
    estimate rests on sparse tail data.  Construction raises InvariantError
    for a q_max outside [0, 1], under ``python -O`` too.
    """

    q_max: float
    r_max: float
    total_payload: float
    q_capped: bool
    below_resolution: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_max <= 1.0:
            raise InvariantError(f"q_max outside [0, 1]: {self.q_max!r}")

    @property
    def t_star(self) -> float:
        return self.q_max * self.r_max

    def cells(self) -> tuple:
        """The report's CSV cells, one per REPORT_COLUMNS entry."""
        return (self.q_max, self.r_max, self.t_star, self.total_payload, self.q_capped)


def optimize(s: SampleSet, p: ProtocolParams, b: RiskBudgets) -> OptimumReport:
    """Solve the rectangle problem on one sample set: surface_sweep's 1x1 case.

    Parameters
    ----------
    s : SampleSet
        Sorted marginal samples of c_cov and r_ach: a full set, or a tail
        set that reaches the larger budget.
    p : ProtocolParams
        Frame length and covertness threshold.
    b : RiskBudgets
        Strict-outage budgets (eps_cov, eps_rel), each in (0, 1).

    Returns
    -------
    OptimumReport
        total_payload is n * t_star.
    """
    return surface_sweep(s, p, [b.eps_cov], [b.eps_rel])[0][0]


def frontier_sweep(
    s: SampleSet, p: ProtocolParams, eps_grid: Sequence[float]
) -> list[tuple[float, OptimumReport]]:
    """Optimize at symmetric budgets eps_cov = eps_rel = eps along a grid."""
    return [
        (float(eps), optimize(s, p, RiskBudgets(eps, eps))) for eps in eps_grid
    ]


def surface_sweep(
    s: SampleSet,
    p: ProtocolParams,
    eps_cov_grid: Sequence[float],
    eps_rel_grid: Sequence[float],
) -> list[list[OptimumReport]]:
    """Cartesian budget sweep; row index follows eps_cov, column eps_rel.

    The rectangle problem separates, so q_max is solved once per eps_cov and
    r_max once per eps_rel, each with its resolution flag: the order index is
    monotone in the budget, so a cell's smaller budget has index 0 exactly
    when either budget does.  Every risk-constrained result is built here.
    """
    if len(eps_cov_grid) == 0 or len(eps_rel_grid) == 0:
        return [[] for _ in eps_cov_grid]
    # Checking the first eps_cov, then each axis, raises for the first bad
    # cell in row-major order, as one RiskBudgets per cell would.
    RiskBudgets.check(eps_cov_grid[0], "eps_cov")
    eps_rel_axis = [RiskBudgets.check(e, "eps_rel") for e in eps_rel_grid]
    eps_cov_axis = [RiskBudgets.check(e, "eps_cov") for e in eps_cov_grid]
    r_axis = [(float(strict_outage_quantile(s.rach, e, s.K)), order_index(e, s.K) == 0)
              for e in eps_rel_axis]
    matrix = []
    for eps_cov in eps_cov_axis:
        q_unc = p.q_ceiling(strict_outage_quantile(s.ccov, eps_cov, s.K))
        q_max = min(1.0, q_unc)
        q_coarse = order_index(eps_cov, s.K) == 0
        matrix.append([OptimumReport(
            q_max=q_max,
            r_max=r_max,
            total_payload=p.n * (q_max * r_max),
            q_capped=bool(q_unc > 1.0),
            below_resolution=q_coarse or r_coarse,
        ) for r_max, r_coarse in r_axis])
    return matrix


def n_scaling_sweep(
    s: SampleSet, delta: float, eps: float, n_grid: Sequence[int]
) -> list[tuple[int, float]]:
    """Total payload n * t_star versus frame length at a fixed symmetric budget.

    In the uncapped regime the payload equals sqrt(n) * (2*delta*Q<_ccov(eps))
    * r_max, so quadrupling n doubles the payload exactly (in floating point
    too: the n-dependence enters only through powers of two once n scales by
    4, leaving the significand untouched).
    """
    b = RiskBudgets(eps, eps)
    return [(int(n), optimize(s, ProtocolParams(n=n, delta=delta), b).total_payload)
            for n in n_grid]


def decade_gains(
    s: SampleSet, p: ProtocolParams
) -> list[tuple[float, float, float | None]]:
    """Throughput gains between consecutive DECADE_BUDGETS on the frontier.

    Each output row is (eps_from, eps_to, gain); a zero-throughput
    denominator yields gain None — the infeasible-gain marker — rather
    than an exception.
    """
    t = [rep.t_star for _, rep in frontier_sweep(s, p, DECADE_BUDGETS)]
    return [(lo, hi, t_hi / t_lo if t_lo > 0 else None) for lo, hi, t_lo, t_hi
            in zip(DECADE_BUDGETS, DECADE_BUDGETS[1:], t, t[1:])]
