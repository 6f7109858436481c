"""Finite-difference risk sensitivities along the symmetric-budget line.

The quantities of interest are the partial derivatives of the optimal
throughput with respect to each risk budget, evaluated on the symmetric
line eps_cov = eps_rel = eps:

    s_cov = d t_star(eps_cov, eps) / d eps_cov   at eps_cov = eps,
    s_rel = d t_star(eps, eps_rel) / d eps_rel   at eps_rel = eps.

On empirical sample sets t_star is a staircase in each budget (it moves
only when eps*K crosses an integer), so the derivative is estimated by
central differences with a relative step h = eps/10: at K = 10^6 and
eps >= 1e-4 each step spans at least 10 order statistics, which smooths
the staircase without washing out the local slope.  The step is clipped
so eps +- h stays inside (0, 1), falling back to a one-sided difference
against the upper boundary.  Because the rectangle problem separates, the
optima at the symmetric budgets eps - h, eps and eps + h hold every factor
the two differences need, so each point costs three optimize calls.

For channel models with densities there is also the exact form

    s_cov = (2*delta/sqrt(n)) * r_max / f_ccov(Q<_ccov(eps_cov)),   uncapped
    s_cov = 0,                                                      capped
    s_rel = q_max / f_rach(Q<_rach(eps_rel)),

implemented in sensitivity_formula and cross-checked against the finite
differences on the closed-form benchmark channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .quantiles import RiskBudgets, strict_outage_quantile
from .risk_constrained import ProtocolParams, optimize
from .samples import SampleSet

__all__ = [
    "SensitivityPoint",
    "SingularSensitivityError",
    "sensitivities_symmetric",
    "sensitivity_formula",
    "write_sensitivity_csv",
]


class SingularSensitivityError(ValueError):
    """A required density is zero where the analytic formula divides by it."""


@dataclass(frozen=True)
class SensitivityPoint:
    """Finite-difference sensitivities at one symmetric budget.

    Flags:
      atom_suspected — an evaluation point's rate quantile sat on the
        point mass at r_ach = 0, where the one-sided derivative notion
        and the finite difference can disagree;
      cap_transition — the covertness cap q_max = 1 switched state between
        evaluation points, so s_cov straddles the kink.
    """

    eps: float
    s_cov: float
    s_rel: float
    flags: tuple[str, ...] = ()


def sensitivities_symmetric(
    s: SampleSet, p: ProtocolParams, eps_grid
) -> list[SensitivityPoint]:
    """Central finite differences of t_star in each budget along eps_grid.

    Parameters
    ----------
    s, p : SampleSet, ProtocolParams
        Cached samples and protocol constants.
    eps_grid : sequence of float
        Budgets in (0, 1); [1e-4, 1e-1] is the numerically well-behaved
        range at K = 10^6.

    Returns
    -------
    list of SensitivityPoint
        Derivative estimates are >= 0 up to rounding because t_star is
        nondecreasing in each budget.
    """
    points = []
    zero_atom = bool(s.rach[0] == 0.0)
    for eps in eps_grid:
        eps = RiskBudgets.check(float(eps))
        h = eps / 10.0
        # eps - h > 0 always; near 1 the difference is one-sided, up to eps.
        lo, hi = eps - h, (eps + h if eps + h < 1.0 else eps)
        span = hi - lo

        # t_star(eps_cov, eps_rel) = q_max(eps_cov) * r_max(eps_rel), so the
        # three symmetric optima hold both factors of all four stencil points.
        at_lo, mid, at_hi = (optimize(s, p, RiskBudgets(e, e)) for e in (lo, eps, hi))
        s_cov = (at_hi.q_max * mid.r_max - at_lo.q_max * mid.r_max) / span
        s_rel = (mid.q_max * at_hi.r_max - mid.q_max * at_lo.r_max) / span

        flags = []
        if zero_atom and strict_outage_quantile(s.rach, lo) == 0.0:
            flags.append("atom_suspected")
        if not at_lo.q_capped == mid.q_capped == at_hi.q_capped:
            flags.append("cap_transition")
        points.append(
            SensitivityPoint(eps=eps, s_cov=s_cov, s_rel=s_rel, flags=tuple(flags))
        )
    return points


def sensitivity_formula(
    q_max: float,
    r_max: float,
    p: ProtocolParams,
    eps: float,
    density_ccov_at_quantile: float,
    density_rach_at_quantile: float,
    capped: bool,
) -> tuple[float, float]:
    """Exact sensitivities for a channel model with known densities.

    ``density_ccov_at_quantile`` and ``density_rach_at_quantile`` are the
    density values at the respective budget quantiles for the symmetric
    budget ``eps``.  When the covertness bound is capped at q_max = 1 the
    covertness sensitivity vanishes (the budget is locally slack).
    """
    RiskBudgets.check(eps)
    if capped:
        s_cov = 0.0
    else:
        if not density_ccov_at_quantile > 0:
            raise SingularSensitivityError(
                f"c_cov density is {density_ccov_at_quantile} at the eps={eps} quantile"
            )
        s_cov = (2.0 * p.delta / np.sqrt(p.n)) * r_max / density_ccov_at_quantile
    if not density_rach_at_quantile > 0:
        raise SingularSensitivityError(
            f"r_ach density is {density_rach_at_quantile} at the eps={eps} quantile"
        )
    s_rel = q_max / density_rach_at_quantile
    return float(s_cov), float(s_rel)


def write_sensitivity_csv(points, path, source) -> None:
    write_csv(path, ["eps", "s_cov", "s_rel", "flags"],
              ((pt.eps, pt.s_cov, pt.s_rel, ";".join(pt.flags)) for pt in points),
              source)
