"""Risk-adjusted objective: soft outage penalties instead of hard budgets.

The exploratory objective trades throughput against empirical outage
probabilities,

    J(q, r) = q*r - lambda_cov * F<_ccov(q*sqrt(n)/(2*delta))
                  - lambda_rel * F<_rach(r),

with F< the strict empirical CDFs of the cached sample arrays.  Because the
empirical CDFs are step functions, J is maximized by exhaustive evaluation
on a uniform grid over [0,1]^2 rather than by smooth optimization.

Among grid points whose J lies within 1e-12 (absolute) of the maximum, the
reported maximizer is the lexicographically smallest (q, then r) — ties are
real here: whole axes of the grid can share J = 0 in the no-transmission
regime.  First-order-condition residuals for interior maximizers are
provided for smooth (closed-form) channel models, where densities exist.

heatmap_sweep is the one weight sweep and grid_maximize its one-pair case.
The axis, q*r, both strict CDFs (one binary search per grid coordinate) and
the sparse-regime bound do not depend on the weights, so they are computed
once per sweep.  The row envelope

    env_i = max_j (q_i*r_j - lambda_rel * F<_rach(r_j))

depends on lambda_rel alone: one pass over the G x G grid per distinct
lambda_rel.  Each weight pair then bounds row i of J by env_i - lambda_cov *
F<_ccov(q_i) in O(G) and evaluates J only on the rows whose bound lies within
TIE_TOLERANCE plus a rounding margin of the best one.  Those rows hold every
cell the tie rule can report, and their J is the full grid's bit for bit.
Sweeping one weight is a heatmap whose other axis holds one value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._csvio import write_csv
from .physics import q_ceiling
from .quantiles import strict_cdf
from .risk_constrained import ProtocolParams
from .samples import SampleSet

__all__ = [
    "RiskWeights",
    "Strategy",
    "GridSpec",
    "GridMaximum",
    "objective",
    "grid_maximize",
    "heatmap_sweep",
    "foc_residual",
    "write_lambda_sweep_csv",
    "write_heatmap_csv",
]

# J values this close to the grid maximum count as ties and fall through
# to the lexicographic rule.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RiskWeights:
    """Penalty weights on covertness and reliability outage probabilities."""

    lambda_cov: float
    lambda_rel: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_cov", float(self.lambda_cov))
        object.__setattr__(self, "lambda_rel", float(self.lambda_rel))
        if not (0 <= self.lambda_cov < np.inf and 0 <= self.lambda_rel < np.inf):
            raise ValueError(
                f"weights must be finite and >= 0, "
                f"got ({self.lambda_cov}, {self.lambda_rel})"
            )


@dataclass(frozen=True)
class Strategy:
    """A fixed transmission probability and code rate."""

    q: float
    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r", float(self.r))
        if not 0 <= self.q <= 1 or not 0 <= self.r <= 1:
            raise ValueError(f"strategy must lie in [0,1]^2, got ({self.q}, {self.r})")


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid on [0,1] x [0,1]."""

    points_per_axis: int = 401

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError(
                f"points_per_axis must be >= 2, got {self.points_per_axis}"
            )

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.points_per_axis)


@dataclass(frozen=True)
class GridMaximum:
    """Grid maximizer, its objective value, and the sparse-regime flag.

    ``outside_sparse_regime`` marks maximizers whose q exceeds the
    transmission level a median channel draw would allow — the covertness
    surrogate is a small-q approximation, so such points are qualitative.
    """

    strategy: Strategy
    j_value: float
    outside_sparse_regime: bool


def objective(
    s: SampleSet, st: Strategy, w: RiskWeights, p: ProtocolParams
) -> float:
    """Risk-adjusted throughput J at a single strategy."""
    cov_outage = strict_cdf(s.ccov, st.q * np.sqrt(p.n) / (2.0 * p.delta))
    rel_outage = strict_cdf(s.rach, st.r)
    return st.q * st.r - w.lambda_cov * cov_outage - w.lambda_rel * rel_outage


def _sparse_q_bound(s: SampleSet, p: ProtocolParams) -> float:
    # Transmission probability the median c_cov draw would permit.  ccov is
    # sorted and NaN-free, so averaging its middle one or two entries gives
    # np.median's value bit for bit without its copy and partition.
    mid = s.ccov[(s.K - 1) // 2 : s.K // 2 + 1]
    return q_ceiling(mid.sum() / mid.size, p.delta, p.n)


def _grid_kernel(s: SampleSet, p: ProtocolParams, g: GridSpec):
    # The weight-independent terms of J, once; the returned per-pair kernel
    # evaluates J, in the full grid's operations and order, on the rows the
    # envelope bound keeps (see heatmap_sweep).
    axis = g.axis()
    qr = np.outer(axis, axis)
    f_cov = strict_cdf(s.ccov, axis * np.sqrt(p.n) / (2.0 * p.delta))
    f_rel = strict_cdf(s.rach, axis)
    q_bound = _sparse_q_bound(s, p)
    scratch = np.empty_like(qr)
    envelopes: dict[float, np.ndarray] = {}

    def maximize(w: RiskWeights) -> GridMaximum:
        a = w.lambda_cov * f_cov
        b = w.lambda_rel * f_rel
        env = envelopes.get(w.lambda_rel)
        if env is None:
            env = envelopes[w.lambda_rel] = np.subtract(qr, b, out=scratch).max(axis=1)
        ub = env - a
        # Each subtraction rounds by at most half an ulp of a value no larger
        # than 1 + lambda_cov + lambda_rel in magnitude, so a row's largest
        # computed J and its computed bound differ by well under margin.  A
        # row more than TIE_TOLERANCE + 4*margin under the best bound then
        # holds no cell within TIE_TOLERANCE of the maximum (the slack also
        # covers the rounding of the threshold).  An overflowing margin
        # keeps every row.
        margin = 8.0 * np.finfo(float).eps * (1.0 + w.lambda_cov + w.lambda_rel)
        rows = np.flatnonzero(ub >= ub.max() - TIE_TOLERANCE - 4.0 * margin)
        j = qr[rows] - a[rows, None]
        j -= b
        flat = j.reshape(-1)
        k = int(flat.argmax())  # flat[k] is the maximum: the first tie is at or before k
        ki, ri = divmod(int(np.argmax(flat[: k + 1] >= flat[k] - TIE_TOLERANCE)), axis.size)
        qi = int(rows[ki])
        strategy = Strategy(q=axis[qi], r=axis[ri])
        return GridMaximum(strategy, float(j[ki, ri]), strategy.q > q_bound)

    return maximize


def grid_maximize(s: SampleSet, w: RiskWeights, p: ProtocolParams,
                  g: GridSpec = GridSpec()) -> GridMaximum:
    """Maximization of J over the uniform grid, equal to exhaustive evaluation."""
    return heatmap_sweep(s, p, g, [w.lambda_cov], [w.lambda_rel])[0][0]


def heatmap_sweep(s: SampleSet, p: ProtocolParams, g: GridSpec,
                  lambda_cov_values: Sequence[float],
                  lambda_rel_values: Sequence[float]) -> list[list[GridMaximum]]:
    """Cartesian weight sweep; row index follows lambda_cov, column lambda_rel.

    The weight-independent terms of J are computed once per sweep, and the
    row envelope max_j (q*r - lambda_rel * F<_rach(r)) once per distinct
    lambda_rel.  Per weight pair, the envelope minus the covertness penalty
    bounds each row of J; only the rows within TIE_TOLERANCE + 4*margin of
    the best bound are evaluated, where margin = 8*eps*(1 + lambda_cov +
    lambda_rel) exceeds the rounding gap between a row's bound and its J.
    The result equals full-grid maximization exactly (an overflowing margin
    evaluates every row).  A one-axis sweep is a heatmap whose other axis
    holds a single value.  Weights near the float maximum can overflow J to
    -inf in cells that cannot win; that is silent, not a warning.
    """
    maximize = _grid_kernel(s, p, g)
    with np.errstate(over="ignore"):
        return [[maximize(RiskWeights(lc, lr)) for lr in lambda_rel_values]
                for lc in lambda_cov_values]


def foc_residual(
    st: Strategy,
    w: RiskWeights,
    p: ProtocolParams,
    density_ccov: Callable[[float], float],
    density_rach: Callable[[float], float],
) -> tuple[float, float]:
    """Stationarity residuals of the smooth J at an interior strategy.

    For channel models with densities (closed forms, not empirical steps)
    an interior maximizer must satisfy dJ/dq = dJ/dr = 0:

        res_q = r - lambda_cov * (sqrt(n)/(2*delta)) * f_ccov(q*sqrt(n)/(2*delta))
        res_r = q - lambda_rel * f_rach(r)

    The caller supplies the density evaluators (analytic for the benchmark
    channel; finite differences of closed-form CDFs otherwise).
    """
    scale = np.sqrt(p.n) / (2.0 * p.delta)
    res_q = st.r - w.lambda_cov * scale * density_ccov(st.q * scale)
    res_r = st.q - w.lambda_rel * density_rach(st.r)
    return float(res_q), float(res_r)


_WEIGHT_COLUMNS = [
    "lambda_cov", "lambda_rel", "q_star", "r_star", "j_value", "outside_sparse_regime",
]


def _write_weight_csv(
    columns, matrix, lambda_cov_values, lambda_rel_values, path,
    *, seed, K, digest,
) -> None:
    # One row per weight pair, row-major like the matrix, cut to the columns.
    rows = (
        (lc, lr, best.strategy.q, best.strategy.r, best.j_value,
         best.outside_sparse_regime)[: len(columns)]
        for lc, row in zip(lambda_cov_values, matrix, strict=True)
        for lr, best in zip(lambda_rel_values, row, strict=True)
    )
    write_csv(path, columns, rows, seed=seed, K=K, digest=digest)


# write_*(matrix, lambda_cov_values, lambda_rel_values, path, *, seed, K, digest):
# the heatmap CSV drops j_value and the sparse-regime flag.
write_lambda_sweep_csv = partial(_write_weight_csv, _WEIGHT_COLUMNS)
write_heatmap_csv = partial(_write_weight_csv, _WEIGHT_COLUMNS[:4])
