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
The axis, both strict CDFs (one binary search per grid coordinate) and
the sparse-regime bound do not depend on the weights, so they are computed
once per sweep.  So is the upper hull of the G points (F<_rach(r_j), r_j)
(Andrew's monotone chain), from which the row envelope

    env_i = max_j (q_i*r_j - lambda_rel * F<_rach(r_j))

is read for every lambda_rel: row i's maximum sits at the hull vertex whose
edges bracket the slope lambda_rel/q_i, one binary search per row.  Each
weight pair then bounds row i of J by env_i - lambda_cov * F<_ccov(q_i) in
O(G) and evaluates J only on the rows whose bound lies within TIE_TOLERANCE
plus a rounding margin of the best one.  Those rows hold every cell the tie
rule can report, and their J is the full grid's bit for bit.
The pairs go through in chunks of G // 2, one batch of array operations per
chunk: the bounds of all its pairs at once, one flat scan of the keep mask
for the kept (pair, row) cells, and J on those rows in groups of whole
pairs.  A segment reduction then picks each pair's maximum and its first
cell in row-major order within TIE_TOLERANCE.  The chunk's work arrays live
in one G x G scratch array, the sweep's only G x G float array: however
many rows tie, it holds that scratch and arrays of O(G) floats per weight,
with no other temporary larger than one G x G array of bools.  Sweeping one
weight is a heatmap whose other axis holds one value.

The sweep returns columns, not objects: one HeatmapResult of four arrays
shaped (len(lambda_cov), len(lambda_rel)), filled straight from each pair's
winning grid indices and J.  grid_maximize builds the one GridMaximum of its
single pair from cell [0, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._csvio import write_csv  # noqa: F401  (uncalled; perfbench/spans.py patches it)
from .quantiles import strict_cdf
from .risk_constrained import ProtocolParams
from .samples import SampleSet

__all__ = [
    "RiskWeights",
    "Strategy",
    "GridSpec",
    "GridMaximum",
    "HeatmapResult",
    "objective",
    "grid_maximize",
    "heatmap_sweep",
    "foc_residual",
]

# J values this close to the grid maximum count as ties and fall through
# to the lexicographic rule.
TIE_TOLERANCE = 1e-12

# Each subtraction in J rounds by at most half an ulp of a value no larger
# than 1 + lambda_cov + lambda_rel in magnitude, so a row's largest computed J
# and its bound from the exact float envelope differ by well under margin =
# _EIGHT_EPS * ((1 + lambda_cov) + lambda_rel).  The bound starts instead
# from the hull envelope, the float value of one real cell of the row, so it
# lies at or below the exact float envelope, and under it by less than
# _hull_slack(lambda_rel) = _EIGHT_EPS * (1 + lambda_rel):
#   - within a plateau of equal F<_rach only the largest r can win, because
#     fl(q*r) and fl(a - b) are monotone, so the hull keeps one point per
#     plateau and loses nothing by it;
#   - a cell's float value lies within about eps * (1 + lambda_rel) of its
#     real one (q*r <= 1 and lambda_rel * F< <= lambda_rel), which the two
#     cells compared pay once each;
#   - a vertex taken off by rounding, in the hull's slope comparisons or in
#     the search for lambda_rel/q, sits across edges whose slopes s equal
#     t = lambda_rel/q to a few eps.  Moving along an edge changes the real
#     value by q*dF*(s - t), so the loss is a few eps times the sum of q*dr
#     and lambda_rel*dF over those edges, at most 1 + lambda_rel in total.
# A row more than TIE_TOLERANCE + 4*(margin + slack) under the best bound
# then holds no cell within TIE_TOLERANCE of the maximum (the factor also
# covers the rounding of the threshold).  A larger slack only keeps more
# rows, so overestimating it is always safe.
_EIGHT_EPS = 8.0 * np.finfo(float).eps


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


@dataclass(frozen=True, eq=False)
class HeatmapResult:
    """Grid maxima of a weight sweep, one array per field.

    Each array is shaped (len(lambda_cov), len(lambda_rel)).  Cell [i, j]
    holds the maximizer (q_star, r_star), its objective value j_value and
    the sparse-regime flag (see GridMaximum) of the weight pair
    (lambda_cov[i], lambda_rel[j]).
    """

    q_star: np.ndarray
    r_star: np.ndarray
    j_value: np.ndarray
    outside_sparse_regime: np.ndarray

    def maximum(self, i: int, j: int) -> GridMaximum:
        """Cell [i, j] as one GridMaximum."""
        return GridMaximum(Strategy(self.q_star[i, j], self.r_star[i, j]),
                           float(self.j_value[i, j]),
                           bool(self.outside_sparse_regime[i, j]))


def objective(
    s: SampleSet, st: Strategy, w: RiskWeights, p: ProtocolParams
) -> float:
    """Risk-adjusted throughput J at a single strategy; s must be a full set."""
    s.require_full("objective")
    cov_outage = strict_cdf(s.ccov, p.ccov_threshold(st.q))
    rel_outage = strict_cdf(s.rach, st.r)
    return st.q * st.r - w.lambda_cov * cov_outage - w.lambda_rel * rel_outage


def _sparse_q_bound(s: SampleSet, p: ProtocolParams) -> float:
    # Transmission probability the median c_cov draw would permit.  ccov is
    # sorted and NaN-free, so averaging its middle one or two entries gives
    # np.median's value bit for bit without its copy and partition.
    mid = s.ccov[(s.K - 1) // 2 : s.K // 2 + 1]
    return p.q_ceiling(mid.sum() / mid.size)


def _upper_hull(f: np.ndarray, r: np.ndarray):
    # Columns of the upper hull vertices of the points (f[j], r[j]), left to
    # right, and minus the slopes of its edges, ascending; f is nondecreasing
    # and r increasing.  A run of equal f contributes its last column, the
    # only one that can win.  A vertex is popped while its incoming edge is
    # no steeper than the edge on to the next point, compared on the computed
    # slopes, so those come out strictly decreasing however they round.
    ends = np.flatnonzero(np.append(f[1:] != f[:-1], True))
    hull, slopes = [], []  # slopes[k]: the edge from hull[k] to hull[k + 1]
    for j, x, y in zip(ends.tolist(), f[ends].tolist(), r[ends].tolist()):
        while hull:
            _, x0, y0 = hull[-1]
            s = (y - y0) / (x - x0)
            if not slopes or s < slopes[-1]:
                slopes.append(s)
                break
            hull.pop()
            slopes.pop()
        hull.append((j, x, y))
    return np.array([j for j, _, _ in hull]), np.negative(slopes)


def _row_envelopes(f_rel: np.ndarray, axis: np.ndarray,
                   lam_rel: np.ndarray) -> np.ndarray:
    # env[e, i]: the float value of row i's hull cell under lambda_rel[e],
    # axis[i]*axis[j] - lambda_rel[e] * f_rel[j], at most max_j of the same
    # expression and at most _hull_slack below it.  Its q*r is the product
    # J's rows take from the axis too, with no G x G array.  For q > 0 the
    # cell maximizes r - (lambda_rel/q) * F<, so it is the vertex after the
    # edges steeper than lambda_rel/q; the q = 0 row takes vertex 0, the
    # least F<.
    cols, neg_slopes = _upper_hull(f_rel, axis)
    vertex = np.zeros((lam_rel.size, axis.size), dtype=np.intp)
    vertex[:, 1:] = np.searchsorted(neg_slopes, np.divide.outer(-lam_rel, axis[1:]))
    j = cols[vertex]
    return axis * axis[j] - lam_rel[:, None] * f_rel[j]


def _hull_slack(lr):
    # How far a row's exact float envelope can lie above its hull envelope.
    return _EIGHT_EPS * (1.0 + lr)


def _kept_cells(ub: np.ndarray, lc: np.ndarray, lr: np.ndarray):
    # The kept (pair, row) cells of a chunk whose row bounds are ub, pair by
    # pair with rows ascending, and each pair's offset into them: pair k owns
    # entries start[k]:start[k + 1].  One scan of the C-contiguous mask gives
    # its flat indices in row-major order; the divmod by G splits them into
    # np.nonzero's two index arrays, the owner computed in place.
    margin = _EIGHT_EPS * ((1.0 + lc) + lr) + _hull_slack(lr)
    keep = ub >= ((ub.max(axis=1) - TIE_TOLERANCE) - 4.0 * margin)[:, None]
    flat = np.flatnonzero(keep)
    rows = flat % ub.shape[1]
    owner = np.floor_divide(flat, ub.shape[1], out=flat)
    return owner, rows, np.searchsorted(owner, np.arange(lc.size + 1))


def grid_maximize(s: SampleSet, w: RiskWeights, p: ProtocolParams,
                  g: GridSpec = GridSpec()) -> GridMaximum:
    """Maximization of J over the uniform grid, equal to exhaustive evaluation."""
    return heatmap_sweep(s, p, g, [w.lambda_cov], [w.lambda_rel]).maximum(0, 0)


def heatmap_sweep(s: SampleSet, p: ProtocolParams, g: GridSpec,
                  lambda_cov_values: Sequence[float],
                  lambda_rel_values: Sequence[float]) -> HeatmapResult:
    """Cartesian weight sweep; row index follows lambda_cov, column lambda_rel.

    Maximizes J of the sample set s under protocol p on grid g for every
    pair of the two weight sequences; the first pair that is not a valid
    RiskWeights, in row-major order, raises its ValueError.  Returns one
    HeatmapResult of four arrays shaped (len(lambda_cov_values),
    len(lambda_rel_values)): q_star, r_star, j_value and
    outside_sparse_regime of each pair's grid maximum (empty if either
    sequence is).  Each equals exhaustive evaluation of J on the full grid
    exactly; the module docstring says how.  Weights near the float maximum
    can overflow J to -inf in cells that cannot win; that is silent, not a
    warning.  s must be a full set: the strict CDFs over the grid and the
    median read the whole law, and a tail set raises ValueError.
    """
    s.require_full("heatmap_sweep")
    shape = (len(lambda_cov_values), len(lambda_rel_values))
    if 0 in shape:
        empty = np.empty(shape)
        return HeatmapResult(empty, empty, empty, np.empty(shape, dtype=bool))
    # A pair is valid when both its weights are, so checking row 0 and then
    # column 0 checks every pair and raises for the first bad pair in
    # row-major order, as checking pair by pair would.
    lc0, lr0 = lambda_cov_values[0], lambda_rel_values[0]
    lam_rel = np.array([RiskWeights(lc0, lr).lambda_rel for lr in lambda_rel_values])
    lam_cov = np.array([RiskWeights(lc, lr0).lambda_cov for lc in lambda_cov_values])

    axis = g.axis()
    G = axis.size
    f_cov = strict_cdf(s.ccov, p.ccov_threshold(axis))
    f_rel = strict_cdf(s.rach, axis)
    q_bound = _sparse_q_bound(s, p)
    scratch = np.empty((G, G))
    n_pairs = lam_cov.size * lam_rel.size
    q_idx = np.empty(n_pairs, dtype=np.intp)
    r_idx = np.empty(n_pairs, dtype=np.intp)
    j_best = np.empty(n_pairs)
    # scratch, the one G x G float array, holds the chunk's work arrays:
    # two halves of at most G // 2 rows each, so a chunk is G // 2 pairs.
    half = G // 2
    with np.errstate(over="ignore"):
        env = _row_envelopes(f_rel, axis, lam_rel)  # row e: of lambda_rel[e]
        for lo in range(0, n_pairs, half):
            ci, ri = np.divmod(np.arange(lo, min(lo + half, n_pairs)), lam_rel.size)
            lc, lr = lam_cov[ci], lam_rel[ri]
            ub = np.take(env, ri, axis=0, out=scratch[: ci.size], mode="clip")
            ub -= np.multiply.outer(lc, f_cov, out=scratch[half : half + ci.size])
            owner, rows, start = _kept_cells(ub, lc, lr)
            # Groups of whole pairs with at most half kept rows, or one pair.
            p0 = 0
            while p0 < ci.size:
                p1 = max(p0 + 1, int(np.searchsorted(start, start[p0] + half, "right")) - 1)
                lo_row, hi_row = start[p0], start[p1]
                grp, own = rows[lo_row:hi_row], owner[lo_row:hi_row]
                n = grp.size
                j = np.multiply.outer(axis[grp], axis, out=scratch[:n])
                j -= (lc[own] * f_cov[grp])[:, None]
                if p1 - p0 == 1:
                    j -= lr[p0] * f_rel
                else:
                    j -= np.multiply.outer(lr[own], f_rel, out=scratch[half : half + n])
                seg = start[p0:p1] - lo_row
                best = np.maximum.reduceat(j.max(axis=1), seg)
                hit = j >= (best - TIE_TOLERANCE)[own - p0][:, None]
                col = hit.argmax(axis=1)  # a row's first hit, or 0 if it has none
                hit_rows = np.flatnonzero(hit[np.arange(n), col])
                win = hit_rows[np.searchsorted(hit_rows, seg)]
                q_idx[lo + p0 : lo + p1] = grp[win]
                r_idx[lo + p0 : lo + p1] = col[win]
                j_best[lo + p0 : lo + p1] = j[win, col[win]]
                p0 = p1
    q = axis[q_idx].reshape(shape)
    return HeatmapResult(q, axis[r_idx].reshape(shape), j_best.reshape(shape), q > q_bound)


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
    scale = p.ccov_threshold(1.0)
    res_q = st.r - w.lambda_cov * scale * density_ccov(st.q * scale)
    res_r = st.q - w.lambda_rel * density_rach(st.r)
    return float(res_q), float(res_r)
