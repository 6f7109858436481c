"""Risk-adjusted objective, grid maximization, weight sweeps, and FOC residuals."""

import warnings

import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    GridSpec,
    ProtocolParams,
    RiskBudgets,
    RiskWeights,
    Strategy,
    benchmark_ccov_cdf,
    benchmark_ccov_density,
    foc_residual,
    grid_maximize,
    heatmap_sweep,
    objective,
    optimize,
    strict_cdf,
)
from covertq.risk_adjusted import (
    TIE_TOLERANCE,
    _hull_slack,
    _kept_cells,
    _row_envelopes,
    _sparse_q_bound,
)

from conftest import bench_rach_cdf, bench_rach_density, peak_bytes, synthetic_set


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_weights_is_throughput(baseline_set, protocol):
    w = RiskWeights(0.0, 0.0)
    for q, r in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]:
        assert objective(baseline_set, Strategy(q, r), w, protocol) == q * r


def test_objective_origin_is_free(baseline_set, protocol):
    # Strict CDFs vanish at 0, so not transmitting costs nothing no matter
    # how heavy the weights are.
    w = RiskWeights(1e9, 1e9)
    assert objective(baseline_set, Strategy(0.0, 0.0), w, protocol) == 0.0


def test_objective_saturated_penalties():
    s = synthetic_set(np.linspace(1.0, 2.0, 8), np.linspace(0.1, 0.9, 8))
    p = ProtocolParams(n=10**18, delta=0.05)  # threshold far above every c_cov
    j = objective(s, Strategy(1.0, 1.0), RiskWeights(0.5, 0.25), p)
    assert j == 1.0 - 0.5 - 0.25


# ---------------------------------------------------------------------------
# grid maximization


def test_grid_maximize_zero_weights(baseline_set, protocol):
    best = grid_maximize(baseline_set, RiskWeights(0.0, 0.0), protocol, GridSpec(11))
    assert best.strategy == Strategy(1.0, 1.0)
    assert best.j_value == 1.0
    # q = 1 is far beyond what any channel draw tolerates covertly.
    assert best.outside_sparse_regime


def test_grid_maximize_lexicographic_tie(protocol):
    # All-zero c_cov: any q > 0 is certainly detected.  With lambda_cov = 1
    # the penalty exactly cancels the best possible throughput, so the tie
    # set is the whole q = 0 column plus (1, 1); the reported maximizer must
    # be the row-major first, (0, 0).
    s = synthetic_set(np.zeros(16), np.full(16, 0.5))
    best = grid_maximize(s, RiskWeights(1.0, 0.0), protocol, GridSpec(5))
    assert best.strategy == Strategy(0.0, 0.0)
    assert best.j_value == 0.0
    assert not best.outside_sparse_regime


def test_grid_maximize_heavy_cov_weight_silences(volatile_set, protocol):
    best = grid_maximize(volatile_set, RiskWeights(1e6, 1.0), protocol)
    assert best.strategy == Strategy(0.0, 0.0)
    assert best.j_value == 0.0


def test_grid_maximize_matches_pointwise_objective(protocol):
    # Replicate the documented contract from the public pieces alone:
    # evaluate J at every grid node, keep everything within TIE_TOLERANCE
    # of the max, pick the row-major first.
    g = GridSpec(5)
    axis = g.axis()
    rng = np.random.default_rng(7)
    p = ProtocolParams(n=10**4, delta=0.05)
    for _ in range(20):
        s = synthetic_set(rng.uniform(0.0, 1500.0, 16), rng.uniform(0.0, 1.0, 16))
        w = RiskWeights(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        j = np.empty((5, 5))
        for i, q in enumerate(axis):
            for k, r in enumerate(axis):
                j[i, k] = objective(s, Strategy(q, r), w, p)
        qi, ri = np.argwhere(j >= j.max() - TIE_TOLERANCE)[0]
        best = grid_maximize(s, w, p, g)
        assert best.strategy == Strategy(axis[qi], axis[ri])
        assert best.j_value == j[qi, ri]


def test_grid_maximize_value_bounded_by_throughput(baseline_set, protocol):
    for lc, lr in [(0.1, 0.1), (1.0, 0.5), (10.0, 10.0)]:
        best = grid_maximize(baseline_set, RiskWeights(lc, lr), protocol, GridSpec(41))
        assert best.j_value <= best.strategy.q * best.strategy.r + 1e-15


def test_grid_maximize_value_nonincreasing_in_weights(baseline_set, protocol):
    values = [grid_maximize(baseline_set, RiskWeights(lc, 0.5), protocol,
                            GridSpec(41)).j_value
              for lc in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(np.diff(values) <= 0.0)


def test_grid_spec_validation():
    GridSpec(2)
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            GridSpec(bad)
    assert GridSpec(5).axis().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_weights_and_strategy_validation():
    with pytest.raises(ValueError):
        RiskWeights(-1.0, 0.0)
    with pytest.raises(ValueError):
        RiskWeights(0.0, -1e-9)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            RiskWeights(bad, 0.0)
        with pytest.raises(ValueError):
            RiskWeights(0.0, bad)
    for q, r in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)]:
        with pytest.raises(ValueError):
            Strategy(q, r)


# ---------------------------------------------------------------------------
# weight sweeps


def test_lambda_sweep_rel_axis_under_heavy_cov_weight(volatile_set, protocol):
    # With the covertness weight pinned high, transmission is already shut
    # off; sweeping the reliability weight upward can then only push the
    # rate toward zero as well.
    res = heatmap_sweep(volatile_set, protocol, GridSpec(101), [10.0],
                        np.logspace(-2.0, 1.0, 8))
    assert res.q_star.shape == (1, 8)
    [q_star], [r_star] = res.q_star.tolist(), res.r_star.tolist()
    assert all(q < 0.01 for q in q_star)
    assert all(np.diff(r_star) <= 0.0)
    assert r_star[-1] == 0.0


def test_heatmap_corners_match_grid_maximize(baseline_set, protocol):
    g = GridSpec(21)
    lc_values = [0.0, 1e6]
    lr_values = [0.0, 1e6]
    res = heatmap_sweep(baseline_set, protocol, g, lc_values, lr_values)
    assert all(col.shape == (2, 2) for col in columns(res))
    for i, lc in enumerate(lc_values):
        for j, lr in enumerate(lr_values):
            best = grid_maximize(baseline_set, RiskWeights(lc, lr), protocol, g)
            assert res.q_star[i, j] == best.strategy.q
            assert res.r_star[i, j] == best.strategy.r
    assert res.maximum(0, 0).strategy == Strategy(1.0, 1.0)
    # An empty axis gives empty columns of the sweep's shape.
    for lc, lr in [(lc_values, []), ([], [0.0])]:
        res = heatmap_sweep(baseline_set, protocol, g, lc, lr)
        assert [col.shape for col in columns(res)] == [(len(lc), len(lr))] * 4
        assert res.outside_sparse_regime.dtype == bool


def test_heatmap_shows_silent_and_aggressive_regimes(volatile_set, protocol):
    values = np.logspace(-6.0, 6.0, 25)
    q_star = heatmap_sweep(volatile_set, protocol, GridSpec(101), values, values).q_star
    assert np.any(q_star == 0.0)
    assert np.any(q_star > 0.5)


@pytest.mark.parametrize("kind", ["baseline", "volatile"])
def test_heatmap_maxima_bracket_the_risk_constrained_optimum(kind, protocol, request):
    # Everett (Oper. Res. 11(3), 1963): a maximizer (q*, r*) of J also
    # maximizes q*r among the strategies whose outages are at most its own.
    # So at its attained outages t_star is at least q* r*, and below
    # (q* + d)(r* + d) for grid step d, or a cell one step up would beat it.
    # An attained outage of 0 is asked for as 0.5/K, which keeps its order
    # statistic.  Every cell checked here has q* = 1; a cell with q* < 1 goes
    # through the covertness map's q -> c_cov -> q round trip, and its lower
    # bound could need a few ulps of slack.
    s = request.getfixturevalue(f"{kind}_set")
    d = 1.0 / 400
    weights = np.logspace(-3.0, 1.0, 25)
    res = heatmap_sweep(s, protocol, GridSpec(401), weights, weights)
    checked = 0
    for q, r in zip(res.q_star.ravel().tolist(), res.r_star.ravel().tolist()):
        eps_cov = strict_cdf(s.ccov, protocol.ccov_threshold(q))
        eps_rel = strict_cdf(s.rach, r)
        if q == 0 or r == 0 or max(eps_cov, eps_rel) >= 1:
            continue
        budgets = RiskBudgets(eps_cov or 0.5 / s.K, eps_rel or 0.5 / s.K)
        t_star = optimize(s, protocol, budgets).t_star
        assert q * r <= t_star < (q + d) * (r + d), (q, r, t_star)
        checked += 1
    assert checked > 0


def full_matrix_grid_maximum(s, w, p, g):
    # The full-matrix formulation the per-pair kernel replaced: J on the whole
    # grid, the row-major first index of every cell within TIE_TOLERANCE of
    # the maximum, and np.median for the sparse-regime bound.
    axis = g.axis()
    cov_pen = w.lambda_cov * strict_cdf(s.ccov, axis * np.sqrt(p.n) / (2.0 * p.delta))
    rel_pen = w.lambda_rel * strict_cdf(s.rach, axis)
    j = np.outer(axis, axis) - cov_pen[:, None] - rel_pen[None, :]
    qi, ri = np.argwhere(j >= float(j.max()) - TIE_TOLERANCE)[0]
    q_bound = float(2.0 * p.delta * np.median(s.ccov) / np.sqrt(p.n))
    return (float(axis[qi]), float(axis[ri]), float(j[qi, ri]), bool(axis[qi] > q_bound))


def fields(best):
    return (best.strategy.q, best.strategy.r, best.j_value, best.outside_sparse_regime)


def columns(res):
    return (res.q_star, res.r_star, res.j_value, res.outside_sparse_regime)


def cell_fields(res, i, j):
    # Cell [i, j] of the four columns, as the Python scalars fields() gives.
    return tuple(col[i, j].item() for col in columns(res))


def same_cells(res, a, b):
    # Cells a and b (index expressions) are equal in all four columns.
    return all(np.array_equal(col[a], col[b]) for col in columns(res))


@pytest.mark.parametrize("K", [1, 2, 1001])
@pytest.mark.parametrize("points", [2, 3, 401])
@pytest.mark.parametrize("kind", ["zeros", "inf_ccov"])
def test_sweep_and_grid_maximize_match_full_matrix_tie_rule(K, points, kind):
    # Tie-heavy cases.  All-zero draws make every q > 0 row pay the full
    # covertness weight and every r > 0 column the full reliability weight,
    # so weight 0 or 1 ties whole rows and columns, and weight 1 - 1e-13
    # leaves (1, 1) ahead of (0, 0) by less than TIE_TOLERANCE; +inf c_cov
    # draws keep F<_ccov below 1 on the whole axis.
    rng = np.random.default_rng(K + points)
    if kind == "zeros":
        s = synthetic_set(np.zeros(K), np.zeros(K))
    else:
        ccov = rng.uniform(0.0, 1500.0, K)
        ccov[-max(1, K // 3):] = np.inf
        s = synthetic_set(ccov, rng.uniform(0.0, 1.0, K))
    p = ProtocolParams(n=10**4, delta=0.05)  # sqrt(n)/(2*delta) = 1000
    g = GridSpec(points)
    weights = [0.0, 1.0 - 1e-13, 1.0, 1e6]
    res = heatmap_sweep(s, p, g, weights, weights)
    for i, lc in enumerate(weights):
        for j, lr in enumerate(weights):
            w = RiskWeights(lc, lr)
            expected = full_matrix_grid_maximum(s, w, p, g)
            assert cell_fields(res, i, j) == expected, (lc, lr)
            assert fields(grid_maximize(s, w, p, g)) == expected, (lc, lr)


def assert_sweep_matches_full_matrix(s, p, g, lc_values, lr_values):
    # Column for column, cell by cell and exact, the j_value included: the
    # row bound may only skip rows that cannot hold the reported cell.
    res = heatmap_sweep(s, p, g, lc_values, lr_values)
    assert [col.shape for col in columns(res)] == [(len(lc_values), len(lr_values))] * 4
    for i, lc in enumerate(lc_values):
        for j, lr in enumerate(lr_values):
            w = RiskWeights(lc, lr)
            expected = full_matrix_grid_maximum(s, w, p, g)
            assert cell_fields(res, i, j) == expected, (lc, lr)
            assert fields(grid_maximize(s, w, p, g)) == expected, (lc, lr)
    return res


def lattice_set(rng, K):
    # Draws on coarse lattices: on a grid whose step divides them, many
    # cells share one J in exact arithmetic and differ only by rounding.
    return synthetic_set(rng.integers(0, 9, K) * 125.0, rng.integers(0, 9, K) / 8.0)


def degenerate_set(kind, rng, K, points):
    # Sets that make the hull of (F<_rach(r), r) degenerate, with lattice
    # c_cov: r_ach on the grid's points (runs of collinear plateau ends),
    # all r_ach at 1 (F<_rach = 0 on the whole axis: a one-vertex hull), a
    # single draw, and two draws whose plateau ends tie exactly at
    # lambda_rel = 1 on the 11-point grid, where the hull's vertex rounds
    # 2**-54 below the other one.
    ccov = rng.integers(0, 9, K) * 125.0
    if kind == "on_grid":
        rach = rng.choice(np.linspace(0.0, 1.0, points), K)
    elif kind == "all_one":
        rach = np.ones(K)
    elif kind == "single":
        ccov, rach = ccov[:1], rng.uniform(0.0, 1.0, 1)
    else:
        ccov, rach = ccov[:2], np.array([0.25, 0.75])
    return synthetic_set(ccov, rach)


DEGENERATE = ["on_grid", "all_one", "single", "tie"]


@pytest.mark.parametrize("points", [2, 3, 11, 41])
@pytest.mark.parametrize("kind", ["zeros", "uniform", "inf_ccov", "lattice", *DEGENERATE])
def test_pruned_kernel_extreme_weights(points, kind):
    # Subnormal and huge weights; 1e308 with 1e308 overflows the rounding
    # margin (and J itself) to infinity, which keeps every row.
    rng = np.random.default_rng(points)
    K = 17
    if kind == "zeros":
        s = synthetic_set(np.zeros(K), np.zeros(K))
    elif kind == "lattice":
        s = lattice_set(rng, K)
    elif kind in DEGENERATE:
        s = degenerate_set(kind, rng, K, points)
    else:
        ccov = rng.uniform(0.0, 1500.0, K)
        if kind == "inf_ccov":
            ccov[-5:] = np.inf
        s = synthetic_set(ccov, rng.uniform(0.0, 1.0, K))
    p = ProtocolParams(n=10**4, delta=0.05)
    weights = [0.0, 5e-324, 1e-300, 1.0, 1e300, 1e308]
    with np.errstate(over="ignore"):
        assert_sweep_matches_full_matrix(s, p, GridSpec(points), weights, weights)


@pytest.mark.parametrize("kind", ["zeros", "inf_ccov", "lattice"])
def test_extreme_weights_overflow_silently(kind):
    # J overflows to -inf in cells that cannot win; neither the sweep nor a
    # single maximization warns about it, and both still match the full matrix.
    rng, K = np.random.default_rng(11), 17
    if kind == "zeros":
        s = synthetic_set(np.zeros(K), np.zeros(K))
    elif kind == "lattice":
        s = lattice_set(rng, K)
    else:
        s = synthetic_set(np.r_[rng.uniform(0.0, 1500.0, K - 5), [np.inf] * 5],
                          rng.uniform(0.0, 1.0, K))
    p, g = ProtocolParams(n=10**4, delta=0.05), GridSpec(11)
    weights = [1.0, 1e154, 1e308, np.finfo(float).max]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = heatmap_sweep(s, p, g, weights, weights)
        singles = [[grid_maximize(s, RiskWeights(lc, lr), p, g) for lr in weights]
                   for lc in weights]
    with np.errstate(over="ignore"):
        for i, (lc, single_row) in enumerate(zip(weights, singles, strict=True)):
            for j, (lr, single) in enumerate(zip(weights, single_row, strict=True)):
                expected = full_matrix_grid_maximum(s, RiskWeights(lc, lr), p, g)
                assert cell_fields(res, i, j) == fields(single) == expected, (lc, lr)


def test_pruned_kernel_duplicate_weights():
    # A repeated lambda_rel reuses its row envelope; repeated pairs must give
    # equal results wherever they sit in the sweep.
    rng = np.random.default_rng(5)
    s = lattice_set(rng, 33)
    p = ProtocolParams(n=10**4, delta=0.05)
    lc_values = [0.5, 2.0, 0.5, 0.5]
    lr_values = [1.0, 0.25, 1.0, 0.25, 1.0]
    res = assert_sweep_matches_full_matrix(s, p, GridSpec(41), lc_values, lr_values)
    assert same_cells(res, 0, 2) and same_cells(res, 0, 3)
    assert same_cells(res, (0, 0), (0, 2)) and same_cells(res, (0, 0), (0, 4))
    assert same_cells(res, (1, 1), (1, 3))


def test_pruned_kernel_rel_axis_sweep(volatile_set, protocol):
    # One row envelope per pair: the sweep's axis is lambda_rel.
    assert_sweep_matches_full_matrix(volatile_set, protocol, GridSpec(401),
                                     [1.0], np.logspace(-6.0, 6.0, 40))


@pytest.mark.parametrize("points", [5, 9, 41])
def test_pruned_kernel_near_ties(points):
    # Lattice draws, a grid that steps on the lattice and weights of few
    # binary digits: rows tie in exact arithmetic and the rounding of J
    # decides between them.
    rng = np.random.default_rng(points)
    p = ProtocolParams(n=10**4, delta=0.05)  # sqrt(n)/(2*delta) = 1000
    weights = [0.0, 0.125, 0.25, 0.375, 1.0 - 1e-13, 1.0, 3.0, 1e6 + 0.5]
    for _ in range(10):
        s = lattice_set(rng, int(rng.integers(1, 40)))
        assert_sweep_matches_full_matrix(s, p, GridSpec(points), weights, weights)


def test_pruned_kernel_rounding_boundary():
    # All-zero draws on the 2-point grid: J(0, 0) = 0 and J(1, 1) = (1 - 0.3)
    # - lambda_rel = 9007 * 2**-53, just under TIE_TOLERANCE, so (0, 0) ties
    # and wins.  Row 1's bound, (1 - lambda_rel) - 0.3, rounds to just over
    # TIE_TOLERANCE: only the rounding margin keeps row 0.
    s = synthetic_set(np.zeros(1), np.zeros(1))
    p = ProtocolParams(n=10**4, delta=0.05)
    lambda_rel = 0.699999999999
    assert (1.0 - 0.3) - lambda_rel == 9007 * 2.0**-53 < TIE_TOLERANCE
    assert (1.0 - lambda_rel) - 0.3 - TIE_TOLERANCE > 0.0
    res = assert_sweep_matches_full_matrix(s, p, GridSpec(2), [0.3], [lambda_rel])
    assert res.maximum(0, 0).strategy == Strategy(0.0, 0.0)


def test_pruned_heatmap_matches_full_matrix_on_baseline_set(baseline_set, protocol):
    # The CLI's default heatmap: 25 x 25 weights on the 401-point grid.
    values = np.logspace(-6.0, 6.0, 25)
    assert_sweep_matches_full_matrix(baseline_set, protocol, GridSpec(), values, values)


HALF = 65 // 2  # pairs per chunk on the 65-point grid


@pytest.mark.parametrize("count", [1, HALF - 1, HALF, HALF + 1, 2 * HALF + 1])
@pytest.mark.parametrize("shape", ["cov_axis", "rel_axis", "heatmap"])
def test_batched_kernel_chunk_boundaries(count, shape):
    # Pair counts on each side of one and two whole chunks, swept along
    # either axis or as a heatmap whose rows straddle the chunk boundaries.
    # The 65-point grid steps on the lattice; a chunk holds G // 2 pairs.
    g = GridSpec(2 * HALF + 1)
    rng = np.random.default_rng(count)
    s = lattice_set(rng, 29)
    p = ProtocolParams(n=10**4, delta=0.05)
    values = list(rng.choice([0.0, 0.125, 0.5, 1.0, 3.0, 40.0], count) * rng.uniform(0.5, 2.0))
    if shape == "cov_axis":
        lc_values, lr_values = values, [0.75]
    elif shape == "rel_axis":
        lc_values, lr_values = [0.75], values
    else:
        lc_values, lr_values = values[:3], values
    assert_sweep_matches_full_matrix(s, p, g, lc_values, lr_values)


def test_batched_kernel_unsorted_duplicate_and_signed_zero_weights():
    # Envelopes are shared by equal lambda_rel (0.0 and -0.0 among them) and
    # looked up for unsorted columns; each pair keeps its own penalties.
    rng = np.random.default_rng(21)
    sets = [lattice_set(rng, 33)] + [degenerate_set(kind, rng, 33, 41) for kind in DEGENERATE]
    p = ProtocolParams(n=10**4, delta=0.05)
    lc_values = [0.5, -0.0, 2.0, 0.0, 0.5, 1e-3, 7.0]
    lr_values = [1.0, 0.0, 0.25, -0.0, 1.0, 3.0, 0.25, -0.0, 0.0, 1e-9]
    for s in sets:
        res = assert_sweep_matches_full_matrix(s, p, GridSpec(41), lc_values, lr_values)
        assert same_cells(res, 0, 4)
        assert same_cells(res, 1, 3)
        assert same_cells(res, (2, 0), (2, 4))
        assert same_cells(res, (2, 1), (2, 3)) and same_cells(res, (2, 1), (2, 8))


@pytest.mark.parametrize("kind", ["zeros", "far"])
def test_batched_kernel_row_groups_split_between_pairs(kind):
    # Pairs that keep all G rows next to pairs that keep one, so a row group
    # (whole pairs, at most G // 2 rows, or one pair) must close between
    # them.  "zeros": with lambda_cov = 0,
    # lambda_rel >= 1 ties every row bound at 0 and lambda_rel < 1 keeps only
    # q = 1.  "far": F<_ccov = 0 on the whole axis and F<_rach = 0 up to
    # r = 0.6, so (1, 0.6) or (1, 1) wins in the last row, while a weight of
    # 1e308 makes the rounding margin keep every row above it.
    if kind == "zeros":
        s = synthetic_set(np.zeros(16), np.zeros(16))
        lc_values = [0.0, 1e-3]
        lr_values = [0.0, 2.0, 0.5, 1.0, 0.0, 0.0, 3.0, 0.9, 1.0, 1.0, 0.25] * 4
    else:
        s = synthetic_set(np.full(16, 2000.0), np.full(16, 0.6))
        lc_values = [0.0, 1e308, 0.5]
        lr_values = [0.0, 1e308, 0.5, 2.0, 1e308, 1e308, 0.0, 0.25] * 3
    p = ProtocolParams(n=10**4, delta=0.05)  # sqrt(n)/(2*delta) = 1000
    with np.errstate(over="ignore"):
        assert_sweep_matches_full_matrix(s, p, GridSpec(401), lc_values, lr_values)


@pytest.mark.parametrize("points", [2, 11, 401])
@pytest.mark.parametrize("kind", ["baseline", "volatile", *DEGENERATE])
def test_hull_envelope_within_slack_of_exact_envelope(kind, points, request):
    # The keep rule's premise: the hull's envelope is the float value of one
    # cell of each row, so it lies at or below the exact float envelope (the
    # G x G pass it replaced), and at most _hull_slack(lambda_rel) under it.
    if kind in ("baseline", "volatile"):
        s = request.getfixturevalue(f"{kind}_set")
    else:
        s = degenerate_set(kind, np.random.default_rng(points), 17, points)
    axis = GridSpec(points).axis()
    qr, f_rel = np.outer(axis, axis), strict_cdf(s.rach, axis)
    weights = [0.0, -0.0, 1e-9, 1.0, 1e6, 1e308]
    with np.errstate(over="ignore"):
        env = _row_envelopes(f_rel, axis, np.array(weights))
    for lr, hull in zip(weights, env, strict=True):
        exact = np.subtract(qr, lr * f_rel).max(axis=1)
        assert np.all(hull <= exact), lr
        assert np.all(exact <= hull + _hull_slack(lr)), lr
    if (kind, points) == ("tie", 11):
        # The slack is needed: the hull's cell rounds below the row maximum.
        assert np.any(env[3] < np.subtract(qr, f_rel).max(axis=1))


def test_hull_bounds_keep_every_row_the_exact_bounds_keep():
    # The keep rule before the hull read exact float envelopes and had no
    # slack.  On the "tie" set the q = 1 row's hull envelope is 2**-54 under
    # its exact one; lambda_cov steps that row's exact bound across the old
    # rule's threshold (row 0's bound, 0, is the best one), and wherever the
    # old rule keeps a row, the hull bounds through _kept_cells keep it too.
    s = synthetic_set(np.zeros(2), [0.25, 0.75])
    p = ProtocolParams(n=10**4, delta=0.05)
    axis = GridSpec(11).axis()
    qr, f_rel = np.outer(axis, axis), strict_cdf(s.rach, axis)
    f_cov = strict_cdf(s.ccov, p.ccov_threshold(axis))  # 0, then 1 for q > 0
    lr = np.array([1.0])
    hull = _row_envelopes(f_rel, axis, lr)[0]
    exact = np.subtract(qr, f_rel).max(axis=1)
    assert exact[-1] - hull[-1] == 2.0**-54
    eight_eps = 8.0 * np.finfo(float).eps
    edge = exact[-1] + TIE_TOLERANCE + 4.0 * eight_eps * ((1.0 + exact[-1]) + 1.0)
    old_keeps_last_row = set()
    for k in range(-4, 5):
        lc = edge + k * 2.0**-55
        ub_exact = exact - lc * f_cov
        margin = eight_eps * ((1.0 + lc) + 1.0)
        kept_exact = np.flatnonzero(ub_exact >= (ub_exact.max() - TIE_TOLERANCE) - 4.0 * margin)
        _, kept_hull, _ = _kept_cells((hull - lc * f_cov)[None, :], np.array([lc]), lr)
        assert set(kept_exact.tolist()) <= set(kept_hull.tolist()), k
        old_keeps_last_row.add(10 in kept_exact)
    assert old_keeps_last_row == {True, False}


@pytest.mark.parametrize("kind", ["random", "all_true", "all_false", "one_cell", "one_row"])
@pytest.mark.parametrize("shape", [(7, 41), (200, 401)])
def test_kept_cells_are_the_nonzero_indices_of_the_keep_mask(kind, shape):
    # Bounds of 0 on the mask's cells and -1 elsewhere keep exactly the mask
    # under zero weights; a pair that keeps nothing has NaN bounds.  The flat
    # scan must give np.nonzero's (pair, row) indices in the same order.
    rng = np.random.default_rng(shape[0])
    mask = np.zeros(shape, dtype=bool)
    if kind == "random":
        mask = rng.random(shape) < 0.3
        mask[rng.random(shape[0]) < 0.2] = False
    elif kind == "all_true":
        mask[:] = True
    elif kind == "one_cell":
        mask[shape[0] // 2, shape[1] - 1] = True
    elif kind == "one_row":
        mask = mask[:1]
        mask[0, 3] = True
    ub = np.where(mask, 0.0, -1.0)
    ub[~mask.any(axis=1)] = np.nan
    zero = np.zeros(mask.shape[0])
    owner, rows, start = _kept_cells(ub, zero, zero)
    expected_owner, expected_rows = np.nonzero(mask)
    assert owner.dtype == rows.dtype == expected_owner.dtype
    assert np.array_equal(owner, expected_owner)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(start, np.searchsorted(expected_owner, np.arange(mask.shape[0] + 1)))


def test_heatmap_memory_on_baseline_set(baseline_set, protocol):
    # The CLI's 25 x 25 heatmap keeps a row or so per pair: the scratch,
    # the sweep's one G x G float array, dominates the peak.
    g = GridSpec()
    values = np.logspace(-6.0, 6.0, 25)
    peak, _ = peak_bytes(lambda: heatmap_sweep(baseline_set, protocol, g, values, values))
    assert peak < 2 * 8 * g.points_per_axis**2


def test_heatmap_memory_when_every_row_is_kept():
    # All-zero draws with lambda_cov = 0 and lambda_rel >= 1 tie every row
    # bound, so each pair evaluates all G rows, each pair in a group of its
    # own whose J fills the scratch: that one G x G float array dominates
    # the peak.
    s = synthetic_set(np.zeros(16), np.zeros(16))
    p = ProtocolParams(n=10**4, delta=0.05)
    g = GridSpec()
    peak, res = peak_bytes(lambda: heatmap_sweep(s, p, g, [0.0], np.linspace(1.0, 10.0, 25)))
    assert peak < 2 * 8 * g.points_per_axis**2
    assert res.q_star.shape == (1, 25)
    assert not res.q_star.any() and not res.r_star.any()


@pytest.mark.parametrize("K", [1, 2, 3, 4, 1001])
@pytest.mark.parametrize("n_inf", [0, 1, 2])
def test_sparse_q_bound_matches_median(K, n_inf):
    # The bound reads the median off the sorted array; np.median on the
    # same array, +inf entries at the top included, is the reference.
    rng = np.random.default_rng(K)
    ccov = rng.uniform(0.0, 2000.0, K)
    ccov[K - min(n_inf, K):] = np.inf
    s = synthetic_set(ccov, rng.uniform(0.0, 1.0, K))
    p = ProtocolParams(n=10**7, delta=0.05)
    expected = float(2.0 * p.delta * np.median(s.ccov) / np.sqrt(p.n))
    assert _sparse_q_bound(s, p) == expected


# ---------------------------------------------------------------------------
# first-order conditions


def test_foc_residual_zero_weights_returns_coordinates():
    st = Strategy(0.125, 0.75)
    res_q, res_r = foc_residual(st, RiskWeights(0.0, 0.0),
                                ProtocolParams(n=100, delta=0.1),
                                lambda x: 123.0, lambda r: 456.0)
    assert (res_q, res_r) == (0.75, 0.125)


def test_foc_residual_exact_stationary_point():
    # Power-of-two construction: sqrt(n)/(2*delta) = 400 exactly, constant
    # densities, weights chosen so both residuals cancel without rounding.
    p = ProtocolParams(n=40000, delta=0.25)
    w = RiskWeights(lambda_cov=2.0**-9, lambda_rel=0.125)
    st = Strategy(q=0.125, r=0.390625)  # r = lambda_cov * 400 * 0.5
    res_q, res_r = foc_residual(st, w, p, lambda x: 0.5, lambda r: 1.0)
    assert res_q == 0.0
    assert res_r == 0.0


def test_foc_residual_matches_smooth_objective_gradient():
    # On the closed-form channel the objective is smooth, so the residuals
    # must agree with central finite differences of J itself.
    c = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))
    p = ProtocolParams(n=10**7, delta=0.05)
    scale = p.ccov_threshold(1.0)

    def j_smooth(q, r, w):
        return (q * r - w.lambda_cov * benchmark_ccov_cdf(c, q * scale)
                - w.lambda_rel * bench_rach_cdf(c, r))

    rng = np.random.default_rng(42)
    for _ in range(10):
        st = Strategy(rng.uniform(3e-4, 3e-3), rng.uniform(0.05, 0.3))
        w = RiskWeights(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        res_q, res_r = foc_residual(
            st, w, p,
            lambda x: benchmark_ccov_density(c, x),
            lambda r: bench_rach_density(c, r),
        )
        hq = st.q * 1e-4
        hr = st.r * 1e-4
        fd_q = (j_smooth(st.q + hq, st.r, w) - j_smooth(st.q - hq, st.r, w)) / (2 * hq)
        fd_r = (j_smooth(st.q, st.r + hr, w) - j_smooth(st.q, st.r - hr, w)) / (2 * hr)
        assert abs(res_q - fd_q) <= 1e-4
        assert abs(res_r - fd_r) <= 1e-4
