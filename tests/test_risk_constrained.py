"""Rectangle optimizer: cap rule, sweeps, scaling, and decade gains."""

import numpy as np
import pytest

from covertq import (
    OptimumReport,
    ProtocolParams,
    RiskBudgets,
    benchmark_qmax,
    benchmark_rmax,
    decade_gains,
    frontier_sweep,
    n_scaling_sweep,
    optimize,
    strict_cdf,
    surface_sweep,
)
from covertq.quantiles import order_index
from covertq.risk_constrained import DECADE_BUDGETS, InvariantError

from conftest import synthetic_set


# ---------------------------------------------------------------------------
# single optimum


def test_optimize_matches_benchmark_closed_forms(benchmark_set, benchmark_channel, protocol):
    report = optimize(benchmark_set, protocol, RiskBudgets(0.1, 0.1))
    q_th = benchmark_qmax(benchmark_channel, protocol, 0.1)
    r_th = benchmark_rmax(benchmark_channel, 0.1)
    assert abs(report.q_max - q_th) / q_th < 0.02
    assert abs(report.r_max - r_th) / r_th < 0.05
    assert report.t_star == report.q_max * report.r_max
    assert report.total_payload == protocol.n * report.t_star
    assert not report.q_capped


def test_optimize_collapsed_rectangle():
    # 30% of rate samples at zero: any eps_rel below 0.3 yields r_max = 0.
    s = synthetic_set(np.linspace(1.0, 2.0, 10), [0.0] * 3 + [0.5] * 7)
    report = optimize(s, ProtocolParams(n=10**7, delta=0.05), RiskBudgets(0.2, 0.2))
    assert report.r_max == 0.0
    assert report.t_star == 0.0
    assert report.total_payload == 0.0


def test_optimize_cap_rule():
    s = synthetic_set(np.full(10, 1e6), np.full(10, 0.5))
    report = optimize(s, ProtocolParams(n=1, delta=0.05), RiskBudgets(0.5, 0.5))
    assert report.q_max == 1.0
    assert report.q_capped
    assert report.t_star == 0.5


def test_optimize_below_resolution_flag():
    s = synthetic_set(np.linspace(1, 2, 100), np.linspace(0.1, 0.2, 100))
    p = ProtocolParams(n=10**7, delta=0.05)
    assert optimize(s, p, RiskBudgets(1e-3, 0.5)).below_resolution
    assert not optimize(s, p, RiskBudgets(0.5, 0.5)).below_resolution


def test_below_resolution_agrees_with_the_quantile():
    # 1/49 * 49 evaluates to 0.9999999999999999 in binary64.  The quantile
    # snaps it to one order statistic and takes x_(2), so the flag must not
    # call that budget below resolution; half of 1/49 is.
    s = synthetic_set(np.linspace(1, 2, 49), np.linspace(0.1, 0.2, 49))
    p = ProtocolParams(n=10**7, delta=0.05)
    one, half = 1 / 49, 0.5 / 49
    report = optimize(s, p, RiskBudgets(one, one))
    assert report.r_max == s.rach[1]
    assert not report.below_resolution
    assert optimize(s, p, RiskBudgets(half, half)).below_resolution
    grid = [half, one, 0.3]
    flags = [[rep.below_resolution for rep in row]
             for row in surface_sweep(s, p, grid, grid)]
    assert flags == [[order_index(min(ec, er), 49) == 0 for er in grid] for ec in grid]
    assert flags == [[True, True, True], [True, False, False], [True, False, False]]


def test_optimize_corner_is_feasible_and_optimal():
    # The reported corner dominates every feasible grid strategy.
    rng = np.random.default_rng(6)
    p = ProtocolParams(n=10**4, delta=0.05)
    tau = np.sqrt(p.n) / (2.0 * p.delta)
    grid = np.linspace(0.0, 1.0, 200)
    for _ in range(10):
        s = synthetic_set(rng.lognormal(1.5, 1.0, 64), rng.uniform(0.0, 1.0, 64))
        b = RiskBudgets(rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.5))
        report = optimize(s, p, b)
        # One-ulp backoff: q_max * tau reproduces the c_cov quantile only up
        # to rounding of the 2*delta/sqrt(n) round trip.
        q_thresh = np.nextafter(report.q_max * tau, 0.0)
        assert strict_cdf(s.ccov, q_thresh) <= b.eps_cov
        assert strict_cdf(s.rach, report.r_max) <= b.eps_rel
        feas_q = grid[strict_cdf(s.ccov, grid * tau) <= b.eps_cov]
        feas_r = grid[strict_cdf(s.rach, grid) <= b.eps_rel]
        best_grid = feas_q.max() * feas_r.max()
        assert report.t_star >= best_grid - 1e-12


# ---------------------------------------------------------------------------
# sweeps


def test_frontier_monotone_and_payload(baseline_set, protocol):
    grid = np.logspace(-5, -1, 30)
    rows = frontier_sweep(baseline_set, protocol, grid)
    t = np.array([rep.t_star for _, rep in rows])
    assert np.all(np.diff(t) >= 0.0)
    mid = optimize(baseline_set, protocol, RiskBudgets(0.01, 0.01))
    assert 50.0 <= mid.total_payload <= 500.0


def test_frontier_single_point_matches_optimize(baseline_set, protocol):
    rows = frontier_sweep(baseline_set, protocol, [0.03])
    assert len(rows) == 1
    assert rows[0][1] == optimize(baseline_set, protocol, RiskBudgets(0.03, 0.03))


def test_surface_monotone_rows_and_columns(baseline_set, protocol):
    grid = np.logspace(-5, -1, 20)
    matrix = surface_sweep(baseline_set, protocol, grid, grid)
    t = np.array([[rep.t_star for rep in row] for row in matrix])
    assert np.all(np.diff(t, axis=0) >= 0.0)
    assert np.all(np.diff(t, axis=1) >= 0.0)


def test_surface_single_cell_matches_optimize(baseline_set, protocol):
    matrix = surface_sweep(baseline_set, protocol, [0.02], [0.07])
    assert matrix[0][0] == optimize(baseline_set, protocol, RiskBudgets(0.02, 0.07))


def test_surface_every_cell_matches_optimize():
    # The surface solves each budget axis once; every cell must still equal
    # optimize at its own budgets, capped rows and sub-1/K budgets included.
    rng = np.random.default_rng(3)
    s = synthetic_set(rng.uniform(0.0, 3000.0, 50),
                      np.r_[np.zeros(10), rng.uniform(0.0, 1.0, 40)])
    p = ProtocolParams(n=10**4, delta=0.05)  # q = c_cov / 1000, capped above 1000
    eps_cov, eps_rel = [0.001, 0.05, 0.3, 0.9], [0.9, 0.001, 0.1, 0.5, 0.1]
    matrix = surface_sweep(s, p, eps_cov, eps_rel)
    assert matrix == [[optimize(s, p, RiskBudgets(ec, er)) for er in eps_rel]
                      for ec in eps_cov]
    cells = [rep for row in matrix for rep in row]
    assert {rep.q_capped for rep in cells} == {True, False}
    assert {rep.below_resolution for rep in cells} == {True, False}
    assert {rep.r_max == 0.0 for rep in cells} == {True, False}
    with pytest.raises(ValueError, match="eps_rel must lie in"):
        surface_sweep(s, p, eps_cov, [0.1, 1.0])
    assert surface_sweep(s, p, eps_cov, []) == [[], [], [], []]
    assert surface_sweep(s, p, [], eps_rel) == []


def test_surface_collapsed_rate_column():
    s = synthetic_set(np.linspace(1.0, 2.0, 100), [0.0] * 50 + [0.4] * 50)
    p = ProtocolParams(n=10**7, delta=0.05)
    matrix = surface_sweep(s, p, [0.1, 0.3], [0.01, 0.6])
    assert all(row[0].t_star == 0.0 for row in matrix)
    assert all(row[1].t_star > 0.0 for row in matrix)


# ---------------------------------------------------------------------------
# frame-length scaling


def test_scaling_quadrupling_doubles_payload(baseline_set):
    rows = n_scaling_sweep(baseline_set, 0.05, 0.01, [10**6, 4 * 10**6, 16 * 10**6])
    payload = [v for _, v in rows]
    assert payload[1] / payload[0] == 2.0
    assert payload[2] / payload[1] == 2.0


def test_scaling_single_n(baseline_set):
    rows = n_scaling_sweep(baseline_set, 0.05, 0.01, [10**7])
    assert len(rows) == 1
    assert rows[0] == (10**7, optimize(
        baseline_set, ProtocolParams(n=10**7, delta=0.05), RiskBudgets(0.01, 0.01)
    ).total_payload)


def test_scaling_cap_breaks_square_root_law():
    s = synthetic_set(np.full(10, 1e5), np.full(10, 0.5))
    rows = n_scaling_sweep(s, 0.05, 0.5, [1, 4])
    # Both n are deep in the capped regime: q_max = 1 and the payload is
    # linear in n, not proportional to sqrt(n).
    assert rows[1][1] / rows[0][1] == 4.0
    report = optimize(s, ProtocolParams(n=1, delta=0.05), RiskBudgets(0.5, 0.5))
    assert report.q_capped


# ---------------------------------------------------------------------------
# decade gains


def test_decade_gains_baseline_windows(baseline_set, protocol):
    gains = [g for (_, _, g) in decade_gains(baseline_set, protocol)]
    targets = [(2.04, 0.8), (1.74, 0.3), (1.89, 0.3), (2.52, 0.3)]
    for gain, (center, width) in zip(gains, targets):
        assert gain is not None
        assert abs(gain - center) <= width


def test_decade_gains_constant_throughput_is_unity():
    s = synthetic_set(np.full(10, 2.0), np.full(10, 0.5))
    for _, _, gain in decade_gains(s, ProtocolParams(n=10**7, delta=0.05)):
        assert gain == 1.0


def test_decade_gains_infeasible_marker():
    # 0.1% of rate mass at zero blanks out the eps = 1e-5 and 1e-4 budgets.
    rach = np.concatenate([np.zeros(1), np.full(999, 0.5)])
    s = synthetic_set(np.linspace(1.0, 2.0, 1000), rach)
    gains = decade_gains(s, ProtocolParams(n=10**7, delta=0.05))
    assert gains[0][2] is None
    assert gains[1][2] is None
    assert gains[2][2] is not None


def test_decade_gains_windows_are_consecutive_budgets(baseline_set, protocol):
    gains = decade_gains(baseline_set, protocol)
    assert [(lo, hi) for lo, hi, _ in gains] == list(zip(DECADE_BUDGETS, DECADE_BUDGETS[1:]))
    t = [rep.t_star for _, rep in frontier_sweep(baseline_set, protocol, DECADE_BUDGETS)]
    assert [gain for _, _, gain in gains] == [hi / lo for lo, hi in zip(t, t[1:])]


# ---------------------------------------------------------------------------
# containers


def test_protocol_params_validation():
    p = ProtocolParams(n=10.0, delta=0.05)
    assert p.n == 10 and isinstance(p.n, int)
    for n, delta in ((0, 0.05), (10.5, 0.05), (10, 0.0), (10, 0.5), (10, -0.1),
                     (2**64, 0.05), (1e30, 0.05), (np.inf, 0.05), (np.nan, 0.05)):
        with pytest.raises(ValueError):
            ProtocolParams(n=n, delta=delta)


# ---------------------------------------------------------------------------
# covertness map q = 2*delta*c_cov/sqrt(n)


def test_q_ceiling_pinned_value():
    p = ProtocolParams(n=10**7, delta=0.05)
    assert p.q_ceiling(1.3836) == pytest.approx(4.375e-5, abs=1e-8)
    assert type(p.q_ceiling(np.float64(1.3836))) is float


def test_q_ceiling_edges():
    p = ProtocolParams(n=10**7, delta=0.05)
    assert p.q_ceiling(0.0) == 0.0
    assert p.q_ceiling(np.inf) == np.inf


def test_covertness_map_slopes_are_exact():
    # The validation CSV multiplies by the forward slope and foc_residual
    # scales by the inverse one; both must equal the written-out forms.
    rng = np.random.default_rng(3)
    for n in (1, 10**7, 2**53 + 1, 2**63 + 12345, 2**64 - 1):
        p = ProtocolParams(n=n, delta=float(rng.uniform(1e-6, 0.49)))
        assert p.ccov_threshold(1.0) == np.sqrt(p.n) / (2.0 * p.delta)
        for c in rng.lognormal(0.0, 3.0, 50):
            assert p.q_ceiling(1.0) * c == 2.0 * p.delta / np.sqrt(p.n) * c
        axis = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(p.ccov_threshold(axis), axis * np.sqrt(p.n) / (2.0 * p.delta))


def test_optimum_report_is_frozen():
    rep = OptimumReport(q_max=0.1, r_max=0.2, total_payload=200.0, q_capped=False)
    with pytest.raises(AttributeError):
        rep.q_max = 0.5
    assert rep.t_star == rep.q_max * rep.r_max
    with pytest.raises(InvariantError):
        OptimumReport(q_max=-0.1, r_max=0.2, total_payload=200.0, q_capped=False)
    # Keyword-only fields: after a change to the field list, positional
    # arguments would land silently in the wrong fields.
    with pytest.raises(TypeError):
        OptimumReport(0.1, 0.2, 0.02, 200.0, False)
