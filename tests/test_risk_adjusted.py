"""Risk-adjusted objective, grid maximization, weight sweeps, and FOC residuals."""

import numpy as np
import pytest
from scipy.optimize import brentq

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    GridSpec,
    ProtocolParams,
    RiskWeights,
    SampleSet,
    Strategy,
    achievable_rate,
    benchmark_ccov_cdf,
    benchmark_ccov_density,
    foc_residual,
    grid_maximize,
    heatmap_sweep,
    lambda_sweep,
    objective,
)
from covertq.risk_adjusted import (
    TIE_TOLERANCE,
    GridMaximum,
    write_heatmap_csv,
    write_lambda_sweep_csv,
)

DIGEST = b"\x00" * 32


def synthetic_set(ccov, rach, seed=0):
    ccov = np.sort(np.asarray(ccov, dtype=float))
    rach = np.sort(np.asarray(rach, dtype=float))
    return SampleSet(ccov=ccov, rach=rach, K=len(ccov), seed=seed,
                     channel_digest=DIGEST)


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
    for q, r in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)]:
        with pytest.raises(ValueError):
            Strategy(q, r)


# ---------------------------------------------------------------------------
# weight sweeps


def test_lambda_sweep_single_value_matches_grid_maximize(baseline_set, protocol):
    g = GridSpec(21)
    rows = lambda_sweep(baseline_set, protocol, g, "cov", [0.3], 0.7)
    assert rows == [(0.3, grid_maximize(baseline_set, RiskWeights(0.3, 0.7),
                                        protocol, g))]
    rows = lambda_sweep(baseline_set, protocol, g, "rel", [0.3], 0.7)
    assert rows == [(0.3, grid_maximize(baseline_set, RiskWeights(0.7, 0.3),
                                        protocol, g))]


def test_lambda_sweep_axis_validation(baseline_set, protocol):
    with pytest.raises(ValueError):
        lambda_sweep(baseline_set, protocol, GridSpec(5), "both", [1.0], 0.0)


def test_lambda_sweep_rel_axis_under_heavy_cov_weight(volatile_set, protocol):
    # With the covertness weight pinned high, transmission is already shut
    # off; sweeping the reliability weight upward can then only push the
    # rate toward zero as well.
    rows = lambda_sweep(volatile_set, protocol, GridSpec(101), "rel",
                        np.logspace(-2.0, 1.0, 8), 10.0)
    q_star = [best.strategy.q for _, best in rows]
    r_star = [best.strategy.r for _, best in rows]
    assert all(q < 0.01 for q in q_star)
    assert all(np.diff(r_star) <= 0.0)
    assert r_star[-1] == 0.0


def test_heatmap_corners_match_grid_maximize(baseline_set, protocol):
    g = GridSpec(21)
    lc_values = [0.0, 1e6]
    lr_values = [0.0, 1e6]
    q_star, r_star = heatmap_sweep(baseline_set, protocol, g, lc_values, lr_values)
    assert q_star.shape == (2, 2) and r_star.shape == (2, 2)
    for i, lc in enumerate(lc_values):
        for j, lr in enumerate(lr_values):
            best = grid_maximize(baseline_set, RiskWeights(lc, lr), protocol, g)
            assert q_star[i, j] == best.strategy.q
            assert r_star[i, j] == best.strategy.r
    assert q_star[0, 0] == 1.0 and r_star[0, 0] == 1.0


def test_heatmap_shows_silent_and_aggressive_regimes(volatile_set, protocol):
    values = np.logspace(-6.0, 6.0, 25)
    q_star, _ = heatmap_sweep(volatile_set, protocol, GridSpec(101),
                              values, values)
    assert np.any(q_star == 0.0)
    assert np.any(q_star > 0.5)


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
    scale = np.sqrt(p.n) / (2.0 * p.delta)

    def x_inv(r):
        return brentq(lambda x: achievable_rate(c.eta0, x) - r, 1e-12, 10.0)

    def rach_cdf(r):
        # P[R_ach < r] = P[nb > x_inv(r)] for a strictly decreasing rate.
        return np.exp(-c.nb.rate * x_inv(r))

    def rach_density(r):
        x = x_inv(r)
        h = 1e-7
        slope = (achievable_rate(c.eta0, x + h) - achievable_rate(c.eta0, x - h)) / (2 * h)
        return c.nb.rate * np.exp(-c.nb.rate * x) / abs(slope)

    def j_smooth(q, r, w):
        return (q * r - w.lambda_cov * benchmark_ccov_cdf(c, q * scale)
                - w.lambda_rel * rach_cdf(r))

    rng = np.random.default_rng(42)
    for _ in range(10):
        st = Strategy(rng.uniform(3e-4, 3e-3), rng.uniform(0.05, 0.3))
        w = RiskWeights(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        res_q, res_r = foc_residual(
            st, w, p,
            lambda x: benchmark_ccov_density(c, x),
            rach_density,
        )
        hq = st.q * 1e-4
        hr = st.r * 1e-4
        fd_q = (j_smooth(st.q + hq, st.r, w) - j_smooth(st.q - hq, st.r, w)) / (2 * hq)
        fd_r = (j_smooth(st.q, st.r + hr, w) - j_smooth(st.q, st.r - hr, w)) / (2 * hr)
        assert abs(res_q - fd_q) <= 1e-4
        assert abs(res_r - fd_r) <= 1e-4


# ---------------------------------------------------------------------------
# CSV writers


def test_write_lambda_sweep_csv(tmp_path):
    rows = [
        (0.5, GridMaximum(Strategy(0.25, 0.5), 0.1, False)),
        (2.0, GridMaximum(Strategy(0.0, 0.0), 0.0, True)),
    ]
    path = tmp_path / "sweep.csv"
    write_lambda_sweep_csv(rows, "cov", 1.5, path, seed=3, K=100)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=3 K=100"
    assert lines[1] == ("lambda_cov,lambda_rel,q_star,r_star,j_value,"
                        "outside_sparse_regime")
    assert lines[2] == "0.5,1.5,0.25,0.5,0.1,false"
    assert lines[3] == "2.0,1.5,0.0,0.0,0.0,true"
    # On the "rel" axis the varied value lands in the lambda_rel column;
    # without provenance arguments there is no comment line.
    write_lambda_sweep_csv(rows, "rel", 1.5, path)
    assert path.read_text().splitlines()[:2] == [lines[1], "1.5,0.5,0.25,0.5,0.1,false"]


def test_write_heatmap_csv(tmp_path):
    q = np.array([[0.1, 0.2], [0.3, 0.4]])
    r = np.array([[0.5, 0.6], [0.7, 0.8]])
    path = tmp_path / "heat.csv"
    write_heatmap_csv(q, r, [1.0, 2.0], [3.0, 4.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_cov,lambda_rel,q_star,r_star"
    assert lines[1] == "1.0,3.0,0.1,0.5"
    assert lines[4] == "2.0,4.0,0.4,0.8"
