"""Budget sensitivities: finite differences, analytic formula, and flags."""

import numpy as np
import pytest

from covertq import (
    ProtocolParams,
    RiskBudgets,
    SensitivityPoint,
    SingularSensitivityError,
    benchmark_ccov_density,
    benchmark_ccov_quantile,
    benchmark_qmax,
    benchmark_rmax,
    optimize,
    sensitivities_symmetric,
    sensitivity_formula,
)

from conftest import bench_rach_density, synthetic_set


# ---------------------------------------------------------------------------
# finite differences


def test_constant_channel_has_zero_sensitivities():
    s = synthetic_set(np.full(1000, 7.0), np.full(1000, 0.4))
    p = ProtocolParams(n=10**7, delta=0.05)
    for pt in sensitivities_symmetric(s, p, [0.01, 0.1, 0.5]):
        assert pt.s_cov == 0.0
        assert pt.s_rel == 0.0
        assert pt.flags == ()


def test_eps_grid_validation(benchmark_set, protocol):
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sensitivities_symmetric(benchmark_set, protocol, [bad])


def test_one_sided_fallback_at_high_eps():
    # Each point must equal, bit for bit, the stencil of four asymmetric
    # optima it stands for: two-sided points, the one-sided fallback, a cap
    # transition and a rate atom.
    rng = np.random.default_rng(3)
    smooth = synthetic_set(rng.uniform(1.0, 20.0, 2000), rng.uniform(0.1, 0.9, 2000))
    capped = synthetic_set(np.linspace(500.0, 1500.0, 100), np.linspace(0.1, 0.9, 100))
    atom = synthetic_set(np.linspace(1.0, 20.0, 100),
                         np.concatenate([np.zeros(30), np.linspace(0.2, 0.8, 70)]))
    wide, short = ProtocolParams(n=10**7, delta=0.05), ProtocolParams(n=10**4, delta=0.05)
    cases = [  # (set, protocol, eps, flags)
        (smooth, wide, 0.01, ()),
        (smooth, wide, 0.3, ()),
        (smooth, wide, 0.95, ()),
        (capped, short, 0.5, ("cap_transition",)),
        (atom, wide, 0.1, ("atom_suspected",)),
    ]
    for s, p, eps, flags in cases:
        (pt,) = sensitivities_symmetric(s, p, [eps])
        # At 0.95, eps + eps/10 would leave (0, 1): the difference must be
        # taken between eps - h and eps itself.
        h = eps / 10.0
        lo, hi = eps - h, (eps + h if eps + h < 1.0 else eps)
        cov_lo, cov_hi, rel_lo, rel_hi = (
            optimize(s, p, RiskBudgets(ec, er))
            for ec, er in ((lo, eps), (hi, eps), (eps, lo), (eps, hi)))
        s_cov = (cov_hi.t_star - cov_lo.t_star) / (hi - lo)
        s_rel = (rel_hi.t_star - rel_lo.t_star) / (hi - lo)
        # rel_lo sits at eps_cov = eps, so it carries the midpoint's cap state.
        stencil_flags = (("atom_suspected",) * (rel_lo.r_max == 0.0)
                         + ("cap_transition",)
                         * (not cov_lo.q_capped == rel_lo.q_capped == cov_hi.q_capped))
        assert pt == SensitivityPoint(eps, s_cov, s_rel, stencil_flags), eps
        assert (pt.s_cov.hex(), pt.s_rel.hex()) == (s_cov.hex(), s_rel.hex()), eps
        assert pt.flags == flags, eps


def test_fd_matches_closed_forms_on_benchmark(benchmark_set, benchmark_channel,
                                              protocol):
    # The empirical estimator against the exact formula, with densities
    # evaluated at the closed-form budget quantiles.
    points = sensitivities_symmetric(benchmark_set, protocol,
                                     [0.05, 0.1, 0.2, 0.5])
    for pt in points:
        q_max = benchmark_qmax(benchmark_channel, protocol, pt.eps)
        r_max = benchmark_rmax(benchmark_channel, pt.eps)
        f_cov = benchmark_ccov_density(
            benchmark_channel, benchmark_ccov_quantile(benchmark_channel, pt.eps))
        f_rel = bench_rach_density(benchmark_channel, r_max)
        s_cov, s_rel = sensitivity_formula(q_max, r_max, protocol, pt.eps,
                                           f_cov, f_rel, capped=False)
        assert pt.s_cov >= 0.0 and pt.s_rel >= 0.0
        assert pt.s_cov == pytest.approx(s_cov, rel=0.10)
        assert pt.s_rel == pytest.approx(s_rel, rel=0.10)
        assert pt.flags == ()


def test_fd_matches_budget_derivative_of_closed_forms(benchmark_set,
                                                      benchmark_channel,
                                                      protocol):
    # t_star = q_max * r_max, so each sensitivity is also the product of the
    # other factor with the budget derivative of its own closed form.
    (pt,) = sensitivities_symmetric(benchmark_set, protocol, [0.1])
    h = 1e-6
    dqmax = (benchmark_qmax(benchmark_channel, protocol, 0.1 + h)
             - benchmark_qmax(benchmark_channel, protocol, 0.1 - h)) / (2 * h)
    drmax = (benchmark_rmax(benchmark_channel, 0.1 + h)
             - benchmark_rmax(benchmark_channel, 0.1 - h)) / (2 * h)
    r_max = benchmark_rmax(benchmark_channel, 0.1)
    q_max = benchmark_qmax(benchmark_channel, protocol, 0.1)
    assert pt.s_cov == pytest.approx(r_max * dqmax, rel=0.10)
    assert pt.s_rel == pytest.approx(q_max * drmax, rel=0.10)


# ---------------------------------------------------------------------------
# analytic formula


def test_formula_identity_on_benchmark(benchmark_channel, protocol):
    # Chain rule check, no Monte Carlo: the formula's output must equal the
    # numerically differentiated closed forms to high accuracy.
    eps = 0.1
    q_max = benchmark_qmax(benchmark_channel, protocol, eps)
    r_max = benchmark_rmax(benchmark_channel, eps)
    f_cov = benchmark_ccov_density(
        benchmark_channel, benchmark_ccov_quantile(benchmark_channel, eps))
    f_rel = bench_rach_density(benchmark_channel, r_max)
    s_cov, s_rel = sensitivity_formula(q_max, r_max, protocol, eps,
                                       f_cov, f_rel, capped=False)
    h = 1e-6
    dqmax = (benchmark_qmax(benchmark_channel, protocol, eps + h)
             - benchmark_qmax(benchmark_channel, protocol, eps - h)) / (2 * h)
    drmax = (benchmark_rmax(benchmark_channel, eps + h)
             - benchmark_rmax(benchmark_channel, eps - h)) / (2 * h)
    assert s_cov == pytest.approx(r_max * dqmax, rel=1e-3)
    assert s_rel == pytest.approx(q_max * drmax, rel=1e-3)


def test_formula_exact_values_and_cap():
    p = ProtocolParams(n=40000, delta=0.25)  # 2*delta/sqrt(n) = 1/400
    s_cov, s_rel = sensitivity_formula(0.125, 0.5, p, 0.1, 1.0, 1.0, capped=False)
    assert s_cov == 0.5 / 400.0
    assert s_rel == 0.125
    # A capped covertness bound is locally insensitive to its budget.
    s_cov, s_rel = sensitivity_formula(1.0, 0.5, p, 0.1, 1.0, 1.0, capped=True)
    assert s_cov == 0.0
    assert s_rel == 1.0


def test_formula_singular_densities():
    p = ProtocolParams(n=10**7, delta=0.05)
    with pytest.raises(SingularSensitivityError):
        sensitivity_formula(0.1, 0.5, p, 0.1, 0.0, 1.0, capped=False)
    with pytest.raises(SingularSensitivityError):
        sensitivity_formula(0.1, 0.5, p, 0.1, 1.0, 0.0, capped=False)
    # The cap makes the c_cov density irrelevant, but not the rate density.
    sensitivity_formula(1.0, 0.5, p, 0.1, 0.0, 1.0, capped=True)
    with pytest.raises(SingularSensitivityError):
        sensitivity_formula(1.0, 0.5, p, 0.1, 0.0, 0.0, capped=True)
    assert issubclass(SingularSensitivityError, ValueError)


def test_formula_eps_validation():
    p = ProtocolParams(n=10**7, delta=0.05)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            sensitivity_formula(0.1, 0.5, p, bad, 1.0, 1.0, capped=False)


# ---------------------------------------------------------------------------
# flags


def test_atom_flag_marks_rate_point_mass():
    ccov = np.linspace(1.0, 20.0, 100)
    rach = np.concatenate([np.zeros(30), np.linspace(0.2, 0.8, 70)])
    s = synthetic_set(ccov, rach)
    p = ProtocolParams(n=10**7, delta=0.05)
    low, high = sensitivities_symmetric(s, p, [0.1, 0.8])
    assert "atom_suspected" in low.flags
    assert "atom_suspected" not in high.flags


def test_cap_transition_flag():
    # 2*delta/sqrt(n) = 1e-3, so the cap engages once the c_cov quantile
    # crosses 1000 — which happens between eps - h and eps + h at eps = 0.5.
    ccov = np.linspace(500.0, 1500.0, 100)
    rach = np.linspace(0.1, 0.9, 100)
    s = synthetic_set(ccov, rach)
    p = ProtocolParams(n=10**4, delta=0.05)
    (pt,) = sensitivities_symmetric(s, p, [0.5])
    assert "cap_transition" in pt.flags
    assert "atom_suspected" not in pt.flags
    (pt,) = sensitivities_symmetric(s, p, [0.05])
    assert "cap_transition" not in pt.flags
