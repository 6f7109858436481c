"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without ``-s`` they appear in pytest's captured-output sections.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from conftest import (bench_rach_cdf, bench_rach_density, make_baseline_spec,
                      synthetic_set)
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
    benchmark_ccov_quantile,
    benchmark_qmax,
    benchmark_rmax,
    foc_residual,
    generate_sample_set,
    grid_maximize,
    load_sample_set,
    optimize,
    save_sample_set,
    sensitivities_symmetric,
    sensitivity_formula,
    strict_outage_quantile,
    surface_sweep,
    validate,
)
from covertq import cli
from covertq.risk_constrained import decade_gains


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_closed_form_values(protocol):
    high = BenchmarkChannelSpec(eta0=0.99, nb=ExponentialSpec(10.0))
    low = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))
    q = benchmark_qmax(high, protocol, 0.1)
    r_high = benchmark_rmax(high, 0.1)
    r_low = benchmark_rmax(low, 0.1)
    ok = (abs(q - 4.59e-4) <= 0.01 * 4.59e-4
          and abs(r_high - 0.8692) <= 1e-3
          and abs(r_low - 0.220380) <= 1e-4)
    assert _report(1, ok, f"closed forms q={q:.4e} r={r_high:.4f}/{r_low:.6f}")


def test_criterion_02_monte_carlo_agreement(benchmark_channel, protocol):
    s = generate_sample_set(benchmark_channel, 10**6, seed=1, workers=4)
    rows = validate(s, benchmark_channel, protocol, [1e-3, 1e-2, 1e-1, 0.2, 0.5])
    errors = [r.rel_error_percent for r in rows if r.rel_error_percent is not None]
    tiny = [r for r in rows if r.eps == 1e-3 and r.metric == "r_max"]
    ok = (max(errors) < 5.0
          and len(tiny) == 1
          and tiny[0].theory < 1e-3 and tiny[0].mc < 1e-3)
    assert _report(2, ok, f"MC vs closed forms, worst error {max(errors):.2f}%")


def test_criterion_03_decade_gains():
    windows = {
        (1e-5, 1e-4): (2.04, 0.8),
        (1e-4, 1e-3): (1.74, 0.3),
        (1e-3, 1e-2): (1.89, 0.3),
        (1e-2, 1e-1): (2.52, 0.3),
    }
    p = ProtocolParams(n=10**7, delta=0.05)
    spec = make_baseline_spec()
    passed = 0
    per_seed = []
    for seed in (1, 2, 3):
        s = generate_sample_set(spec, 10**6, seed, workers=4)
        gains = decade_gains(s, p)
        hit = all(gain is not None and abs(gain - windows[(lo, hi)][0])
                  <= windows[(lo, hi)][1]
                  for lo, hi, gain in gains)
        passed += hit
        per_seed.append(f"seed {seed} {'in' if hit else 'out of'} windows")
    ok = passed >= 2
    assert _report(3, ok, f"decade gains, {passed}/3 seeds ({'; '.join(per_seed)})")


def test_criterion_04_baseline_operating_point(baseline_set, protocol):
    report = optimize(baseline_set, protocol, RiskBudgets(0.01, 0.01))
    ok = 50.0 <= report.total_payload <= 500.0
    assert _report(4, ok, f"baseline payload {report.total_payload:.1f} qubits")


def test_criterion_05_square_root_law(baseline_set, volatile_set, benchmark_set):
    worst = 0.0
    for s in (baseline_set, volatile_set, benchmark_set):
        for n in (10**6, 10**7):
            b = RiskBudgets(0.01, 0.01)
            small = optimize(s, ProtocolParams(n=n, delta=0.05), b)
            big = optimize(s, ProtocolParams(n=4 * n, delta=0.05), b)
            assert not small.q_capped and not big.q_capped
            ratio = big.total_payload / small.total_payload
            worst = max(worst, abs(ratio - 2.0) / 2.0)
    ok = worst <= 1e-12
    assert _report(5, ok, f"payload(4n)/payload(n), worst rel dev {worst:.2e}")


def test_criterion_06_monotone_in_budgets():
    rng = np.random.default_rng(2024)
    p = ProtocolParams(n=10**4, delta=0.05)
    grid = np.linspace(0.02, 0.9, 20)
    violations = 0
    for trial in range(50):
        ccov = rng.uniform(0.0, rng.uniform(1.0, 2000.0), 1000)
        rach = rng.uniform(0.0, 1.0, 1000)
        if trial % 3 == 0:
            rach[rach < rng.uniform(0.0, 0.3)] = 0.0  # atom at zero rate
        s = synthetic_set(ccov, rach, seed=trial)
        matrix = surface_sweep(s, p, grid, grid)
        t = np.array([[rep.t_star for rep in row] for row in matrix])
        violations += int(np.sum(np.diff(t, axis=0) < 0))
        violations += int(np.sum(np.diff(t, axis=1) < 0))
    ok = violations == 0
    assert _report(6, ok, f"t_star monotone on 50 random sets, {violations} violations")


def test_criterion_07_quantile_oracle():
    def brute_force(values, eps_frac):
        k = len(values)
        feasible = [x for x in values
                    if Fraction(sum(v < x for v in values), k) <= eps_frac]
        return max(feasible)

    mismatches = 0
    checks = 0
    for length in range(1, 13):
        for combo in combinations_with_replacement((1.0, 2.0, 3.0), length):
            samples = np.array(combo)
            for i in range(20):
                got = strict_outage_quantile(samples, i / 20)
                want = brute_force(combo, Fraction(i, 20))
                checks += 1
                mismatches += got != want
    ok = mismatches == 0
    assert _report(7, ok, f"strict quantile vs enumeration, "
                          f"{mismatches}/{checks} mismatches")


def test_criterion_08_risk_adjusted_regimes(volatile_set, protocol):
    g = GridSpec(401)
    free = grid_maximize(volatile_set, RiskWeights(0.0, 0.0), protocol, g)
    silent = grid_maximize(volatile_set, RiskWeights(1e6, 1.0), protocol, g)

    q_star = [grid_maximize(volatile_set, RiskWeights(lc, 1.0), protocol, g)
              .strategy.q
              for lc in np.logspace(-2.0, 6.0, 40)]
    in_regime = all(q > 0.5 or q == 0.0 for q in q_star)
    transitions = sum(1 for a, b in zip(q_star, q_star[1:])
                      if (a > 0.5) != (b > 0.5))

    tie = grid_maximize(synthetic_set(np.zeros(16), np.full(16, 0.5)),
                        RiskWeights(1.0, 0.0), protocol, GridSpec(5))

    ok = (free.strategy == Strategy(1.0, 1.0)
          and silent.strategy == Strategy(0.0, 0.0)
          and in_regime
          and transitions == 1
          and q_star[0] > 0.5 and q_star[-1] == 0.0
          and tie.strategy == Strategy(0.0, 0.0))
    assert _report(8, ok, f"regime corners + single transition "
                          f"({transitions} transition(s))")


def test_criterion_09_first_order_conditions():
    # Hand-solved stationary point under constant densities: sqrt(n)/(2*delta)
    # = 400, and every constant is a power of two, so both residuals cancel
    # without rounding.
    p = ProtocolParams(n=40000, delta=0.25)
    w = RiskWeights(lambda_cov=2.0**-9, lambda_rel=0.125)
    st = Strategy(q=0.125, r=0.390625)  # r = lambda_cov * 400 * 0.5
    res_q, res_r = foc_residual(st, w, p, lambda x: 0.5, lambda r: 1.0)
    synthetic_ok = res_q == 0.0 and res_r == 0.0

    c = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))
    p = ProtocolParams(n=10**7, delta=0.05)
    scale = p.ccov_threshold(1.0)

    def j_smooth(q, r, w):
        return (q * r - w.lambda_cov * benchmark_ccov_cdf(c, q * scale)
                - w.lambda_rel * bench_rach_cdf(c, r))

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        st = Strategy(rng.uniform(3e-4, 3e-3), rng.uniform(0.05, 0.3))
        w = RiskWeights(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        res_q, res_r = foc_residual(st, w, p,
                                    lambda x: benchmark_ccov_density(c, x),
                                    lambda r: bench_rach_density(c, r))
        hq, hr = st.q * 1e-4, st.r * 1e-4
        fd_q = (j_smooth(st.q + hq, st.r, w) - j_smooth(st.q - hq, st.r, w)) / (2 * hq)
        fd_r = (j_smooth(st.q, st.r + hr, w) - j_smooth(st.q, st.r - hr, w)) / (2 * hr)
        worst = max(worst, abs(res_q - fd_q), abs(res_r - fd_r))
    ok = synthetic_ok and worst <= 1e-4
    assert _report(9, ok, f"stationarity residuals, synthetic exact, "
                          f"gradient check worst {worst:.2e}")


def test_criterion_10_sensitivity_dominance(baseline_set, benchmark_set,
                                            benchmark_channel, protocol):
    points = sensitivities_symmetric(baseline_set, protocol,
                                     np.logspace(-4.0, -1.0, 20))
    dominance = all(pt.s_cov >= 100.0 * pt.s_rel for pt in points)
    min_ratio = min(pt.s_cov / pt.s_rel for pt in points if pt.s_rel > 0)

    worst = 0.0
    for pt in sensitivities_symmetric(benchmark_set, protocol,
                                      [0.05, 0.1, 0.2, 0.35, 0.5]):
        q_max = benchmark_qmax(benchmark_channel, protocol, pt.eps)
        r_max = benchmark_rmax(benchmark_channel, pt.eps)
        f_cov = benchmark_ccov_density(
            benchmark_channel,
            benchmark_ccov_quantile(benchmark_channel, pt.eps))
        s_cov, s_rel = sensitivity_formula(q_max, r_max, protocol, pt.eps,
                                           f_cov, bench_rach_density(benchmark_channel, r_max),
                                           capped=False)
        worst = max(worst, abs(pt.s_cov - s_cov) / s_cov,
                    abs(pt.s_rel - s_rel) / s_rel)
    ok = dominance and worst <= 0.10
    assert _report(10, ok, f"min s_cov/s_rel {min_ratio:.2f} (need >= 100), "
                           f"analytic agreement worst {worst:.1%}")


def test_criterion_11_determinism(tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        rc = cli.main(["optimize", "--k", "2000", "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
    csv_identical = outs[0].read_bytes() == outs[1].read_bytes()

    spec = make_baseline_spec()
    sets = [generate_sample_set(spec, 40001, 9, workers=w) for w in (1, 4)]
    worker_independent = (
        sets[0].ccov.tobytes() == sets[1].ccov.tobytes()
        and sets[0].rach.tobytes() == sets[1].rach.tobytes()
    )

    path = tmp_path / "cache.cqcs"
    save_sample_set(sets[0], path)
    loaded = load_sample_set(path)
    round_trip = (
        loaded.ccov.tobytes() == sets[0].ccov.tobytes()
        and loaded.rach.tobytes() == sets[0].rach.tobytes()
        and loaded.seed == sets[0].seed
        and loaded.channel_digest == sets[0].channel_digest
    )
    ok = csv_identical and worker_independent and round_trip
    assert _report(11, ok, "byte-identical reruns, worker-independent, "
                           "bit-exact cache round trip")
