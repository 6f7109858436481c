"""Strict ECDF and strict-outage quantile, proven against brute force.

The brute-force oracle works in exact rational arithmetic: the feasible set
{x : P[X < x] <= eps} is an interval (-inf, b] whose right end b is always a
sample value, so enumerating sample values and comparing counts as fractions
gives the exact supremum without floating-point quantile artifacts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    RiskBudgets,
    SampleSet,
    benchmark_ccov_quantile,
    benchmark_rmax,
    order_index,
    sensitivities_symmetric,
    sensitivity_formula,
    strict_cdf,
    strict_outage_quantile,
    validate,
)


def brute_force_quantile(values, eps_frac):
    # sup{x : #(samples < x)/K <= eps} over candidate thresholds; candidates
    # above the maximum are infeasible since eps < 1.
    arr = sorted(values)
    k = len(arr)
    best = None
    for cand in arr:
        below = sum(1 for v in arr if v < cand)
        if Fraction(below, k) <= eps_frac:
            best = cand
    assert best is not None  # the minimum is always feasible
    return best


# ---------------------------------------------------------------------------
# strict CDF


def test_strict_cdf_enumeration():
    s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert strict_cdf(s, 3.0) == 0.4
    assert strict_cdf(s, -np.inf) == 0.0
    assert strict_cdf(s, 100.0) == 1.0
    ties = np.array([1.0, 1.0, 1.0, 2.0])
    assert strict_cdf(ties, 1.0) == 0.0  # strict inequality excludes ties
    assert strict_cdf(ties, 1.5) == 0.75


def test_strict_cdf_array_threshold():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(
        strict_cdf(s, np.array([0.5, 2.5, 9.0])), [0.0, 0.5, 1.0]
    )


def test_strict_cdf_infinite_samples():
    s = np.array([1.0, 2.0, np.inf, np.inf])
    assert strict_cdf(s, np.inf) == 0.5
    assert strict_cdf(s, 3.0) == 0.5


def test_strict_cdf_empty_rejected():
    with pytest.raises(ValueError):
        strict_cdf(np.array([]), 1.0)


# ---------------------------------------------------------------------------
# strict-outage quantile


def test_quantile_enumeration_examples():
    s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert strict_outage_quantile(s, 0.2) == 2.0
    assert strict_outage_quantile(s, 0.0) == 1.0
    ties = np.array([1.0, 1.0, 1.0, 2.0])
    assert strict_outage_quantile(ties, 0.25) == 1.0


def test_quantile_decimal_budget_rounding():
    # 0.3 * 10 evaluates near 3 in binary64; the result must behave as the
    # exact decimal budget 3/10 does.
    s = np.arange(1.0, 11.0)
    assert strict_outage_quantile(s, 0.3) == brute_force_quantile(s, Fraction(3, 10))


def test_quantile_exhaustive_oracle():
    eps_grid = [(i, Fraction(i, 20)) for i in range(20)]
    for n in range(1, 13):
        for combo in combinations_with_replacement((1.0, 2.0, 3.0), n):
            arr = np.array(combo)
            for i, frac in eps_grid:
                got = strict_outage_quantile(arr, i / 20.0)
                assert got == brute_force_quantile(combo, frac), (combo, i)
                m = order_index(i / 20.0, n)
                assert m == (i * n) // 20 and arr[min(m, n - 1)] == got


def test_order_index_snaps_whole_order_statistics():
    # j/K * K lands within one ulp of j, on either side; the index is j, and
    # half an order statistic past j still floors to j.
    for k in range(2, 3000):
        for j in (1, 2, 3):
            if j < k:
                assert order_index(j / k, k) == j, (j, k)
                assert order_index((j + 0.5) / k, k) == j, (j, k)
        assert order_index(0.5 / k, k) == 0
    assert order_index(0.3, 10) == 3
    with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\), got 1.0"):
        order_index(1.0, 10)


def test_quantile_monotone_in_eps():
    rng = np.random.default_rng(8)
    for _ in range(30):
        s = np.sort(rng.normal(size=rng.integers(1, 200)))
        q = [strict_outage_quantile(s, e) for e in np.linspace(0.0, 0.99, 34)]
        assert np.all(np.diff(q) >= 0.0)


def test_quantile_cdf_consistency():
    # F<(Q<(eps)) <= eps by construction of the supremum.
    rng = np.random.default_rng(9)
    for _ in range(30):
        s = np.sort(rng.exponential(size=rng.integers(1, 500)))
        for eps in rng.uniform(0.0, 1.0, 10):
            eps = float(np.nextafter(eps, 0.0))  # keep strictly below 1
            assert strict_cdf(s, strict_outage_quantile(s, eps)) <= eps


def test_quantile_upper_budget_returns_maximum():
    s = np.array([3.0, 5.0, 7.0])
    assert strict_outage_quantile(s, 0.999) == 7.0


def test_quantile_with_infinite_tail():
    s = np.array([1.0, 2.0, np.inf, np.inf])
    assert strict_outage_quantile(s, 0.6) == np.inf
    assert strict_outage_quantile(s, 0.4) == 2.0


def test_quantile_validation():
    with pytest.raises(ValueError):
        strict_outage_quantile(np.array([]), 0.1)
    with pytest.raises(ValueError):
        strict_outage_quantile(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        strict_outage_quantile(np.array([1.0]), -0.1)


# ---------------------------------------------------------------------------
# budgets container


_CHANNEL = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))
_PROTOCOL = ProtocolParams(n=10**7, delta=0.05)
_SET = SampleSet(np.array([1.0, 2.0]), np.array([0.1, 0.2]), seed=0,
                 channel_digest=b"\0" * 32)


@pytest.mark.parametrize("call, message", [
    (lambda: RiskBudgets(0.0, 0.5), "eps_cov must lie in (0, 1), got 0.0"),
    (lambda: RiskBudgets(0.5, 1.0), "eps_rel must lie in (0, 1), got 1.0"),
    (lambda: benchmark_ccov_quantile(_CHANNEL, 1.5), "eps_cov must lie in (0, 1), got 1.5"),
    (lambda: benchmark_rmax(_CHANNEL, -0.1), "eps_rel must lie in (0, 1), got -0.1"),
    (lambda: validate(_CHANNEL, _PROTOCOL, [0.5, 2.0], 10, 1),
     "eps must lie in (0, 1), got 2.0"),
    (lambda: sensitivities_symmetric(_SET, _PROTOCOL, [1.0]),
     "eps must lie in (0, 1), got 1.0"),
    (lambda: sensitivity_formula(0.5, 0.5, _PROTOCOL, eps=0.0,
                                 density_ccov_at_quantile=1.0,
                                 density_rach_at_quantile=1.0, capped=False),
     "eps must lie in (0, 1), got 0.0"),
], ids=["budgets-cov", "budgets-rel", "ccov-quantile", "rmax", "validate",
        "sensitivities", "formula"])
def test_eps_range_message_is_shared(call, message):
    # Every caller reports an out-of-range budget in the same words.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_risk_budgets_validation():
    RiskBudgets(0.01, 0.99)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            RiskBudgets(bad, 0.5)
        with pytest.raises(ValueError):
            RiskBudgets(0.5, bad)
