"""Closed-form benchmark channel and its Monte Carlo validation harness."""


import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    benchmark_ccov_cdf,
    benchmark_ccov_density,
    benchmark_ccov_quantile,
    benchmark_qmax,
    benchmark_rmax,
    channel_digest,
    generate_sample_set,
    validate,
)
from covertq import cli


@pytest.fixture(scope="module")
def chan():
    return BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))


# ---------------------------------------------------------------------------
# closed forms


def test_qmax_vanishes_with_budget(chan):
    p = ProtocolParams(n=10**7, delta=0.05)
    values = [benchmark_qmax(chan, p, eps) for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
    assert all(np.diff(values) < 0.0)
    assert values[-1] < 1e-9


def test_qmax_cap(chan):
    assert benchmark_qmax(chan, ProtocolParams(n=1, delta=0.4), 0.99) == 1.0


def test_rmax_monotone(chan):
    eps = np.linspace(0.01, 0.99, 50)
    r = np.array([benchmark_rmax(chan, e) for e in eps])
    assert np.all(np.diff(r) >= 0.0)


# ---------------------------------------------------------------------------
# c_cov law


def test_ccov_cdf_edges_and_pinned_value(chan):
    assert benchmark_ccov_cdf(chan, 0.0) == 0.0
    assert benchmark_ccov_cdf(chan, 1.3836) == pytest.approx(0.1, abs=1e-3)
    # Past x ~ 1e155 the root overflows to +inf: the limits, with no warning.
    huge = [1e200, np.inf]
    for x in huge:
        assert benchmark_ccov_cdf(chan, x) == 1.0
        assert benchmark_ccov_density(chan, x) == 0.0
    np.testing.assert_array_equal(benchmark_ccov_cdf(chan, np.array(huge)), [1.0, 1.0])
    np.testing.assert_array_equal(benchmark_ccov_density(chan, np.array(huge)), [0.0, 0.0])
    with pytest.raises(ValueError):
        benchmark_ccov_cdf(chan, -0.5)
    with pytest.raises(ValueError):
        benchmark_ccov_density(chan, -0.5)


def test_ccov_law_at_a_huge_rate_is_silent():
    # rate * root overflows past the float range at rate 1e300, x = 1e10;
    # the limits 1 and 0 are the values, and numpy must not warn about them.
    c = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(1e300))
    assert benchmark_ccov_cdf(c, 1e10) == 1.0
    assert benchmark_ccov_density(c, 1e10) == 0.0
    np.testing.assert_array_equal(benchmark_ccov_cdf(c, np.array([0.0, 1e10])), [0.0, 1.0])


def test_ccov_cdf_quantile_inversion(chan):
    for eps in np.arange(0.01, 1.0, 0.02):
        q = benchmark_ccov_quantile(chan, eps)
        assert benchmark_ccov_cdf(chan, q) == pytest.approx(eps, rel=1e-9)


def test_ccov_density_matches_cdf_derivative(chan):
    rng = np.random.default_rng(10)
    for x in rng.uniform(0.1, 5.0, 20):
        h = 1e-5 * x
        fd = (benchmark_ccov_cdf(chan, x + h) - benchmark_ccov_cdf(chan, x - h)) / (2 * h)
        assert benchmark_ccov_density(chan, x) == pytest.approx(fd, rel=1e-4)


def test_ccov_density_integrates_to_one(chan):
    x = np.linspace(0.0, 60.0, 400_001)
    mass = np.trapezoid(benchmark_ccov_density(chan, x), x)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_quantile_validation(chan):
    for eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            benchmark_ccov_quantile(chan, eps)
        with pytest.raises(ValueError):
            benchmark_rmax(chan, eps)


def test_channel_validation():
    with pytest.raises(ValueError):
        BenchmarkChannelSpec(eta0=1.0, nb=ExponentialSpec(10.0))
    with pytest.raises(ValueError):
        BenchmarkChannelSpec(eta0=0.0, nb=ExponentialSpec(10.0))
    with pytest.raises(ValueError):
        BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(0.0))


# ---------------------------------------------------------------------------
# Monte Carlo validation harness


def test_validate_row_structure_and_errors(chan):
    p = ProtocolParams(n=10**7, delta=0.05)
    s = generate_sample_set(chan, 10**6, seed=1, workers=4)
    rows = validate(s, chan, p, [1e-3, 0.1, 0.5])
    assert [(r.eps, r.metric) for r in rows] == [
        (1e-3, "q_max"), (1e-3, "r_max"),
        (0.1, "q_max"), (0.1, "r_max"),
        (0.5, "q_max"), (0.5, "r_max"),
    ]
    by_key = {(r.eps, r.metric): r for r in rows}
    # eps = 1e-3: both methods agree the rate budget is infeasible; the
    # relative error column is not applicable there.
    tiny = by_key[(1e-3, "r_max")]
    assert tiny.theory < 1e-3 and tiny.mc < 1e-3
    assert tiny.rel_error_percent is None
    assert by_key[(0.1, "q_max")].rel_error_percent < 2.0
    assert by_key[(0.1, "r_max")].rel_error_percent < 5.0
    assert by_key[(0.5, "q_max")].rel_error_percent < 1.0
    assert by_key[(0.5, "r_max")].rel_error_percent < 1.0


def test_validate_rejects_a_set_from_another_channel(chan):
    p = ProtocolParams(n=10**7, delta=0.05)
    other = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(5.0))
    s = generate_sample_set(other, 1000, seed=1)
    with pytest.raises(ValueError, match="not drawn from the benchmark channel"):
        validate(s, chan, p, [0.1])
    assert len(validate(s, other, p, [0.1])) == 2


def test_validate_errors_shrink_with_sample_count(chan):
    p = ProtocolParams(n=10**7, delta=0.05)
    err = {}
    for k in (10**3, 10**6):
        errs = []
        for seed in range(1, 6):
            rows = validate(generate_sample_set(chan, k, seed), chan, p, [0.1])
            errs.append(abs(rows[0].rel_error_percent))
        err[k] = np.mean(errs)
    assert err[10**6] < err[10**3] / 3.0


def test_write_validation_csv(tmp_path):
    # The CLI owns the layout; the rows are validate()'s, in its order.
    path = tmp_path / "v.csv"
    assert cli.main(["benchmark-validate", "--eta0", "0.9", "--rate", "10",
                     "--eps-list", "0.001,0.1", "--k", "1000", "--seed", "1",
                     "--out", str(path)]) == 0
    digest = channel_digest(BenchmarkChannelSpec(0.9, ExponentialSpec(10.0))).hex()
    lines = path.read_text().splitlines()
    assert lines[0] == f"# seed=1 K=1000 channel_digest={digest}"
    assert lines[1] == "eps,metric,theory,mc,rel_error_percent"
    assert len(lines) == 2 + 4
    assert lines[3].split(",")[-1] == ""  # r_max ~ 0 at 1e-3: not-applicable error cell
