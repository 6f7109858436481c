"""Samplers: support, determinism, stream addressing, and law agreement."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm, truncnorm

from covertq import (
    ExponentialSpec,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    generate_sample_set,
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
)
from covertq import distributions
from covertq.distributions import (
    STREAM_CHUNK,
    exponential_cdf,
    stream_uniforms,
    truncated_gaussian_cdf,
    truncated_lognormal_cdf,
)

LN_SPEC = TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=0.05)
NB_SPEC = TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5)
EXP_SPEC = ExponentialSpec(rate=10.0)


def truncated_lognormal_mean_of_log(spec):
    # E[ln X] for ln X ~ N(mu, sigma^2) restricted to (-inf, 0], by quadrature.
    norm_const = norm.cdf(0.0, loc=spec.mu_ln, scale=spec.sigma_ln)
    val, _ = quad(
        lambda t: t * norm.pdf(t, loc=spec.mu_ln, scale=spec.sigma_ln),
        spec.mu_ln - 12 * spec.sigma_ln,
        0.0,
    )
    return val / norm_const


def truncated_gaussian_mean(spec):
    norm_const = norm.cdf(spec.upper, spec.mu, spec.sigma) - norm.cdf(
        spec.lower, spec.mu, spec.sigma
    )
    val, _ = quad(
        lambda t: t * norm.pdf(t, spec.mu, spec.sigma), spec.lower, spec.upper
    )
    return val / norm_const


# ---------------------------------------------------------------------------
# uniform stream


def test_stream_uniforms_position_addressing():
    full = stream_uniforms(7, 0, 2000)
    np.testing.assert_array_equal(stream_uniforms(7, 500, 800), full[500:1300])
    np.testing.assert_array_equal(stream_uniforms(7, 0, 1), full[:1])


def test_stream_uniforms_chunk_boundary():
    # Spans crossing a chunk edge must agree with per-chunk reads.
    lo = STREAM_CHUNK - 10
    span = stream_uniforms(3, lo, 20)
    left = stream_uniforms(3, lo, 10)
    right = stream_uniforms(3, STREAM_CHUNK, 10)
    np.testing.assert_array_equal(span, np.concatenate([left, right]))


def whole_chunk_uniforms(seed, start, count):
    # The stream format spelled out: generate every chunk the span touches
    # in full from PCG64(SeedSequence([seed, c])) and slice.
    first, last = start // STREAM_CHUNK, (start + count - 1) // STREAM_CHUNK
    chunks = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, c])))
        .random(STREAM_CHUNK)
        for c in range(first, last + 1)
    ]
    offset = start - first * STREAM_CHUNK
    return np.concatenate(chunks)[offset : offset + count]


# Spans at chunk starts, inside a chunk, straddling one and several chunk
# edges, and far out in position space.
SPANS = [(0, 1), (0, STREAM_CHUNK), (7, 1000), (STREAM_CHUNK - 10, 20),
         (STREAM_CHUNK + 3, 3 * STREAM_CHUNK - 5), (2**40 + 12345, 70_001)]


@pytest.mark.parametrize("start, count", SPANS)
def test_stream_uniforms_match_whole_chunks(start, count):
    for seed in (0, 5, 2**64 - 1):
        got = stream_uniforms(seed, start, count)
        assert got.tobytes() == whole_chunk_uniforms(seed, start, count).tobytes()


@pytest.mark.parametrize("start, count", SPANS)
def test_inplace_samplers_match_whole_expressions(start, count):
    # Each sampler overwrites its uniforms in place; the results must equal
    # the whole-expression inverse CDFs bit for bit.
    u = stream_uniforms(9, start, count)
    p_hi = ndtr((0.0 - LN_SPEC.mu_ln) / LN_SPEC.sigma_ln)
    want = np.minimum(np.exp(LN_SPEC.mu_ln + LN_SPEC.sigma_ln * ndtri(p_hi * (1.0 - u))), 1.0)
    got = sample_truncated_lognormal(LN_SPEC, count, 9, start)
    assert got.tobytes() == want.tobytes()

    p_lo = ndtr((NB_SPEC.lower - NB_SPEC.mu) / NB_SPEC.sigma)
    p_hi = ndtr((NB_SPEC.upper - NB_SPEC.mu) / NB_SPEC.sigma)
    x = NB_SPEC.mu + NB_SPEC.sigma * ndtri(p_lo + (p_hi - p_lo) * u)
    want = np.clip(x, NB_SPEC.lower, NB_SPEC.upper)
    got = sample_truncated_gaussian(NB_SPEC, count, 9, start)
    assert got.tobytes() == want.tobytes()

    want = -np.log1p(-u) / EXP_SPEC.rate
    got = sample_exponential(EXP_SPEC, count, 9, start)
    assert got.tobytes() == want.tobytes()


def test_stream_call_pattern_independence():
    one_call = stream_uniforms(11, 0, 1000)
    pieces = [stream_uniforms(11, start, n)
              for start, n in ((0, 1), (1, 99), (100, 400), (500, 500))]
    np.testing.assert_array_equal(one_call, np.concatenate(pieces))


def test_stream_uniforms_range_and_count():
    u = stream_uniforms(5, 123, 10_000)
    assert u.shape == (10_000,)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert stream_uniforms(5, 0, 0).shape == (0,)


def test_stream_distinct_seeds_differ():
    a = stream_uniforms(1, 0, 100)
    b = stream_uniforms(2, 0, 100)
    assert np.any(a != b)


def test_stream_uniforms_validation():
    with pytest.raises(ValueError):
        stream_uniforms(-1, 0, 1)
    with pytest.raises(ValueError):
        stream_uniforms(2**64, 0, 1)
    with pytest.raises(ValueError):
        stream_uniforms(0, -1, 1)
    with pytest.raises(ValueError):
        stream_uniforms(0, 0, -1)
    # SeedSequence alone would accept a seed >= 2**64 silently.
    spec = StochasticChannelSpec(eta=LN_SPEC, nb=NB_SPEC)
    with pytest.raises(ValueError):
        generate_sample_set(spec, 10, seed=2**64)


# ---------------------------------------------------------------------------
# truncated lognormal


def test_lognormal_support_and_determinism():
    for seed in (0, 1, 17, 2**63):
        x = sample_truncated_lognormal(LN_SPEC, 10_000, seed, 0)
        assert np.all((x > 0.0) & (x <= 1.0))
        y = sample_truncated_lognormal(LN_SPEC, 10_000, seed, 0)
        np.testing.assert_array_equal(x, y)


def test_lognormal_support_wide_spec():
    # Wide spec stresses the inverse-CDF tails; support must still hold.
    spec = TruncatedLognormalSpec(mu_ln=-5.0, sigma_ln=1.0)
    x = sample_truncated_lognormal(spec, 50_000, 2, 0)
    assert np.all((x > 0.0) & (x <= 1.0))


def test_lognormal_upper_edge_is_exact(monkeypatch):
    # u = 0 maps to the upper support edge; rounding must not overshoot 1.
    spec = TruncatedLognormalSpec(mu_ln=-5.0, sigma_ln=1.0)

    monkeypatch.setattr(distributions, "stream_uniforms",
                        lambda seed, start, count: np.zeros(count))
    x = sample_truncated_lognormal(spec, 4, 0, 0)
    assert np.all(x <= 1.0)


def test_lognormal_mean_of_log():
    x = sample_truncated_lognormal(LN_SPEC, 10**6, 1, 0)
    target = truncated_lognormal_mean_of_log(LN_SPEC)
    assert abs(np.mean(np.log(x)) - target) <= 3 * LN_SPEC.sigma_ln / 1000.0


def test_lognormal_degenerate_sigma():
    spec = TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=1e-9)
    x = sample_truncated_lognormal(spec, 1000, 4, 0)
    np.testing.assert_allclose(x, np.exp(-0.0126), rtol=0, atol=1e-6)


def test_lognormal_count_zero():
    assert sample_truncated_lognormal(LN_SPEC, 0, 0, 0).shape == (0,)


def test_lognormal_spec_validation():
    with pytest.raises(ValueError):
        TruncatedLognormalSpec(mu_ln=0.0, sigma_ln=0.0)
    with pytest.raises(ValueError):
        TruncatedLognormalSpec(mu_ln=0.0, sigma_ln=-1.0)


# ---------------------------------------------------------------------------
# truncated Gaussian


def test_gaussian_mean():
    x = sample_truncated_gaussian(NB_SPEC, 10**6, 1, 0)
    assert abs(np.mean(x) - truncated_gaussian_mean(NB_SPEC)) <= 5e-5
    assert abs(np.mean(x) - 0.005) <= 5e-5


def test_gaussian_support_with_outside_mean():
    # alpha = 10 and 20: Phi(alpha) rounds to 1 there, and the draws once all
    # sat at the upper edge.  Draws and CDF must follow the law.
    for spec in (TruncatedGaussianSpec(mu=-1.0, sigma=0.1, upper=0.5),
                 TruncatedGaussianSpec(mu=-0.02, sigma=1e-3, upper=0.5)):
        law = truncnorm((spec.lower - spec.mu) / spec.sigma,
                        (spec.upper - spec.mu) / spec.sigma, loc=spec.mu, scale=spec.sigma)
        k = 10_000
        x = np.sort(sample_truncated_gaussian(spec, k, 3, 0))
        assert np.all((x >= 0.0) & (x <= 0.5))
        points = law.ppf([0.01, 0.1, 0.5, 0.9, 0.99])
        emp = np.searchsorted(x, points, side="right") / k
        assert np.all(np.abs(emp - law.cdf(points)) <= dkw_epsilon(k)), spec
        np.testing.assert_allclose(truncated_gaussian_cdf(spec, points), law.cdf(points),
                                   rtol=1e-12)


def test_laws_beyond_the_float_tail_raise():
    # Tail mass below the smallest normal double: no sample can be drawn.
    for spec in (TruncatedGaussianSpec(mu=-0.04, sigma=1e-3, upper=0.5),
                 TruncatedGaussianSpec(mu=10.0, sigma=0.1, upper=0.5)):
        with pytest.raises(ValueError, match=r"mu=.*sigma=.*\) has no representable mass"):
            sample_truncated_gaussian(spec, 10, 1, 0)
        with pytest.raises(ValueError, match="no representable mass"):
            truncated_gaussian_cdf(spec, 0.1)
    spec = TruncatedLognormalSpec(mu_ln=2.0, sigma_ln=0.05)
    with pytest.raises(ValueError, match=r"mu_ln=2.0, sigma_ln=0.05\) has no representable"):
        sample_truncated_lognormal(spec, 10, 1, 0)
    with pytest.raises(ValueError, match="no representable mass"):
        truncated_lognormal_cdf(spec, 0.5)
    # 36 sigma out the lognormal still samples, inside (0, 1].
    x = sample_truncated_lognormal(TruncatedLognormalSpec(mu_ln=1.8, sigma_ln=0.05),
                                   10_000, 1, 0)
    assert np.all((x > 0.0) & (x <= 1.0))


def test_gaussian_determinism_and_count_zero():
    a = sample_truncated_gaussian(NB_SPEC, 5000, 9, 0)
    b = sample_truncated_gaussian(NB_SPEC, 5000, 9, 0)
    np.testing.assert_array_equal(a, b)
    assert sample_truncated_gaussian(NB_SPEC, 0, 9, 0).shape == (0,)


def test_gaussian_nonzero_lower_bound():
    spec = TruncatedGaussianSpec(mu=0.2, sigma=0.5, upper=0.3, lower=0.1)
    x = sample_truncated_gaussian(spec, 20_000, 5, 0)
    assert np.all((x >= 0.1) & (x <= 0.3))


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(mu=0.0, sigma=0.0, upper=1.0)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(mu=0.0, sigma=1.0, upper=0.5, lower=0.5)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(mu=0.0, sigma=1.0, upper=0.5, lower=-0.1)


# ---------------------------------------------------------------------------
# exponential


def test_exponential_mean_and_quantile():
    x = sample_exponential(EXP_SPEC, 10**6, 1, 0)
    assert np.all(x >= 0.0)
    assert abs(np.mean(x) - 0.1) <= 5e-4
    q90 = np.quantile(x, 0.9)
    assert abs(q90 - 0.23026) / 0.23026 <= 0.01


def test_exponential_count_zero_and_validation():
    assert sample_exponential(EXP_SPEC, 0, 0, 0).shape == (0,)
    with pytest.raises(ValueError):
        ExponentialSpec(rate=0.0)
    with pytest.raises(ValueError):
        ExponentialSpec(rate=-2.0)


@pytest.mark.parametrize("spec, field", [
    (LN_SPEC, "mu_ln"), (LN_SPEC, "sigma_ln"),
    (NB_SPEC, "mu"), (NB_SPEC, "sigma"), (NB_SPEC, "upper"), (NB_SPEC, "lower"),
    (EXP_SPEC, "rate"),
])
def test_spec_fields_must_be_finite(spec, field):
    # JSON configs can carry NaN and Infinity; no spec field may take them.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(spec, **{field: bad})


# ---------------------------------------------------------------------------
# empirical law vs analytic CDF (DKW band)


def dkw_epsilon(k, confidence=0.999):
    return np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * k))


@pytest.mark.parametrize(
    "spec,sampler,cdf,points",
    [
        (
            LN_SPEC,
            sample_truncated_lognormal,
            truncated_lognormal_cdf,
            [0.92, 0.96, 0.98, 0.99, 0.999],
        ),
        (
            NB_SPEC,
            sample_truncated_gaussian,
            truncated_gaussian_cdf,
            [0.003, 0.004, 0.005, 0.006, 0.007],
        ),
        (
            EXP_SPEC,
            sample_exponential,
            exponential_cdf,
            [0.01, 0.05, 0.1, 0.2, 0.4],
        ),
    ],
)
def test_dkw_agreement(spec, sampler, cdf, points):
    k = 10**5
    x = np.sort(sampler(spec, k, 12, 0))
    for pt in points:
        emp = np.searchsorted(x, pt, side="right") / k
        assert abs(emp - float(cdf(spec, pt))) <= dkw_epsilon(k)


def test_cdf_helper_edges():
    assert truncated_lognormal_cdf(LN_SPEC, 0.0) == 0.0
    assert truncated_lognormal_cdf(LN_SPEC, 1.0) == 1.0
    assert truncated_gaussian_cdf(NB_SPEC, -0.1) == 0.0
    assert truncated_gaussian_cdf(NB_SPEC, 0.5) == 1.0
    assert exponential_cdf(EXP_SPEC, 0.0) == 0.0
    assert float(exponential_cdf(EXP_SPEC, 1e9)) == pytest.approx(1.0)
