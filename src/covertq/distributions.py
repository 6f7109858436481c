"""Seeded inverse-CDF samplers for the channel parameter laws.

Three laws are supported: a lognormal truncated to (0, 1] (transmittance),
a Gaussian truncated to [0, b] (thermal photon number), and an exponential
(benchmark noise).  A sampler call (spec, count, seed, start) reads the
uniforms at stream positions [start, start + count) and maps each through
the inverse CDF of the truncated law, so output i depends only on (spec,
seed, start + i), never on the call pattern or the thread.  Every sampler
computes in place over its uniforms, so with ``out=`` a call fills a
caller's buffer and allocates no array of its own.

The uniform source is a counter-addressed stream: position space is split
into fixed chunks and chunk c is generated from a PCG64 generator keyed by
(seed, c).  Requesting positions [a, b) therefore yields the same bits
whether done in one call, many calls, or from parallel workers.

A truncated Gaussian above its mean is sampled through the upper tail's
probabilities: Phi(alpha) rounds to 1 about 8 sigma out, Phi(-alpha) does
not.  A law whose tail mass is below the smallest normal double (about
37.5 sigma out) cannot be sampled; its sampler and CDF raise ValueError.

The samplers and CDFs read scipy's ndtr and ndtri through `_special`,
which loads them on first use without scipy.special's package init: a
query on a cached sample set never draws, and loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special

__all__ = [
    "TruncatedLognormalSpec",
    "TruncatedGaussianSpec",
    "ExponentialSpec",
    "sample_truncated_lognormal",
    "sample_truncated_gaussian",
    "sample_exponential",
]

# Fixed chunk width of the counter-addressed uniform stream.  Changing it
# changes every stream, so it is a format constant, not a tuning knob.
STREAM_CHUNK = 1 << 15

_MAX_SEED = 2**64


def _coerce_floats(obj, *names: str) -> None:
    # Normalize numeric fields of frozen specs so equality and digests do
    # not depend on whether the caller passed 1 or 1.0.  NaN and +-inf are
    # rejected: no law here has a meaningful non-finite parameter.
    for name in names:
        value = float(getattr(obj, name))
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class TruncatedLognormalSpec:
    """Lognormal law for ln(x) ~ N(mu_ln, sigma_ln^2), truncated to (0, 1]."""

    mu_ln: float
    sigma_ln: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "mu_ln", "sigma_ln")
        if not self.sigma_ln > 0:
            raise ValueError(f"sigma_ln must be > 0, got {self.sigma_ln}")


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Gaussian N(mu, sigma^2) truncated to the interval [lower, upper]."""

    mu: float
    sigma: float
    upper: float
    lower: float = 0.0

    def __post_init__(self) -> None:
        _coerce_floats(self, "mu", "sigma", "upper", "lower")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0 <= self.lower < self.upper:
            raise ValueError(
                f"need 0 <= lower < upper, got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class ExponentialSpec:
    """Exponential law with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "rate")
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")


def stream_uniforms(seed: int, start: int, count: int, out=None) -> np.ndarray:
    """Uniform doubles in [0, 1) at absolute positions [start, start + count).

    Chunk c holds positions [c*STREAM_CHUNK, (c+1)*STREAM_CHUNK) and is
    produced by PCG64 seeded from SeedSequence([seed, c]), so any partition
    of the position space reproduces the same concatenated output.

    ``out``, if given, is a C-contiguous float64 array of shape (count,)
    that is filled and returned instead of a new array.

    Raises ValueError for a seed outside [0, 2**64), which SeedSequence would
    accept silently, for a negative start or count, and for an ``out`` of
    another shape, dtype or layout.
    """
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if out is None:
        out = np.empty(count)
    elif (out.shape != (count,) or out.dtype != np.float64
          or not out.flags.c_contiguous or not out.flags.writeable):
        raise ValueError(f"out must be a writable contiguous float64 array of "
                         f"shape ({count},), got {out.dtype} {out.shape}")
    filled = 0
    while filled < count:
        c, offset = divmod(start + filled, STREAM_CHUNK)
        n = min(count - filled, STREAM_CHUNK - offset)
        bits = np.random.PCG64(np.random.SeedSequence([seed, c]))
        # Each double consumes one 64-bit step, so advancing by the offset
        # skips exactly the chunk positions before the span.
        bits.advance(offset)
        np.random.Generator(bits).random(out=out[filled : filled + n])
        filled += n
    return out


def _representable(mass: float, spec) -> float:
    # The tail mass an inverse-CDF map reads.  Below the smallest normal
    # double every draw would land on an edge of the support.
    if not mass >= np.finfo(float).tiny:
        raise ValueError(f"{spec} has no representable mass on its support")
    return mass


def _lognormal_mass(spec: TruncatedLognormalSpec) -> float:
    # p_hi = Phi((ln 1 - mu)/sigma), the untruncated law's mass on (0, 1].
    return _representable(_special.ndtr((0.0 - spec.mu_ln) / spec.sigma_ln), spec)


def _gaussian_tail_map(spec: TruncatedGaussianSpec):
    # (p_lo, p_hi, sign): the interval maps to [p_lo, p_hi] in the
    # probabilities of sign*(x - mu)/sigma.  An interval above the mean
    # (alpha > 0) is mirrored into the lower tail, where the probabilities
    # keep their precision instead of rounding to 1.
    alpha = (spec.lower - spec.mu) / spec.sigma
    beta = (spec.upper - spec.mu) / spec.sigma
    if alpha > 0:
        p_lo, p_hi, sign = _special.ndtr(-beta), _special.ndtr(-alpha), -1.0
    else:
        p_lo, p_hi, sign = _special.ndtr(alpha), _special.ndtr(beta), 1.0
    return p_lo, _representable(p_hi, spec), sign


def sample_truncated_lognormal(
    spec: TruncatedLognormalSpec, count: int, seed: int, start: int, out=None
) -> np.ndarray:
    """Draw ``count`` transmittance values in (0, 1] from the truncated law.

    Parameters
    ----------
    spec : TruncatedLognormalSpec
        Location and scale of ln(x); truncation to (0, 1] is implied.
    count : int
        Number of samples (>= 0).
    seed, start : int
        Stream seed and position of the first of the ``count`` uniforms read.
    out : ndarray, optional
        Contiguous float64 array of shape (count,) to fill, as in
        stream_uniforms; the samples are computed in it and it is returned.

    Returns
    -------
    ndarray
        Samples in (0, 1], in ``out`` if given.  A value of exactly 1.0 can
        occur through rounding and is kept: it is legal support and
        downstream code treats the induced +inf covertness constant
        explicitly.
    """
    # Each step below overwrites the uniforms in place, in the order of
    # min(exp(mu + sigma * ndtri(p_hi * (1 - u))), 1): same ufuncs, same bits.
    x = stream_uniforms(seed, start, count, out=out)
    # Truncated region in probability space is (0, p_hi] with
    # p_hi = Phi((ln 1 - mu)/sigma).  Mapping through (1 - u) keeps the
    # left edge open: u in [0, 1) lands in (0, p_hi], so no sample can
    # collapse to 0 while exact 1.0 stays reachable at u = 0.
    p_hi = _lognormal_mass(spec)
    np.subtract(1.0, x, out=x)
    np.multiply(p_hi, x, out=x)
    # ndtri is SciPy's Cephes rational-approximation normal quantile,
    # accurate to well below 1e-9 relative error over (1e-12, 1 - 1e-12).
    # The minimum absorbs the last-ulp excess of the ndtri/ndtr roundtrip
    # at u = 0; values strictly inside (0, 1) are untouched.
    _special.ndtri(x, out=x)
    np.multiply(spec.sigma_ln, x, out=x)
    np.add(spec.mu_ln, x, out=x)
    np.exp(x, out=x)
    return np.minimum(x, 1.0, out=x)


def sample_truncated_gaussian(
    spec: TruncatedGaussianSpec, count: int, seed: int, start: int, out=None
) -> np.ndarray:
    """Draw ``count`` values in [lower, upper] from the truncated Gaussian.

    Inverse-CDF on the truncated interval: the uniform draw is mapped into
    [Phi(alpha), Phi(beta)] and pushed through the normal quantile.  An
    interval above the mean (alpha > 0) is mapped through the upper tail
    instead, x = mu - sigma * ndtri(Phi(-beta) + (Phi(-alpha) - Phi(-beta)) * u).
    The final clip only absorbs last-ulp rounding; the mathematical image is
    already inside the interval.  ``out`` is filled and returned as in
    sample_truncated_lognormal.
    """
    # In place, in the order of mu + sign*sigma * ndtri(p_lo + (p_hi - p_lo) * u).
    x = stream_uniforms(seed, start, count, out=out)
    p_lo, p_hi, sign = _gaussian_tail_map(spec)
    np.multiply(p_hi - p_lo, x, out=x)
    np.add(p_lo, x, out=x)
    _special.ndtri(x, out=x)
    np.multiply(sign * spec.sigma, x, out=x)
    np.add(spec.mu, x, out=x)
    return np.clip(x, spec.lower, spec.upper, out=x)


def sample_exponential(
    spec: ExponentialSpec, count: int, seed: int, start: int, out=None
) -> np.ndarray:
    """Draw ``count`` nonnegative values with inverse CDF -ln(1 - u)/rate.

    ``out`` is filled and returned as in sample_truncated_lognormal.
    """
    x = stream_uniforms(seed, start, count, out=out)
    # log1p keeps precision for small u; u in [0, 1) keeps the result finite.
    # In place, in the order of -log1p(-u) / rate.
    np.negative(x, out=x)
    np.log1p(x, out=x)
    np.negative(x, out=x)
    return np.divide(x, spec.rate, out=x)


def truncated_lognormal_cdf(spec: TruncatedLognormalSpec, x) -> np.ndarray:
    """CDF of the truncated law on (0, 1]; 0 below support, 1 above."""
    x = np.asarray(x, dtype=float)
    p_hi = _lognormal_mass(spec)
    with np.errstate(divide="ignore"):
        raw = _special.ndtr(
            (np.log(np.maximum(x, np.finfo(float).tiny)) - spec.mu_ln) / spec.sigma_ln)
    out = np.clip(raw / p_hi, 0.0, 1.0)
    return np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, out))


def truncated_gaussian_cdf(spec: TruncatedGaussianSpec, x) -> np.ndarray:
    """CDF of the Gaussian truncated to [lower, upper]."""
    x = np.asarray(x, dtype=float)
    p_lo, p_hi, sign = _gaussian_tail_map(spec)
    if sign > 0:
        raw = (_special.ndtr((x - spec.mu) / spec.sigma) - p_lo) / (p_hi - p_lo)
    else:
        raw = (p_hi - _special.ndtr((spec.mu - x) / spec.sigma)) / (p_hi - p_lo)
    out = np.clip(raw, 0.0, 1.0)
    return np.where(x < spec.lower, 0.0, np.where(x >= spec.upper, 1.0, out))


def exponential_cdf(spec: ExponentialSpec, x) -> np.ndarray:
    """CDF 1 - exp(-rate * x), 0 below the origin."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0, 0.0, -np.expm1(-spec.rate * x))
