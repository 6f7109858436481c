"""Shared fixtures: the three reference channels and their cached sample sets.

Sample sets at K = 10^6 are cheap to build (well under a second) but are
reused across many tests, so they are session scoped.  Tests that need
other seeds or sizes generate their own sets locally.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import xlogy

import covertq
from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    SampleSet,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    achievable_rate,
    generate_sample_set,
)

K_FULL = 10**6


def run_fresh(script, *args):
    # A new interpreter, so no earlier test has imported anything yet, and a
    # crash such as SIGBUS fails the test (return code -7) instead of the run.
    env = {**os.environ,
           "PYTHONPATH": str(Path(covertq.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def make_baseline_spec() -> StochasticChannelSpec:
    """Stochastic reference channel: mildly uncertain transmittance, low noise."""
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=0.05),
        nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5),
    )


def make_volatile_spec() -> StochasticChannelSpec:
    """Short-frame channel with wider transmittance spread and noisier nb."""
    sigma = 0.07
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(
            mu_ln=np.log(0.96) - 0.5 * sigma**2, sigma_ln=sigma
        ),
        nb=TruncatedGaussianSpec(mu=0.01, sigma=0.005, upper=0.5),
    )


def synthetic_set(ccov, rach, seed=0):
    """A sample set holding the given draws, sorted, with an all-zero digest."""
    ccov = np.sort(np.asarray(ccov, dtype=float))
    rach = np.sort(np.asarray(rach, dtype=float))
    return SampleSet(ccov=ccov, rach=rach, seed=seed, channel_digest=b"\x00" * 32)


def bench_rach_inverse(channel, r):
    """The noise level at which the benchmark channel's rate equals r."""
    return brentq(lambda x: achievable_rate(channel.eta0, x) - r, 1e-12, 10.0)


def bench_rach_cdf(channel, r):
    # P[R_ach < r] = P[nb > the inverse at r] for a strictly decreasing rate.
    return np.exp(-channel.nb.rate * bench_rach_inverse(channel, r))


def bench_rach_density(channel, r):
    # R_ach(nb) is strictly decreasing, so the density of the rate at r is
    # the exponential density at the inverted noise level over |dR/dnb|.
    x = bench_rach_inverse(channel, r)
    h = 1e-7
    slope = (achievable_rate(channel.eta0, x + h)
             - achievable_rate(channel.eta0, x - h)) / (2 * h)
    return channel.nb.rate * np.exp(-channel.nb.rate * x) / abs(slope)


def reference_covertness_constant(eta, nb):
    """Whole-expression c_cov, one temporary per operation: the reference the
    in-place physics kernels must match bit for bit."""
    eta_a = np.asarray(eta, dtype=float)
    nb_a = np.asarray(nb, dtype=float)
    num = np.sqrt(2.0 * eta_a * nb_a * (1.0 + eta_a * nb_a))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (1.0 - eta_a)
    return np.where(nb_a == 0.0, 0.0, out)


def reference_depolarizing_probability(eta, nb):
    """Whole-expression depolarizing probability, the in-place reference."""
    eta_a = np.asarray(eta, dtype=float)
    nb_a = np.asarray(nb, dtype=float)
    return np.clip(1.0 - eta_a / (1.0 + (1.0 - eta_a) * nb_a) ** 4, 0.0, 1.0)


def reference_achievable_rate(eta, nb):
    """Whole-expression hashing-bound rate, the in-place kernel's reference."""
    p = reference_depolarizing_probability(eta, nb)
    a = 1.0 - 0.75 * p
    b = 0.25 * p
    entropy = -(xlogy(a, a) + 3.0 * xlogy(b, b)) / np.log(2.0)
    return np.maximum(0.0, 1.0 - entropy)


@pytest.fixture(scope="session")
def baseline_spec():
    return make_baseline_spec()


@pytest.fixture(scope="session")
def volatile_spec():
    return make_volatile_spec()


@pytest.fixture(scope="session")
def benchmark_channel():
    return BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))


@pytest.fixture(scope="session")
def protocol():
    return ProtocolParams(n=10**7, delta=0.05)


@pytest.fixture(scope="session")
def baseline_set(baseline_spec):
    return generate_sample_set(baseline_spec, K_FULL, seed=1, workers=4)


@pytest.fixture(scope="session")
def volatile_set(volatile_spec):
    return generate_sample_set(volatile_spec, K_FULL, seed=1, workers=4)


@pytest.fixture(scope="session")
def benchmark_set(benchmark_channel):
    return generate_sample_set(
        benchmark_channel, K_FULL, seed=1, workers=4
    )
