"""Shared fixtures: the three reference channels and their cached sample sets.

Sample sets at K = 10^6 are cheap to build (well under a second) but are
reused across many tests, so they are session scoped.  Tests that need
other seeds or sizes generate their own sets locally.
"""

import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    generate_sample_set,
)

K_FULL = 10**6


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
