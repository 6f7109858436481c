"""Closed-form channel quantities: pinned values, ranges, monotonicity."""

import numpy as np
import pytest
from scipy.special import xlogy

from covertq import (
    achievable_rate,
    covertness_constant,
    depolarizing_probability,
    ProtocolParams,
)
from covertq.physics import _entropy_into

from conftest import (
    reference_achievable_rate,
    reference_covertness_constant,
    reference_depolarizing_probability,
)


def ccov_alternate_form(eta, nb):
    # k * sqrt(x + eta x^2) with k = sqrt(2 eta) / (1 - eta); algebraically
    # identical to the product form used by the implementation.
    k = np.sqrt(2.0 * eta) / (1.0 - eta)
    return k * np.sqrt(nb + eta * nb * nb)


# ---------------------------------------------------------------------------
# covertness constant


def test_covertness_constant_pinned_values():
    assert covertness_constant(0.5, 1.0) == pytest.approx(2.449490, abs=1e-5)
    assert covertness_constant(0.9, 0.23026) == pytest.approx(7.0736, abs=5e-3)


def test_covertness_constant_zero_noise():
    for eta in (1e-6, 0.3, 0.9, 0.999, 1.0):
        assert covertness_constant(eta, 0.0) == 0.0


def test_covertness_constant_lossless_limit():
    assert covertness_constant(1.0, 0.3) == np.inf
    assert covertness_constant(1.0, 1e-12) == np.inf


def test_covertness_constant_algebraic_equivalence():
    rng = np.random.default_rng(0)
    eta = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    nb = rng.lognormal(-3.0, 1.5, 10_000)
    np.testing.assert_allclose(
        covertness_constant(eta, nb), ccov_alternate_form(eta, nb), rtol=1e-9
    )


def test_covertness_constant_monotone_in_noise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        eta = rng.uniform(0.05, 0.99)
        nb = np.sort(rng.uniform(0.0, 2.0, 50))
        c = covertness_constant(np.full_like(nb, eta), nb)
        assert np.all(np.diff(c) >= 0.0)


# ---------------------------------------------------------------------------
# depolarizing probability and Pauli entropy


def test_depolarizing_probability_pinned_values():
    assert depolarizing_probability(1.0, 0.3) == 0.0
    assert depolarizing_probability(0.9, 0.23026) == pytest.approx(0.17833, abs=5e-5)
    assert depolarizing_probability(1e-12, 0.7) == pytest.approx(1.0, abs=1e-11)


def test_depolarizing_probability_range():
    rng = np.random.default_rng(2)
    eta = rng.uniform(1e-6, 1.0, 5000)
    nb = rng.lognormal(-2.0, 2.0, 5000)
    p = depolarizing_probability(eta, nb)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_depolarizing_probability_monotone_in_noise():
    nb = np.linspace(0.0, 3.0, 100)
    p = depolarizing_probability(np.full_like(nb, 0.8), nb)
    assert np.all(np.diff(p) >= 0.0)


def test_pauli_entropy_values():
    # Entropy in bits of the Pauli vector [1 - 3p/4, p/4, p/4, p/4].
    p = np.array([0.0, 1.0, 0.17833])
    h = _entropy_into(p, np.empty_like(p))
    assert h[0] == 0.0
    assert h[1] == pytest.approx(2.0)
    assert h[2] == pytest.approx(0.77964, abs=5e-4)


# ---------------------------------------------------------------------------
# achievable rate


def test_achievable_rate_pinned_values():
    assert achievable_rate(1.0, 0.0) == 1.0
    assert achievable_rate(0.9, 0.23026) == pytest.approx(0.22038, abs=5e-4)
    assert achievable_rate(0.3, 0.0) == 0.0  # entropy ~1.83, clamped


def test_achievable_rate_consistent_with_entropy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eta = rng.uniform(0.5, 1.0)
        nb = rng.uniform(0.0, 0.5)
        p = depolarizing_probability(eta, nb)
        pauli = np.array([1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p])
        entropy = -np.sum(xlogy(pauli, pauli)) / np.log(2.0)
        expect = max(0.0, 1.0 - entropy)
        assert achievable_rate(eta, nb) == pytest.approx(expect, abs=1e-12)


def test_achievable_rate_monotone_in_noise():
    nb = np.linspace(0.0, 1.0, 200)
    r = achievable_rate(np.full_like(nb, 0.9), nb)
    assert np.all(np.diff(r) <= 0.0)
    assert r[0] > 0.0 and r[-1] == 0.0


# ---------------------------------------------------------------------------
# in-place kernels against the whole-expression forms

KERNELS = [
    (covertness_constant, reference_covertness_constant),
    (depolarizing_probability, reference_depolarizing_probability),
    (achievable_rate, reference_achievable_rate),
]


@pytest.mark.parametrize("kernel, reference", KERNELS,
                         ids=["c_cov", "depolarizing", "r_ach"])
def test_inplace_kernels_match_whole_expressions(kernel, reference):
    rng = np.random.default_rng(3)
    eta = rng.uniform(1e-6, 1.0, 5000)
    nb = rng.uniform(0.0, 0.5, 5000)
    eta[:10] = 1.0  # lossless rows: c_cov = +inf
    nb[5:15] = 0.0  # noiseless rows; rows 5-9 are the 0/0 corner
    cases = [
        (eta, nb),
        (0.9, nb),  # scalar eta broadcast against an array nb
        (1.0, nb),
        (eta, 0.0),
        (eta[:, None], nb[None, :40]),
    ]
    for e, n in cases:
        got, want = kernel(e, n), reference(e, n)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # Scalars return float, bit-identical to the same pair inside an array,
    # and so to the whole expression.
    along = kernel(eta, nb)
    for i in range(2000):
        got = kernel(float(eta[i]), float(nb[i]))
        assert type(got) is float
        assert np.float64(got).tobytes() == along[i].tobytes()


@pytest.mark.parametrize("kernel", [covertness_constant, achievable_rate],
                         ids=["c_cov", "r_ach"])
def test_kernels_write_into_out(kernel):
    # out= fills a slice of a larger array with the same bits and returns
    # it; a scalar pair with out= returns the 0-d array.
    rng = np.random.default_rng(4)
    eta = rng.uniform(1e-6, 1.0, 3000)
    nb = rng.uniform(0.0, 0.5, 3000)
    eta[:5], nb[3:8] = 1.0, 0.0
    rows = np.full(4000, -1.0)
    got = kernel(eta, nb, out=rows[500:3500])
    assert got.base is rows
    assert rows[500:3500].tobytes() == kernel(eta, nb).tobytes()
    assert np.all(rows[:500] == -1.0) and np.all(rows[3500:] == -1.0)
    cell = np.empty(())
    assert kernel(0.9, 0.1, out=cell) is cell and float(cell) == kernel(0.9, 0.1)


@pytest.mark.parametrize("kernel", [covertness_constant, achievable_rate],
                         ids=["c_cov", "r_ach"])
def test_kernels_refuse_a_bad_out(kernel):
    eta, nb = np.full(10, 0.9), np.full(10, 0.1)
    for out in (np.empty(9), np.empty((10, 1)), np.empty(10, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be a float64 array"):
            kernel(eta, nb, out=out)
    # The kernels read eta and nb after writing into out.
    for out in (eta, nb[::-1]):
        with pytest.raises(ValueError, match="must not overlap"):
            kernel(eta, nb, out=out)


# ---------------------------------------------------------------------------
# transmission-probability ceiling: the (n, delta) check guarding the map


def test_q_ceiling_validation():
    with pytest.raises(ValueError):
        ProtocolParams(n=100, delta=0.0).q_ceiling(1.0)
    with pytest.raises(ValueError):
        ProtocolParams(n=100, delta=0.5).q_ceiling(1.0)
    with pytest.raises(ValueError):
        ProtocolParams(n=0, delta=0.05).q_ceiling(1.0)
