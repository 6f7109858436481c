"""Closed-form channel quantities for a lossy bosonic link with thermal noise.

Given a per-frame realization (eta, nb) — transmittance in (0, 1] and mean
thermal photon number >= 0 — this module evaluates:

* the covertness constant  c_cov = sqrt(2*eta*nb*(1 + eta*nb)) / (1 - eta),
  which scales how large a transmission probability the detection budget
  permits over n uses:  q <= 2*delta*c_cov/sqrt(n);
* the effective depolarizing probability  p = 1 - eta/(1 + (1-eta)*nb)^4
  seen by a dual-rail qubit, its Pauli error vector [1-3p/4, p/4, p/4, p/4],
  and the hashing-bound rate  R = max(0, 1 - H(pauli vector)).

All functions are elementwise over numpy arrays and equally accept floats.
eta = 1 with nb > 0 yields c_cov = +inf by convention rather than an error,
so measure-zero boundary samples survive bulk Monte Carlo runs; quantile
logic downstream treats +inf as a legal upper-tail value.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

__all__ = [
    "covertness_constant",
    "depolarizing_probability",
    "achievable_rate",
    "q_ceiling",
]

_LN2 = np.log(2.0)


def _scalar_or_array(out: np.ndarray, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def covertness_constant(eta, nb):
    """Covertness constant sqrt(2*eta*nb*(1 + eta*nb)) / (1 - eta).

    Elementwise over arrays.  Returns 0 whenever nb = 0 (including the
    0/0 corner at eta = 1) and +inf when eta = 1 with nb > 0.
    """
    eta_a = np.asarray(eta, dtype=float)
    nb_a = np.asarray(nb, dtype=float)
    num = np.sqrt(2.0 * eta_a * nb_a * (1.0 + eta_a * nb_a))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (1.0 - eta_a)
    out = np.where(nb_a == 0.0, 0.0, out)
    return _scalar_or_array(out, eta, nb)


def depolarizing_probability(eta, nb):
    """Effective depolarizing probability 1 - eta/(1 + (1-eta)*nb)^4.

    Mathematically in [0, 1] for eta in (0, 1], nb >= 0; the clip only
    removes last-ulp excursions.
    """
    eta_a = np.asarray(eta, dtype=float)
    nb_a = np.asarray(nb, dtype=float)
    p = 1.0 - eta_a / (1.0 + (1.0 - eta_a) * nb_a) ** 4
    return _scalar_or_array(np.clip(p, 0.0, 1.0), eta, nb)


def _entropy_of_depolarizing(p):
    # Shannon entropy in bits of the Pauli vector [1-3p/4, p/4, p/4, p/4];
    # xlogy supplies the 0*log 0 = 0 convention at p = 0.
    a = 1.0 - 0.75 * p
    b = 0.25 * p
    return -(xlogy(a, a) + 3.0 * xlogy(b, b)) / _LN2


def achievable_rate(eta, nb):
    """Hashing-bound rate max(0, 1 - H(pauli vector)) in qubits per use."""
    p = depolarizing_probability(np.asarray(eta, dtype=float), np.asarray(nb, dtype=float))
    rate = np.maximum(0.0, 1.0 - _entropy_of_depolarizing(np.asarray(p)))
    return _scalar_or_array(rate, eta, nb)


def q_ceiling(c_cov, delta: float, n: int):
    """Uncapped covertness bound 2*delta*c_cov/sqrt(n) on the transmission probability.

    Capping to 1 is the optimizer's job, not done here; +inf passes through.
    """
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c_a = np.asarray(c_cov, dtype=float)
    return _scalar_or_array(2.0 * delta * c_a / np.sqrt(n), c_cov)
