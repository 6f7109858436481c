"""Closed-form channel quantities for a lossy bosonic link with thermal noise.

Given a per-frame realization (eta, nb) — transmittance in (0, 1] and mean
thermal photon number >= 0 — this module evaluates:

* the covertness constant  c_cov = sqrt(2*eta*nb*(1 + eta*nb)) / (1 - eta),
  which scales how large a transmission probability the detection budget
  permits over n uses:  q <= 2*delta*c_cov/sqrt(n);
* the effective depolarizing probability  p = 1 - eta/(1 + (1-eta)*nb)^4
  seen by a dual-rail qubit, its Pauli error vector [1-3p/4, p/4, p/4, p/4],
  and the hashing-bound rate  R = max(0, 1 - H(pauli vector)).

All functions are elementwise over numpy arrays and also accept floats,
which run the same ufunc loops as 0-d arrays and so match array results.
covertness_constant and achievable_rate also write into a caller's array
(``out=``), which is how sample generation fills its K-row results without
a temporary per block.
eta = 1 with nb > 0 yields c_cov = +inf by convention rather than an error,
so measure-zero boundary samples survive bulk Monte Carlo runs; quantile
logic downstream treats +inf as a legal upper-tail value.  An intermediate
that overflows at extreme finite nb (past about 1e154) becomes +inf with no
warning: c_cov is then +inf, which caps q at 1 as its true value would, and
the depolarizing probability is 1, its limit.

scipy's xlogy is read through `_special`, which loads it on first use
without scipy.special's package init, as in distributions: only
achievable_rate needs it (sample generation and the benchmark closed
forms), and a query on a cached sample set loads no scipy.special module.
"""

from __future__ import annotations

import numpy as np

from . import _special

__all__ = [
    "covertness_constant",
    "depolarizing_probability",
    "achievable_rate",
]

_LN2 = np.log(2.0)


def _result(res: np.ndarray, out, *inputs):
    # The array written into, or a float when the caller gave no out and
    # every input is a scalar.
    if out is None and all(np.ndim(v) == 0 for v in inputs):
        return float(res)
    return res


def _operands(eta, nb, out=None):
    # Float views of the inputs and an output array of their broadcast
    # shape: the caller's out, or a new one.  The kernels below apply their
    # ufuncs with out= into it and at most one scratch array, in the order
    # the closed forms in the docstrings read, so results are bit-identical
    # to the whole-expression forms while a call allocates at most two
    # arrays, not one per operation.  Reordering a step (x**4 as x*x*x*x,
    # or xlogy as x*log) changes last-ulp bits.
    eta_a = np.asarray(eta, dtype=float)
    nb_a = np.asarray(nb, dtype=float)
    shape = np.broadcast_shapes(eta_a.shape, nb_a.shape)
    if out is None:
        return eta_a, nb_a, np.empty(shape)
    if out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    # The kernels read eta and nb after their first write into out.
    if np.may_share_memory(out, eta_a) or np.may_share_memory(out, nb_a):
        raise ValueError("out must not overlap eta or nb")
    return eta_a, nb_a, out


def covertness_constant(eta, nb, out=None):
    """Covertness constant sqrt(2*eta*nb*(1 + eta*nb)) / (1 - eta).

    Elementwise over arrays.  Returns 0 whenever nb = 0 (including the
    0/0 corner at eta = 1) and +inf when eta = 1 with nb > 0.  ``out``, if
    given, is a float64 array of the inputs' broadcast shape that does not
    overlap them; the result is written into it and it is returned, and the
    call allocates one scratch array of that shape.
    """
    eta_a, nb_a, res = _operands(eta, nb, out)
    tmp = np.empty_like(res)
    with np.errstate(over="ignore"):
        np.multiply(2.0, eta_a, out=res)
        np.multiply(res, nb_a, out=res)
        np.multiply(eta_a, nb_a, out=tmp)
        np.add(1.0, tmp, out=tmp)
        np.multiply(res, tmp, out=res)
    np.sqrt(res, out=res)
    np.subtract(1.0, eta_a, out=tmp)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(res, tmp, out=res)
    np.copyto(res, 0.0, where=nb_a == 0.0)
    return _result(res, out, eta, nb)


def _depolarizing_into(eta_a, nb_a, out):
    # 1 - eta/(1 + (1-eta)*nb)^4, clipped to [0, 1], written into out.
    np.subtract(1.0, eta_a, out=out)
    np.multiply(out, nb_a, out=out)
    np.add(1.0, out, out=out)
    with np.errstate(over="ignore"):
        np.power(out, 4, out=out)
    np.divide(eta_a, out, out=out)
    np.subtract(1.0, out, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def depolarizing_probability(eta, nb):
    """Effective depolarizing probability 1 - eta/(1 + (1-eta)*nb)^4.

    Mathematically in [0, 1] for eta in (0, 1], nb >= 0; the clip only
    removes last-ulp excursions.
    """
    eta_a, nb_a, res = _operands(eta, nb)
    return _result(_depolarizing_into(eta_a, nb_a, res), None, eta, nb)


def _entropy_into(p, tmp):
    # Shannon entropy in bits of the Pauli vector [1-3p/4, p/4, p/4, p/4],
    # -(xlogy(a, a) + 3*xlogy(b, b))/ln 2, written over p with a in tmp;
    # xlogy supplies the 0*log 0 = 0 convention at p = 0.
    np.multiply(0.75, p, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(0.25, p, out=p)
    _special.xlogy(tmp, tmp, out=tmp)
    _special.xlogy(p, p, out=p)
    np.multiply(3.0, p, out=p)
    np.add(tmp, p, out=p)
    np.negative(p, out=p)
    return np.divide(p, _LN2, out=p)


def _rate_into(p, tmp):
    # The rate max(0, 1 - H) of depolarizing probabilities p, written over p
    # with tmp (p's shape) as scratch.  Every step is an IEEE-exact numpy
    # ufunc or xlogy's scalar loop, so a value does not depend on where its
    # row sits in p.
    entropy = _entropy_into(p, tmp)
    np.subtract(1.0, entropy, out=p)
    return np.maximum(0.0, p, out=p)


def achievable_rate(eta, nb, out=None):
    """Hashing-bound rate max(0, 1 - H(pauli vector)) in qubits per use.

    ``out`` is written into and returned as in covertness_constant, with
    one scratch array per call.
    """
    eta_a, nb_a, res = _operands(eta, nb, out)
    _rate_into(_depolarizing_into(eta_a, nb_a, res), np.empty_like(res))
    return _result(res, out, eta, nb)
