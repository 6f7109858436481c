"""Strict empirical CDFs and strict-outage quantiles on sorted sample arrays.

The outage events of interest are strict inequalities (realized value falls
strictly below a threshold), so the matching distribution function is
F<(x) = P[X < x] and the matching quantile is

    Q<(eps) = sup{ x : P[X < x] <= eps }.

On an empirical law of K sorted samples the supremum is the order statistic
x_(m+1) with m = floor(eps*K); this module implements exactly that, and the
test suite proves the equivalence by brute-force enumeration.  A quantile
reads only the sorted lower tail up to its order statistic, so it takes the
smallest values of K draws and the count K (a tail set's arrays).  Both
operations cost O(log K) / O(1) on the pre-sorted arrays, which is what
makes dense budget sweeps against one cached sample set cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RiskBudgets", "order_index", "strict_cdf", "strict_outage_quantile"]


@dataclass(frozen=True)
class RiskBudgets:
    """Per-frame outage budgets for covertness and reliability."""

    eps_cov: float
    eps_rel: float

    def __post_init__(self) -> None:
        for name in ("eps_cov", "eps_rel"):
            self.check(getattr(self, name), name)

    @staticmethod
    def check(eps, name: str = "eps") -> float:
        """eps as a float; ValueError naming ``name`` unless 0 < eps < 1."""
        if not 0 < eps < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {eps}")
        return float(eps)


def order_index(eps: float, K: int) -> int:
    """m = floor(eps*K): Q<(eps) is x_(m+1), and m = 0 is below 1/K resolution.

    eps*K is evaluated in binary64 (on Python floats, several times cheaper
    per call than numpy scalars) and snapped to an integer within one ulp
    before flooring, so 0.3*10 = 2.999... keeps its order statistic.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    t = float(eps) * K
    nearest = round(t)
    return nearest if abs(t - nearest) <= math.ulp(t) else math.floor(t)


def strict_cdf(samples: np.ndarray, x):
    """Fraction of samples strictly below x, elementwise over thresholds.

    Parameters
    ----------
    samples : ndarray
        Nonempty array sorted ascending (+inf entries allowed at the top).
    x : float or ndarray
        Threshold(s); -inf gives 0, anything above the maximum gives 1, and
        NaN raises ValueError.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    x = np.asarray(x)
    if np.isnan(x).any():
        raise ValueError("thresholds must not be NaN")
    counts = np.searchsorted(samples, x, side="left")
    out = counts / samples.size
    return float(out) if np.ndim(x) == 0 else out


def strict_outage_quantile(samples: np.ndarray, eps: float, K: int | None = None):
    """sup{x : strict_cdf(samples, x) <= eps} of the empirical law of K draws.

    Equals the order statistic x_(m+1) with m = order_index(eps, K), clamped
    to the maximum sample when m + 1 > K.  ``samples`` holds the smallest
    len(samples) of the K draws, sorted; K defaults to its length (a full
    set).  An order statistic past a tail raises ValueError.
    """
    samples = np.asarray(samples)
    if K is None:
        K = samples.size
    i = min(order_index(eps, K), K - 1)
    if i >= samples.size:
        raise ValueError(f"the eps={eps} quantile is order statistic {i + 1} of {K} "
                         f"draws, past this tail of {samples.size} of {K}")
    return samples[i]
