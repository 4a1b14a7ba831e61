"""Translated Poisson distributions and their normal-comparison gaps.

TP(mu, sigma2) is the law of S + floor(mu - sigma2) where
S ~ Poisson(sigma2 + gamma) and gamma = mu - sigma2 - floor(mu - sigma2).
It has mean exactly mu and variance in [sigma2, sigma2 + 1), making it the
standard integer-valued stand-in for N(mu, sigma2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameter
from .lattice import LatticeDist

_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class TPParams:
    mu: float
    sigma2: float
    shift: int
    gamma: float
    lam: float  # Poisson mean: sigma2 + gamma


def tp_params(mu: float, sigma2: float) -> TPParams:
    """Resolve (mu, sigma2) into the integer shift and Poisson mean."""
    if not sigma2 > 0:
        raise InvalidParameter("sigma2 must be positive")
    shift = math.floor(mu - sigma2)
    gamma = mu - sigma2 - shift
    return TPParams(float(mu), float(sigma2), shift, gamma, sigma2 + gamma)


def _poisson_block(lam: float, eps: float) -> tuple[int, np.ndarray]:
    """Poisson(lam) masses on a window around the mode with omitted mass < eps.

    The mode mass is evaluated in log space and neighbours follow by the
    up/down ratio recursions, which stays stable for lam up to ~1e6.  The
    omitted tails are bounded by the geometric-ratio envelopes at the window
    edges (the raw sum is not compared against 1, whose distance from the sum
    is dominated by the log-space anchor error for large lam).
    """
    mode = int(lam)
    log_mode = -lam + mode * math.log(lam) - math.lgamma(mode + 1) if lam > 0 else 0.0
    half = int(12.0 * math.sqrt(lam) + 30.0)
    while True:
        lo = max(0, mode - half)
        hi = mode + half
        # Python floats: the recursions are sequential, and a cumulative
        # product would round the downward step differently
        up = [math.exp(log_mode)]
        for k in range(mode + 1, hi + 1):
            up.append(up[-1] * (lam / k))
        down = up[:1]
        for k in range(mode - 1, lo - 1, -1):
            down.append((down[-1] * (k + 1)) / lam)
        pm = np.array(down[:0:-1] + up)
        total = pm.sum()
        # right tail: successive ratios lam/(hi+1+j) <= r; left tail likewise
        r = lam / (hi + 1)
        right = pm[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        s = lo / lam if lam > 0 else 0.0
        left = pm[0] * s / (1.0 - s) if lo > 0 and s < 1.0 else 0.0
        if left + right < eps * total:
            return lo, pm
        half = int(half * 1.5) + 10


def tp_dist(params: TPParams, eps: float = 1e-12) -> LatticeDist:
    """The TP law as a LatticeDist, truncated so omitted mass < eps."""
    if not 0 < eps <= 1e-6:
        raise InvalidParameter("eps must satisfy 0 < eps <= 1e-6")
    lo, pm = _poisson_block(params.lam, eps)
    return LatticeDist(params.shift + lo, pm / pm.sum())


def _std_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d array, elementwise through math.erf."""
    return 0.5 * (1.0 + np.fromiter(map(math.erf, (z / math.sqrt(2.0)).tolist()), float, len(z)))


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def tp_normal_gaps(params: TPParams, eps: float = 1e-12) -> tuple[float, float, float]:
    """(local gap, Kolmogorov distance, Wasserstein distance) of TP vs N(mu, sigma2).

    * local gap: sup over integers k of |TP{k} - normal density at k|.
    * Kolmogorov: sup over the real line of |step CDF - normal CDF|; the step
      CDF is constant between integers, so the sup is attained at lattice
      jump points and is evaluated exactly there.
    * Wasserstein: integral of |step CDF - normal CDF|, done exactly per unit
      interval with the closed-form antiderivative z*Phi(z) + phi(z) of the
      normal CDF and a crossing-point split, plus the two analytic tails.
    """
    F = tp_dist(params, eps)
    mu, sigma = params.mu, math.sqrt(params.sigma2)
    # every lattice point of the support and the end point one past it
    k = np.arange(F.offset, F.support_end + 1)
    z = (k - mu) / sigma
    Phi = _std_cdf(z)
    phi = _phi(z)
    antideriv = z * Phi + phi  # of the standard normal CDF
    k = k[:-1]

    local_gap = float(np.abs(F.pmf - phi[:-1] / sigma).max())

    c = F.cdf()
    # both one-sided limits at every jump point
    phi_at_k, phi_at_next = Phi[:-1], Phi[1:]
    dk = float(
        max(np.abs(c - phi_at_k).max(), np.abs(c - phi_at_next).max())
    )

    # Wasserstein: per-interval exact integration of |c - Phi| on [k, k+1)
    a0, a1 = antideriv[:-1], antideriv[1:]
    area = sigma * (a1 - a0)  # integral of Phi
    below = phi_at_next <= c  # Phi stays under the step value
    above = phi_at_k >= c
    dw = float(np.sum(np.where(below, c - area, 0.0) + np.where(above, area - c, 0.0)))
    crossing = ~(below | above)
    ci, kc = c[crossing], k[crossing]
    x_star = mu + sigma * np.array([_STD_NORMAL.inv_cdf(p) for p in ci.tolist()])
    zs = (x_star - mu) / sigma
    a_star = zs * _std_cdf(zs) + _phi(zs)
    left = ci * (x_star - kc) - sigma * (a_star - a0[crossing])
    right = sigma * (a1[crossing] - a_star) - ci * (kc + 1 - x_star)
    # sequential, in index order: np.sum's pairwise summation would reorder
    for term in (left + right).tolist():
        dw += term
    # tails: integral of Phi below the support, of 1 - Phi above it
    dw += sigma * float(antideriv[0])
    dw += sigma * float(phi[-1] - z[-1] * (1.0 - Phi[-1]))
    return local_gap, dk, float(dw)
