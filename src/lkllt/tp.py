"""Translated Poisson distributions and their normal-comparison gaps.

TP(mu, sigma2) is the law of S + floor(mu - sigma2) where
S ~ Poisson(sigma2 + gamma) and gamma = mu - sigma2 - floor(mu - sigma2).
It has mean exactly mu and variance in [sigma2, sigma2 + 1), making it the
standard integer-valued stand-in for N(mu, sigma2).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, TooLarge
from .lattice import LatticeDist

_EPS = 1e-12  # omitted Poisson mass of every truncated TP law
_MAX_WINDOW = 2 ** 24  # points of the widest Poisson window: sigma2 up to about 4.9e11
_CHUNK = 8192  # lattice points per piece of the tp_normal_gaps walk


@dataclass(frozen=True)
class TPParams:
    mu: float
    sigma2: float
    shift: int
    gamma: float
    lam: float  # Poisson mean: sigma2 + gamma


def tp_params(mu: float, sigma2: float) -> TPParams:
    """Resolve (mu, sigma2) into the integer shift and Poisson mean."""
    if not 0 < sigma2 < math.inf:
        raise InvalidParameter("sigma2 must be positive and finite")
    # beyond 2^53 neighbouring lattice points are no longer distinct floats
    if not abs(mu) <= 2.0 ** 53:
        raise InvalidParameter("mu must be finite, with |mu| <= 2^53")
    shift = math.floor(mu - sigma2)
    gamma = mu - sigma2 - shift
    return TPParams(float(mu), float(sigma2), shift, gamma, sigma2 + gamma)


def _poisson_block(lam: float, eps: float) -> tuple[int, np.ndarray]:
    """Poisson(lam) masses on a window around the mode with omitted mass < eps.

    The mode mass is evaluated in log space and neighbours follow by the
    up/down ratio recursions, which stays stable for lam up to ~1e6.  The
    omitted tails are bounded by the geometric-ratio envelopes at the window
    edges (the raw sum is not compared against 1, whose distance from the sum
    is dominated by the log-space anchor error for large lam).  A window of
    more than _MAX_WINDOW points raises TooLarge before it is allocated.
    """
    mode = int(lam)
    log_mode = -lam + mode * math.log(lam) - math.lgamma(mode + 1) if lam > 0 else 0.0
    half = int(12.0 * math.sqrt(lam) + 30.0)
    while True:
        lo = max(0, mode - half)
        hi = mode + half
        if hi - lo + 1 > _MAX_WINDOW:
            raise TooLarge(
                f"sigma2 must keep the TP window within {_MAX_WINDOW} points "
                f"(sigma2 up to about 4.9e11); lam = {lam:.6g} needs {hi - lo + 1}"
            )
        # the downward step (prev * (k + 1)) / lam rounds twice, so it stays a
        # loop, kept as raw doubles; the upward step multiplies by one factor,
        # a running product over the same buffer
        top = math.exp(log_mode)
        down = array("d")
        append, x = down.append, top
        for k1 in range(mode, lo, -1):
            x = (x * k1) / lam
            append(x)
        pm = np.empty(hi - lo + 1)
        pm[: mode - lo] = np.frombuffer(down)[::-1]
        del down
        up = pm[mode - lo :]
        up[0] = top
        np.divide(lam, np.arange(mode + 1, hi + 1, dtype=float), out=up[1:])
        np.multiply.accumulate(up, out=up)
        total = pm.sum()
        # right tail: successive ratios lam/(hi+1+j) <= r; left tail likewise
        r = lam / (hi + 1)
        right = pm[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        s = lo / lam if lam > 0 else 0.0
        left = pm[0] * s / (1.0 - s) if lo > 0 and s < 1.0 else 0.0
        if left + right < eps * total:
            return lo, pm
        half = int(half * 1.5) + 10


def tp_dist(params: TPParams) -> LatticeDist:
    """The TP law as a LatticeDist, truncated so omitted mass < _EPS."""
    lo, pm = _poisson_block(params.lam, _EPS)
    pm /= pm.sum()
    return LatticeDist(params.shift + lo, pm)


def _std_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d array, elementwise through math.erf."""
    return 0.5 * (1.0 + np.fromiter(map(math.erf, (z / math.sqrt(2.0)).tolist()), float, len(z)))


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def tp_normal_gaps(params: TPParams) -> tuple[float, float, float]:
    """(local gap, Kolmogorov distance, Wasserstein distance) of TP vs N(mu, sigma2).

    * local gap: sup over integers k of |TP{k} - normal density at k|.
    * Kolmogorov: sup over the real line of |step CDF - normal CDF|; the step
      CDF is constant between integers, so the sup is attained at lattice
      jump points and is evaluated exactly there.
    * Wasserstein: integral of |step CDF - normal CDF|, done exactly per unit
      interval with the closed-form antiderivative z*Phi(z) + phi(z) of the
      normal CDF and a crossing-point split, plus the two analytic tails.

    The window is walked in _CHUNK-point pieces, so past the pmf only the
    Wasserstein terms take memory in proportion to the window: one array for
    the intervals Phi does not cross, kept whole because np.sum's pairwise
    order depends on its length, and the terms of the crossed intervals.
    Every other sum is sequential (the CDF carries over from one piece to the
    next, and the crossing terms are added one at a time in index order), so
    the result does not depend on _CHUNK.
    """
    from statistics import NormalDist

    F = tp_dist(params)
    mu, sigma = params.mu, math.sqrt(params.sigma2)
    inv_cdf = NormalDist().inv_cdf
    pmf = F.pmf
    term = np.empty(len(pmf))  # of the intervals that Phi does not cross
    crossing_terms = []  # one array per piece, in index order
    local_gap = dk = carry = 0.0
    for start in range(0, len(pmf), _CHUNK):
        p = pmf[start : start + _CHUNK]
        # the piece's lattice points and the one past it
        k = np.arange(F.offset + start, F.offset + start + len(p) + 1)
        z = (k - mu) / sigma
        Phi = _std_cdf(z)
        phi = _phi(z)
        antideriv = z * Phi + phi  # of the standard normal CDF
        k = k[:-1]
        if start == 0:  # integral of Phi below the support
            head = sigma * float(antideriv[0])

        local_gap = max(local_gap, float(np.abs(p - phi[:-1] / sigma).max()))

        c = p.copy()
        c[0] += carry
        np.cumsum(c, out=c)
        carry = c[-1]
        # both one-sided limits at every jump point
        phi_at_k, phi_at_next = Phi[:-1], Phi[1:]
        dk = max(dk, float(np.abs(c - phi_at_k).max()), float(np.abs(c - phi_at_next).max()))

        # Wasserstein: per-interval exact integration of |c - Phi| on [k, k+1)
        a0, a1 = antideriv[:-1], antideriv[1:]
        area = sigma * (a1 - a0)  # integral of Phi
        below = phi_at_next <= c  # Phi stays under the step value
        above = phi_at_k >= c
        term[start : start + len(p)] = (
            np.where(below, c - area, 0.0) + np.where(above, area - c, 0.0)
        )
        crossing = ~(below | above)
        ci, kc = c[crossing], k[crossing]
        x_star = mu + sigma * np.array([inv_cdf(q) for q in ci.tolist()])
        zs = (x_star - mu) / sigma
        a_star = zs * _std_cdf(zs) + _phi(zs)
        left = ci * (x_star - kc) - sigma * (a_star - a0[crossing])
        right = sigma * (a1[crossing] - a_star) - ci * (kc + 1 - x_star)
        crossing_terms.append(left + right)
    dw = float(np.sum(term))
    # sequential, in index order: np.sum's pairwise summation would reorder
    for terms in crossing_terms:
        for t in terms.tolist():
            dw += t
    # tails: integral of Phi below the support, of 1 - Phi above it
    dw += head
    dw += sigma * float(phi[-1] - z[-1] * (1.0 - Phi[-1]))
    return local_gap, dk, float(dw)
