"""Probability metrics on the integer lattice and the smoothing functional.

:func:`distances` returns the four metrics between two lattice laws F, G
(capitals for CDFs) under the keys that name them everywhere else:

* ``dk``, Kolmogorov:        sup_j |F(j) - G(j)|
* ``dw``, Wasserstein:       sum_j |F(j) - G(j)|
* ``dtv``, total variation:  (1/2) sum_j |f(j) - g(j)|        (pmf difference)
* ``dloc``, local:           sup_j |f(j) - g(j)|

:func:`distance` is the span-m local metric, ``dloc`` between the laws smoothed
by uniform{0..m-1}: (1/m) sup_k |P[X in (k, k+m]] - P[Y in (k, k+m]]|.

The smoothing functional D(F; n, m) = l1-norm of the n-fold span-m difference
of the pmf of F.  Small values mean the point masses of F vary slowly, which
is what upgrades weak-metric bounds into local ones.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .lattice import LatticeDist, smooth_uniform, span_difference


def distances(F: LatticeDist, G: LatticeDist) -> dict[str, float]:
    """Local (``dloc``), total variation (``dtv``), Kolmogorov (``dk``) and
    Wasserstein (``dw``) distances, from one alignment of the two laws."""
    lo = min(F.offset, G.offset)
    pf = np.zeros(max(F.support_end, G.support_end) - lo)
    pg = np.zeros_like(pf)
    pf[F.offset - lo : F.support_end - lo] = F.pmf
    pg[G.offset - lo : G.support_end - lo] = G.pmf
    gap = np.abs(pf - pg)
    cdf_gap = np.abs(pf.cumsum() - pg.cumsum())
    return {"dloc": float(gap.max()), "dtv": 0.5 * float(gap.sum()),
            "dk": float(cdf_gap.max()), "dw": float(cdf_gap.sum())}


def distance(F: LatticeDist, G: LatticeDist, m: int) -> float:
    """The span-m local metric: ``dloc`` between the laws averaged over m-blocks."""
    return distances(smooth_uniform(F, m), smooth_uniform(G, m))["dloc"]


def smoothing_term(F: LatticeDist, n: int, m: int) -> float:
    """Order-n, span-m smoothness of a lattice law.

    Defined as the supremum over |g| <= 1 of E[n-fold span-m difference of g
    at W].  The adjoint of one span-m step maps p(j) to p(j-m) - p(j), the
    negated span-m difference of p shifted m points, so the supremum is the
    l1-norm of the n-fold span-m difference of the pmf.  For m = 1 this is
    also the l1-norm of the (n+1)-th CDF difference.  Always in (0, 2^n].

    :func:`smoothing_term_dual` evaluates the same supremum through its
    extremal test function and exists as an independent cross-check.
    """
    if n < 1 or m < 1:
        raise InvalidParameter("n and m must be positive integers")
    return float(np.abs(span_difference(F.pmf, n, m)).sum())


def smoothing_term_dual(F: LatticeDist, n: int, m: int) -> float:
    """Evaluate the smoothing term as sup over |g| <= 1 of E[span-m n-th difference of g at W].

    The supremum is attained by the sign pattern of the adjoint difference of
    the pmf; the expectation is then evaluated literally, by applying the
    span-m difference operator to that extremal g.  Exists as an independent
    cross-check of :func:`smoothing_term`.
    """
    if n < 1 or m < 1:
        raise InvalidParameter("n and m must be positive integers")
    pmf = F.pmf
    # adjoint of one span-m difference step on mass vectors: p(i-m) - p(i)
    coeffs = pmf
    for _ in range(n):
        ext = np.zeros(len(coeffs) + m)
        ext[m:] += coeffs
        ext[: len(coeffs)] -= coeffs
        coeffs = ext
    # g starts at the pmf's first point and its difference n*m points left of
    # it: E (Delta_m^n g)(W) reads dg over the pmf's support
    dg = span_difference(np.sign(coeffs), n, m)
    return float(np.add.reduce(np.multiply(pmf, dg[n * m : n * m + len(pmf)])))
