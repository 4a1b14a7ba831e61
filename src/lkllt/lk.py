"""Discrete Landau-Kolmogorov interpolation machinery.

The admissibility/exponent algebra for the inequality

    ||D^k f||_q  <=  C ||f||_p^(1-beta) ||D^n f||_r^beta,

its metric form relating pairs of probability metrics through smoothness
norms, and a seeded fuzzer for the two parameter combinations with the known
constant C = sqrt(2): (n=2, p=q=r=1) and (n=3, p=q=inf, r=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .lattice import LatticeDist, dist_from_weights
from .metrics import distances, smoothing_term

SQRT2 = math.sqrt(2.0)
_MAX_WIDTH = 50  # widest support window of a random_dist draw


def _inv(x) -> float:
    """1/x with 1/inf = 0; x may be an int or math.inf."""
    if x == math.inf:
        return 0.0
    if not isinstance(x, (int, np.integer)) or x < 1:
        raise InvalidParameter("norm indices must be integers >= 1 or inf")
    return 1.0 / float(x)


def beta_exponent(k: int, n: int, p, q, r) -> tuple[bool, float]:
    """Interpolation exponent and admissibility of a (k, n, p, q, r) tuple.

    Returns (admissible, beta) with beta = (k - 1/q + 1/p) / (n - 1/r + 1/p)
    and admissibility n/q <= (n-k)/p + k/r, reading 1/inf as 0.
    """
    if not 1 <= k < n:
        raise InvalidParameter("need 1 <= k < n")
    ip, iq, ir = _inv(p), _inv(q), _inv(r)
    beta = (k - iq + ip) / (n - ir + ip)
    admissible = n * iq <= (n - k) * ip + k * ir + 1e-15
    return admissible, beta


# rows of the interpolation table: (d1, d2), keys of distances -> beta(l)
_COMBO_BETA = {
    ("dloc", "dtv"): lambda l: 1.0 / l,
    ("dloc", "dk"): lambda l: 1.0 / l,
    ("dloc", "dw"): lambda l: 2.0 / (l + 1),
    ("dtv", "dw"): lambda l: 1.0 / (l + 1),
    ("dk", "dw"): lambda l: 1.0 / (l + 1),
}


@dataclass(frozen=True)
class LKCombo:
    """One row of the metric interpolation table.

    d1 is the stronger metric being bounded, d2 the weaker metric on the
    right-hand side, both keys of :func:`metrics.distances`; l is the
    difference order of the smoothness norms; beta comes from the table.
    """

    d1: str
    d2: str
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise InvalidParameter("l must be a positive integer")
        if (self.d1, self.d2) not in _COMBO_BETA:
            raise InvalidParameter(f"unsupported metric combination {(self.d1, self.d2)}")

    @property
    def beta(self) -> float:
        return _COMBO_BETA[(self.d1, self.d2)](self.l)


def lk_sides(F: LatticeDist, G: LatticeDist, combo: LKCombo) -> tuple[float, float, float]:
    """Both sides of the inequality for a pair of lattice laws, without any
    constant: (lhs, rhs_core, ratio).

    lhs is d1(F, G); rhs_core is d2(F, G)^(1-beta) * (sum of the two
    order-(l+1) CDF-difference norms)^beta; ratio = lhs / rhs_core (zero
    when both sides vanish).  The first CDF difference is the pmf shifted one
    point, so each norm is the order-l, span-1 smoothing term.
    """
    gaps = distances(F, G)
    lhs, d2 = gaps[combo.d1], gaps[combo.d2]
    norms = smoothing_term(F, combo.l, 1) + smoothing_term(G, combo.l, 1)
    beta = combo.beta
    rhs_core = d2 ** (1.0 - beta) * norms ** beta
    return lhs, rhs_core, lhs / rhs_core if rhs_core > 0 else 0.0


# the two known-constant cases: case name -> LKCombo, its (n, p, q, r) above it
KNOWN_CASES = {
    # n=2, p=q=r=1: total variation vs Wasserstein with first-order smoothness
    "n2_p1q1r1": LKCombo("dtv", "dw", l=1),
    # n=3, p=q=inf, r=1: local vs Kolmogorov with second-order smoothness
    "n3_pinf_qinf_r1": LKCombo("dloc", "dk", l=2),
}


def random_dist(rng: np.random.Generator) -> LatticeDist:
    """A random test distribution: exponential masses on a random window.

    One draw in eight is a deliberate corner case (point mass, two-point
    law, or a parity-supported law) to stress degenerate geometry.
    """
    corner = rng.integers(0, 8)
    offset = int(rng.integers(-10, 10))
    if corner == 0:
        return dist_from_weights(offset, [1.0])
    if corner == 1:
        gap = int(rng.integers(1, 6))
        w = np.zeros(gap + 1)
        w[0], w[-1] = rng.exponential(), rng.exponential()
        return dist_from_weights(offset, w)
    if corner == 2:
        width = int(rng.integers(1, _MAX_WIDTH // 2))
        w = np.zeros(2 * width + 1)
        w[::2] = rng.exponential(size=width + 1)
        return dist_from_weights(offset, w)
    width = int(rng.integers(2, _MAX_WIDTH + 1))
    return dist_from_weights(offset, rng.exponential(size=width))


def lk_fuzz(trials: int, seed: int, cases: tuple[str, ...]) -> tuple[dict[str, float], list]:
    """Worst lhs/rhs_core ratio over random pairs for each known-constant
    case, and the rows (trial, case, lhs, rhs_core, ratio) of every trial of
    the first case, then of every trial of the next.

    The asserted inequality carries C = sqrt(2); the worst ratio is the
    largest observed lhs / rhs_core, so the inequality holds on the sample
    iff it is <= sqrt(2).  Deterministic per seed: trial t is drawn from a
    dedicated Philox substream keyed (seed, t-block), so any execution order
    yields the same worst ratio.  Each pair is drawn once and evaluated for
    every case.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    for case in cases:
        if case not in KNOWN_CASES:
            raise InvalidParameter(f"unknown case {case!r}; pick from {sorted(KNOWN_CASES)}")
    from .rngutil import blocks

    rows = {case: [] for case in cases}
    for start, count, rng in blocks(seed, trials):
        for t in range(count):
            F = random_dist(rng)
            G = random_dist(rng)
            for case in cases:
                rows[case].append((start + t, case, *lk_sides(F, G, KNOWN_CASES[case])))
    worst = {case: max(0.0, *(row[4] for row in rows[case])) for case in cases}
    return worst, [row for case in cases for row in rows[case]]
