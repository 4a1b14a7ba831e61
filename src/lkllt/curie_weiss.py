"""Mean-field Ising (Curie-Weiss) magnetization machinery.

The magnetization W of n two-valued spins under the complete-graph Gibbs
measure has an exactly computable law (one weight per spin-down count), an
attracting mean-field magnetization m0 solving m = tanh(beta*m + h), and a
single-site heat-bath chain whose +-2 jump probabilities are closed-form
functions of W alone.  Everything here is exact except the optional Monte
Carlo sampling of W, which draws from the exact law (no burn-in error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NumericalFailure
from .lattice import LatticeDist, dist_from_weights
from .metrics import KOLMOGOROV, LOCAL, TOTAL_VARIATION, WASSERSTEIN, distance
from .report import RateTable
from .smoothing import PairModel, exact_pair_stats, pair_bound_d1, pair_bound_d2
from .tp import tp_dist, tp_params


@dataclass(frozen=True)
class CWParams:
    n: int
    beta: float
    h: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameter("n must be a positive integer")
        if self.beta < 0:
            raise InvalidParameter("beta must be nonnegative")


@dataclass(frozen=True)
class CWState:
    n: int
    w: int

    def __post_init__(self):
        if abs(self.w) > self.n or (self.w - self.n) % 2 != 0:
            raise InvalidParameter("magnetization must satisfy |w| <= n, w = n mod 2")


def parity_shift(n: int) -> int:
    """0 for even n, 1 for odd n: (W + shift)/2 lives on the unit lattice."""
    return (1 - (-1) ** n) // 2


_log_factorial_table = np.empty(0)  # replaced, never written, as it grows


def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log(i!) for i = 0..n.

    A prefix of one shared table, so a doubling grid of n evaluates each
    lgamma once.  A larger n publishes a new, longer table; a table already
    handed out is never modified.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if len(table) <= n:
        tail = np.fromiter(map(math.lgamma, range(len(table) + 1, n + 2)), float)
        table = np.concatenate([table, tail])
        table.flags.writeable = False
        _log_factorial_table = table
    return table[: n + 1]


def cw_exact_pmf(params: CWParams, half_lattice: bool = False) -> LatticeDist:
    """Exact law of the magnetization W (or of (W + parity)/2).

    Weights binom(n, k) * exp(beta*(w^2 - n)/(2n) + h*w) over the spin-down
    count k (w = n - 2k), accumulated in log space with max subtraction.
    The full-lattice law has span 2 (interior zeros); the half-lattice law is
    the unit-span law of (W + parity_shift(n)) / 2.
    """
    n, beta, h = params.n, params.beta, params.h
    w = n - 2 * np.arange(n + 1)
    lf = _log_factorials(n)
    logw = (
        ((math.lgamma(n + 1) - lf) - lf[::-1])
        + beta * (w.astype(float) ** 2 - n) / (2.0 * n)
        + h * w
    )
    weights = np.exp(logw - logw.max())
    # index by w increasing: k = n..0
    weights = weights[::-1]
    if half_lattice:
        delta = parity_shift(n)
        return dist_from_weights((-n + delta) // 2, weights)
    full = np.zeros(2 * n + 1)
    full[::2] = weights
    return dist_from_weights(-n, full)


def cw_m0(beta: float, h: float) -> float:
    """The mean-field magnetization: root of m = tanh(beta*m + h).

    Unique for beta < 1.  For h = 0 and beta >= 1 the equation has symmetric
    solutions +-m*; the nonnegative one is returned (its square, which is all
    the smoothing bounds use, is the same for either branch).
    """
    if beta < 0:
        raise InvalidParameter("beta must be nonnegative")

    def f(m: float) -> float:
        return math.tanh(beta * m + h) - m

    if h == 0.0 and beta <= 1.0:
        return 0.0
    if h == 0.0:
        lo, hi = 1e-8, 1.0
    else:
        if beta >= 1.0:
            raise InvalidParameter("beta must be < 1 when h != 0")
        lo, hi = -1.0, 1.0
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(f(root)) >= 1e-14:
        raise NumericalFailure(f"fixed point residual {f(root)!r} too large")
    return root


def _q_arrays(w: np.ndarray, params: CWParams):
    """Vectorized closed-form jump probabilities of the heat-bath chain.

    All spin-down sites see the leave-one-out magnetization (w+1)/n and all
    spin-up sites see (w-1)/n, so every quantity is a function of w alone.
    Returns (q2, q_neg2, q22, q_neg2_neg2).
    """
    n, beta, h = params.n, params.beta, params.h
    w = np.asarray(w, dtype=float)
    down = (n - w) / 2.0
    up = (n + w) / 2.0
    p_up_after_down = 0.5 * (1.0 + np.tanh(beta * (w + 1) / n + h))
    p_dn_after_up = 0.5 * (1.0 - np.tanh(beta * (w - 1) / n + h))
    q2 = down / n * p_up_after_down
    qn2 = up / n * p_dn_after_up
    # second +2 step starts from w+2 with one fewer down spin
    p_up_2 = 0.5 * (1.0 + np.tanh(beta * (w + 3) / n + h))
    q22 = q2 * (down - 1) / n * p_up_2
    p_dn_2 = 0.5 * (1.0 - np.tanh(beta * (w - 3) / n + h))
    qn2n2 = qn2 * (up - 1) / n * p_dn_2
    return q2, qn2, q22, qn2n2


def cw_q(state: CWState, params: CWParams) -> tuple[float, float, float, float]:
    """Exact (Q(+2), Q(-2), Q(+2,+2), Q(-2,-2)) at one magnetization value."""
    if state.n != params.n:
        raise InvalidParameter("state and params disagree on n")
    q2, qn2, q22, qn2n2 = _q_arrays(np.array([state.w]), params)
    return float(q2[0]), float(qn2[0]), float(q22[0]), float(qn2n2[0])


_GUIDE_SIZE = 2 ** 16  # a power of two, so the bucket u * _GUIDE_SIZE is exact


def _sampler_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CDF that ``Generator.choice`` builds from ``probs``, and its guide.

    ``guide[j]`` is the state index of the key u = j / _GUIDE_SIZE, so every
    key of bucket j maps into [guide[j], guide[j + 1]].
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    guide = cdf.searchsorted(np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, side="right")
    return cdf, guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for keys u in [0, 1).

    A key whose bucket holds no CDF step takes its index from the guide; only
    the others are searched for.
    """
    j = (u * _GUIDE_SIZE).astype(np.intp)
    idx = guide[j]
    todo = np.flatnonzero(idx != guide[j + 1])
    idx[todo] = cdf.searchsorted(u[todo], side="right")
    return idx


class CWPairModel(PairModel):
    """Stationary magnetization chain on the finite state space of W.

    The states are the magnetization values with nonzero mass.  ``q_table``
    holds (Q(+2), Q(-2), Q(+2,+2), Q(-2,-2)) at every state, and
    :meth:`q_block` draws state indices from the exact law, so there is no
    mixing error.  The draws equal ``rng.choice(values, count, p=probs)`` bit
    for bit.  Only the jump size m = 2 is meaningful (W moves by 0 or +-2 per
    heat-bath step).
    """

    def __init__(self, params: CWParams):
        self.params = params
        law = cw_exact_pmf(params)
        support = np.arange(law.offset, law.support_end)
        keep = law.pmf > 0
        self.values = support[keep]
        self.probs = law.pmf[keep] / law.pmf[keep].sum()
        self.q_table = _q_arrays(self.values, params)
        # (cdf, guide), built by the first q_block call: exact_stats needs no
        # sampler, and `cw rate` builds a model per grid point
        self._sampler = None

    def q_block(self, rng: np.random.Generator, count: int, m: int) -> np.ndarray:
        if m != 2:
            raise InvalidParameter("the magnetization chain jumps by +-2 only")
        if self._sampler is None:
            # threads that race here build identical tables; either may win
            self._sampler = _sampler_tables(self.probs)
        return _guided_search(*self._sampler, rng.random(count))

    def exact_stats(self):
        return exact_pair_stats(self.probs, *self.q_table, m=2)


CW_RATE_COLUMNS = [
    "n", "dloc", "dtv", "dk", "dw", "d1_pair_bound", "d2_pair_bound",
]


def cw_rate_experiment(beta: float, h: float, n_grid) -> RateTable:
    """Exact-law convergence rates against the matched translated Poisson.

    For each n the half-lattice law of (W + parity)/2 is compared to
    TP(n*m0/2, n*(1-m0^2)/(4*(1-beta+beta*m0^2))) (which for h = 0 reduces to
    TP(0, n/(4*(1-beta)))) in the local, total variation, Kolmogorov and
    Wasserstein metrics.  The two pair-chain smoothness bounds for the span-2
    magnetization jumps are evaluated exactly from the stationary law, so
    every row is deterministic.
    """
    if not 0 < beta < 1:
        raise InvalidParameter("rate experiment requires 0 < beta < 1")
    m0 = cw_m0(beta, h)
    table = RateTable(
        CW_RATE_COLUMNS,
        metadata={"experiment": "cw_rate", "beta": beta, "h": h, "m0": m0},
    )
    for n in n_grid:
        params = CWParams(int(n), beta, h)
        law = cw_exact_pmf(params, half_lattice=True)
        mu = n * m0 / 2.0
        sigma2 = n * (1.0 - m0 ** 2) / (4.0 * (1.0 - beta + beta * m0 ** 2))
        target = tp_dist(tp_params(mu, sigma2))
        stats = CWPairModel(params).exact_stats()
        table.add(
            int(n),
            distance(law, target, LOCAL),
            distance(law, target, TOTAL_VARIATION),
            distance(law, target, KOLMOGOROV),
            distance(law, target, WASSERSTEIN),
            pair_bound_d1(stats),
            pair_bound_d2(stats),
        )
    return table
