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
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, NumericalFailure
from .lattice import LatticeDist
from .smoothing import PairModel, exact_pair_stats, pair_bound_d1, pair_bound_d2


@dataclass(frozen=True)
class CWParams:
    n: int
    beta: float
    h: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameter("n must be a positive integer")
        _check_field(self.beta, self.h)
        # the log weights hold beta*(w^2 - n) and h*w for |w| <= n, and their
        # differences; past this they overflow float64
        if self.beta * self.n ** 2 > _MAX_LOG_TERM:
            raise InvalidParameter(f"beta must not exceed {_MAX_LOG_TERM:g} / n^2")
        if abs(self.h) * self.n > _MAX_LOG_TERM:
            raise InvalidParameter(f"h must not exceed {_MAX_LOG_TERM:g} / n in absolute value")


def _check_field(beta: float, h: float) -> None:
    if not (math.isfinite(beta) and beta >= 0):
        raise InvalidParameter("beta must be finite and nonnegative")
    if not math.isfinite(h):
        raise InvalidParameter("h must be finite")


_MAX_LOG_TERM = 1e300  # largest beta*n^2 and |h|*n, well inside float64
_BLOCK = 1024  # spin-down counts per block of the support search
# exp(x) == 0.0 for x < -745.14; the margin covers rounding in the bounds
_UNDERFLOW = 750.0
_PAIRWISE_LEAF = 128  # numpy's pairwise summation: longest run summed in one loop


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    """log binom(n, k), with one lgamma per distinct factorial argument."""
    # a sort, not np.union1d, whose hashing costs as much as the lgamma calls
    both = np.sort(np.concatenate([k, n - k]))
    args = both[np.concatenate([[True], both[1:] != both[:-1]])]
    lf = np.fromiter(map(math.lgamma, args + 1), float, len(args))
    return (math.lgamma(n + 1) - lf[args.searchsorted(k)]) - lf[args.searchsorted(n - k)]


def _log_weights(params: CWParams, k: np.ndarray, log_binom: np.ndarray) -> np.ndarray:
    """log_binom + beta*(w^2 - n)/(2n) + h*w at spin-down counts k (w = n - 2k).

    The sum is taken in this order, which fixes the rounding of every weight.
    Past log_binom, the terms are convex in k for beta >= 0.
    """
    n, beta, h = params.n, params.beta, params.h
    w = n - 2 * k
    return log_binom + beta * (w.astype(float) ** 2 - n) / (2.0 * n) + h * w


@lru_cache(maxsize=1)
def _support_weights(params: CWParams) -> tuple[int, np.ndarray]:
    """(j0, weights): exp(logw - max logw) at w = -n + 2*(j0 + i), read-only.

    logw is evaluated only on the blocks of spin-down counts k whose upper
    bound comes within _UNDERFLOW of an exact log-weight, a lower bound on
    the maximum; every other weight underflows to exactly 0.0.  On a block
    [a, e] the log-binomial term is concave, so it lies below its secant
    through a and a + 1, whose slope is log((n - a)/(a + 1)); that line plus
    the convex rest of logw peaks at a or e.
    """
    n = params.n
    a = np.arange(0, n + 1, _BLOCK)
    e = np.minimum(a + _BLOCK - 1, n)
    lb = _log_binom(n, a)
    # a = n only in a one-point block, where the slope is never used
    rise = (e - a) * np.log(np.maximum(n - a, 1) / (a + 1))
    upper = np.maximum(_log_weights(params, a, lb), _log_weights(params, e, lb + rise))
    top = int(upper.argmax())
    probe = np.array([a[top], e[top]])
    lower = _log_weights(params, probe, _log_binom(n, probe)).max()
    k = np.concatenate(
        [np.arange(a[b], e[b] + 1) for b in np.flatnonzero(upper >= lower - _UNDERFLOW)]
    )
    logw = _log_weights(params, k, _log_binom(n, k))
    j = n - k  # index by w increasing
    j0 = int(j[-1])
    weights = np.zeros(int(j[0]) - j0 + 1)
    weights[j - j0] = np.exp(logw - logw.max())
    weights.flags.writeable = False
    return j0, weights


def _zero_padded_sum(values: np.ndarray, start: int, a: int, n: int):
    """``np.sum`` of entries a to a + n - 1 of a zero vector that holds
    ``values`` from entry ``start`` on.

    The zero vector is never built.  numpy sums a contiguous float vector
    pairwise: at most _PAIRWISE_LEAF entries in one unrolled loop, longer
    ones split at half the length, rounded down to a multiple of 8.  A part
    of that tree that holds only zeros sums to 0.0 and one that lies inside
    ``values`` is summed by numpy over a slice of the same length, so the
    total rounds as the whole vector's sum does.
    """
    end = start + len(values)
    if a >= end or a + n <= start:
        return 0.0
    if start <= a and a + n <= end:
        return np.add.reduce(values[a - start : a - start + n])
    if n <= _PAIRWISE_LEAF:
        leaf = np.zeros(n)
        lo, hi = max(a, start), min(a + n, end)
        leaf[lo - a : hi - a] = values[lo - start : hi - start]
        return np.add.reduce(leaf)
    half = n // 2 - n // 2 % 8
    return (_zero_padded_sum(values, start, a, half)
            + _zero_padded_sum(values, start, a + half, n - half))


def cw_exact_pmf(params: CWParams, half_lattice: bool = False) -> LatticeDist:
    """Exact law of the magnetization W (or of (W + parity)/2).

    Weights binom(n, k) * exp(beta*(w^2 - n)/(2n) + h*w) over the spin-down
    count k (w = n - 2k), accumulated in log space with max subtraction.
    The full-lattice law has span 2 (interior zeros); the half-lattice law is
    the unit-span law of (W + n % 2) / 2.  Weights that underflow
    are never computed, but the normalizing total rounds as a pairwise sum
    over a zero-filled vector of the whole lattice, since that rounding
    depends on where each entry sits (see _zero_padded_sum).
    """
    n = params.n
    j0, weights = _support_weights(params)
    step = 1 if half_lattice else 2
    start = step * j0
    window = np.zeros(step * (len(weights) - 1) + 1)
    window[::step] = weights
    window /= _zero_padded_sum(window, start, 0, step * n + 1)
    offset = (-n + n % 2) // 2 if half_lattice else -n
    return LatticeDist(offset + start, window)


def cw_m0(beta: float, h: float) -> float:
    """The mean-field magnetization: root of m = tanh(beta*m + h).

    Unique for beta < 1.  For h = 0 and beta >= 1 the equation has symmetric
    solutions +-m*; the nonnegative one is returned (its square, which is all
    the smoothing bounds use, is the same for either branch).
    """
    _check_field(beta, h)

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
    if flo == 0.0 or f(hi) == 0.0:  # tanh rounds an end of the bracket to a root
        return lo if flo == 0.0 else hi
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
    Returns (q2, q_neg2, q22, q_neg2_neg2).  Each value is rounded as in

        down, up = (n - w) / 2.0, (n + w) / 2.0
        q2 = down / n * flip(w + 1, +)
        q22 = q2 * (down - 1) / n * flip(w + 3, +)
        qn2 = up / n * flip(w - 1, -)
        qn2n2 = qn2 * (up - 1) / n * flip(w - 3, -)

    with flip(x, +-) = 0.5 * (1.0 +- tanh(beta * x / n + h)); the second
    step starts from w +- 2 with one fewer site to flip.  The operations run
    in place, so at most six arrays of the size of w are live.
    """
    n, beta, h = params.n, params.beta, params.h
    w = np.asarray(w, dtype=float)
    flip = np.empty_like(w)

    def flip_probability(shift: int, sign: np.ufunc) -> np.ndarray:
        np.add(w, shift, out=flip)
        np.multiply(beta, flip, out=flip)
        np.divide(flip, n, out=flip)
        np.add(flip, h, out=flip)
        np.tanh(flip, out=flip)
        sign(1.0, flip, out=flip)
        return np.multiply(0.5, flip, out=flip)

    def two_steps(sites: np.ndarray, shift: int, sign: np.ufunc):
        sites /= 2.0
        one = np.divide(sites, n, out=np.empty_like(w))
        one *= flip_probability(shift, sign)
        sites -= 1
        two = np.multiply(one, sites, out=sites)
        two /= n
        two *= flip_probability(3 * shift, sign)
        return one, two

    # out= keeps a 0-d w an array, so that the steps can run in place
    q2, q22 = two_steps(np.subtract(n, w, out=np.empty_like(w)), 1, np.add)
    qn2, qn2n2 = two_steps(np.add(n, w, out=np.empty_like(w)), -1, np.subtract)
    return q2, qn2, q22, qn2n2


_GUIDE_SIZE = 2 ** 16  # a power of two, so the bucket u * _GUIDE_SIZE is exact


def _sampler_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CDF that ``Generator.choice`` builds from ``probs``, and its guide.

    ``guide[j]`` is the state index of the key u = j / _GUIDE_SIZE, so every
    key of bucket j maps into [guide[j], guide[j + 1]].  The guide is int32,
    so the state indices drawn through it take 4 bytes each.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    guide = cdf.searchsorted(np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, side="right")
    return cdf, guide.astype(np.int32)


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

    stride = 1  # one uniform per state, see q_block

    def __init__(self, params: CWParams):
        self.params = params
        law = cw_exact_pmf(params)
        keep = np.flatnonzero(law.pmf)
        self.values = law.offset + keep
        self.probs = law.pmf[keep]
        self.probs /= self.probs.sum()
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
    from .report import rate_table

    if not 0 < beta < 1:
        raise InvalidParameter("rate experiment requires 0 < beta < 1")
    m0 = cw_m0(beta, h)

    def point(n):
        params = CWParams(int(n), beta, h)
        if abs(m0) == 1.0:  # after CWParams, so an h it rejects keeps its message
            raise InvalidParameter(
                "h must leave the fixed point m0 inside (-1, 1): at this h it is "
                "+-1 in float64, so the target has no spread"
            )
        law = cw_exact_pmf(params, half_lattice=True)
        stats = CWPairModel(params).exact_stats()
        sigma2 = n * (1.0 - m0 ** 2) / (4.0 * (1.0 - beta + beta * m0 ** 2))
        return law, n * m0 / 2.0, sigma2, {
            "n": int(n), "d1_pair_bound": pair_bound_d1(stats),
            "d2_pair_bound": pair_bound_d2(stats),
        }

    metadata = {"experiment": "cw_rate", "beta": beta, "h": h, "m0": m0}
    return rate_table(CW_RATE_COLUMNS, metadata, n_grid, point)
