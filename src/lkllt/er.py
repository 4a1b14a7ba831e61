"""G(n, p) random graph statistics, exact chain-jump evaluators and bounds.

Covers the two statistics whose local behaviour the experiments probe:
isolated-vertex counts and triangle counts.  The edge-resampling chain
(pick a uniform vertex pair, redraw the edge indicator) is reversible for
G(n, p); its jump probabilities are exact functions of a few graph counts,
which keeps the pair-chain bounds free of nested simulation.

Graphs are boolean adjacency stacks of shape (count, n, n); one graph is a
stack of one.  The samplers and the pair-chain evaluators work on whole
blocks, so degree, isolated-edge and common-neighbour counts are array
reductions over the block rather than Python loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import DegenerateChain, InvalidParameter, TooLarge
from .rngutil import map_blocks
from .smoothing import PairChainStats, PairModel, exact_pair_stats, pair_bound_d1, pair_bound_d2

_MAX_Q_EVAL_N = 512  # ERPairModel raises TooLarge for triangles beyond this n
_CHUNK_CELLS = 1 << 18  # adjacency cells per evaluation sub-chunk: a few MB of temporaries
_TWO_STEP_CELLS = _CHUNK_CELLS // 8  # per two-step triangle sub-chunk: 0.85 MB tracemalloc peak
_SAMPLE_CELLS = _CHUNK_CELLS // 4  # per triangle-count sub-chunk: about 1 MB of temporaries
_ISO_POSITIONS = 1 << 14  # gap positions per isolated-count sub-chunk: 128 KB per int64 array
_LOW_SLOTS = 16  # pair slots of the enumeration's low table: 2^16 edge masks per chunk


def _qpow(p: float, k: float) -> float:
    """(1-p)^k, stable for tiny p and large k; k may be negative for p < 1."""
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log1p(-p))


# ---------------------------------------------------------------------------
# graph sampling


@lru_cache(maxsize=16)
def _triu_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.triu_indices(n, 1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


@lru_cache(maxsize=16)
def _cell_slots(n: int) -> np.ndarray:
    """Pair slot of every cell of a flattened (n, n) adjacency matrix, with
    C(n, 2), one slot past the last pair, on the diagonal: n * n intp
    entries, the same order of memory as ``_triu_index_arrays``."""
    ii, jj = _triu_index_arrays(n)
    cells = np.full((n, n), len(ii), dtype=np.intp)
    cells[ii, jj] = cells[jj, ii] = np.arange(len(ii))
    cells = cells.reshape(-1)
    cells.flags.writeable = False
    return cells


def _gnp_stride(n: int) -> int:
    """64-bit draws ``_slot_bits`` takes per n-vertex graph: one raw word per
    pair slot, C(n, 2).  Samplers that draw through it declare this as the
    ``stride`` that lets ``map_blocks`` cut their blocks."""
    return comb(n, 2)


def _slot_bits(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Pair-slot bits of ``count`` independent G(n, p) draws: a (count,
    C(n,2) + 1) boolean buffer whose last column, one slot past the last
    pair, is False; the one place G(n, p) bits are drawn.

    Graph t takes raw words t*C(n,2) .. (t+1)*C(n,2)-1 of ``rng`` in
    pair-slot order, as ``count`` one-graph draws would, so splitting a
    block does not change its graphs.  Word w gives the bit of
    ``rng.random() < p``, (w >> 11) 2^-53 < p, exactly when w < ceil(p 2^53)
    << 11; from p = 1 on every bit is set, the words drawn all the same.
    """
    N = _gnp_stride(n)
    bits = np.zeros((count, N + 1), dtype=bool)
    raw = rng.bit_generator.random_raw((count, N))
    if p >= 1.0:
        bits[:, :N] = True
    else:
        np.less(raw, np.uint64(math.ceil(p * 2.0 ** 53) << 11), out=bits[:, :N])
    return bits


def _gnp_adjacency(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Boolean adjacency stack (count, n, n) of independent G(n, p) draws
    from ``_slot_bits``: one gather of the bits through ``_cell_slots``,
    whose diagonal reads the False column past the last slot."""
    return _slot_bits(n, p, rng, count).take(_cell_slots(n), axis=1).reshape(count, n, n)


# ---------------------------------------------------------------------------
# isolated vertices: closed-form moments and jump probabilities


@dataclass(frozen=True)
class IsoMoments:
    """Closed-form moments for the isolated-vertex statistic W and the
    auxiliary counts W1 (degree-one vertices) and E2 (isolated edges)."""

    e_w: float
    e_w2: float
    e_w3: float
    e_w4: float
    e_w1: float
    e_e2: float
    e_w1sq: float
    e_e2sq: float
    e_w1e2: float
    sigma2: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _ISO_MOMENTS}


def iso_moments(n: int, p: float) -> IsoMoments:
    """Moments of (W, W1, E2) for G(n, p), evaluated stably for large n."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    q = lambda k: _qpow(p, k)
    c2, c3, c4 = comb(n, 2), comb(n, 3), comb(n, 4)
    e_w = n * q(n - 1)
    e_w2 = e_w + 2 * c2 * q(2 * n - 3)
    e_w3 = e_w + 6 * c2 * q(2 * n - 3) + 6 * c3 * q(3 * n - 6)
    e_w4 = (
        e_w + 14 * c2 * q(2 * n - 3) + 36 * c3 * q(3 * n - 6) + 24 * c4 * q(4 * n - 10)
    )
    e_w1 = 2 * c2 * p * q(n - 2)
    e_e2 = c2 * p * q(2 * n - 4)
    e_w1sq = e_w1 + 2 * p * c2 * (q(2 * n - 4) + p * (n - 2) ** 2 * q(2 * n - 5))
    e_e2sq = e_e2 + 6 * c4 * p * p * q(4 * n - 12)
    pair_term = (n - 2) * (n - 3) * p * q(n - 4) if n > 3 else 0.0
    e_w1e2 = c2 * p * q(2 * n - 4) * (pair_term + 2.0)
    sigma2 = e_w * (1.0 + (n * p - 1.0) * q(n - 2))
    return IsoMoments(e_w, e_w2, e_w3, e_w4, e_w1, e_e2, e_w1sq, e_e2sq, e_w1e2, sigma2)


def _iso_q_from_counts(n: int, p: float, w, w1, e2, m: int):
    """Exact jump probabilities of the edge-resampling chain for the
    isolated-vertex count, and the closed-form two-step products, from the
    counts (W, W1, E2).  Returns (Q(m), Q(-m), Q(m,m), Q(-m,-m)) for m = 1
    or 2, which the caller has checked.

    Q(1,1) counts ordered pairs of distinct "+1 edges" of the starting graph;
    it can over-count realizable second moves (the first removal may change
    the set of +1 edges in ways the counts W1, E2 do not see), so the
    enumeration oracle is the arbiter for it.  The other two-step forms are
    exact.
    """
    c2 = comb(n, 2)
    w = np.asarray(w, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if m == 1:
        plus_edges = np.asarray(w1, dtype=float) - 2 * e2
        return (
            plus_edges * (1 - p) / c2,
            w * (n - w) * p / c2,
            plus_edges * (plus_edges - 1) * (1 - p) ** 2 / c2 ** 2,
            w * (w - 1) * (n - w + 1) * (n - w) * p * p / c2 ** 2,
        )
    return (
        e2 * (1 - p) / c2,
        w * (w - 1) / 2 * p / c2,
        e2 * (e2 - 1) * (1 - p) ** 2 / c2 ** 2,
        (w * (w - 1) / 2) * ((w - 2) * (w - 3) / 2) * p * p / c2 ** 2,
    )


def _iso_counts(adj: np.ndarray):
    """(W, W1, E2) of every graph in a (count, n, n) adjacency stack."""
    deg = np.count_nonzero(adj, axis=2)
    one = deg == 1
    w = np.count_nonzero(deg == 0, axis=1)
    e2 = np.count_nonzero(adj & one[:, :, None] & one[:, None, :], axis=(1, 2)) // 2
    return w, np.count_nonzero(one, axis=1), e2


def iso_smoothing_bounds(n: int, p: float) -> tuple[float, float, float, float]:
    """Pair-chain smoothness bounds (d1, d2, d12, d22) for the isolated-vertex
    count, assembled purely from closed-form moments (no simulation).

    d1/d2 bound the order-1/order-2 span-1 smoothing terms, d12/d22 the
    span-2 analogues.  The variance ratios follow the moment identities for
    Var Q(+1)/q^2 and Var Q(-1)/q^2; the +-2 two-step differences are exact
    polynomials in the counts.
    """
    mom = iso_moments(n, p)
    c2 = comb(n, 2)
    k_mean = mom.e_w1 - 2 * mom.e_e2        # E[#plus edges] = q1 * C2 / (1-p)
    wn_mean = n * mom.e_w - mom.e_w2        # E[W (n - W)]
    if k_mean <= 0 or wn_mean < 0 or k_mean ** 2 == 0 or wn_mean ** 2 == 0:
        raise DegenerateChain("jump rate for +-1 moves vanishes or its square underflows")
    var_q1_rel = (mom.e_w1sq - 4 * mom.e_w1e2 + 4 * mom.e_e2sq - k_mean ** 2) / k_mean ** 2
    var_qn1_rel = (
        mom.e_w4 - 2 * n * mom.e_w3 + n * n * mom.e_w2 - wn_mean ** 2
    ) / wn_mean ** 2
    d1 = math.sqrt(max(var_q1_rel, 0.0)) + math.sqrt(max(var_qn1_rel, 0.0))
    ediff1_rel = (mom.e_w1 + 2 * mom.e_e2) / k_mean ** 2
    ediffn1_rel = (n + 1) / wn_mean
    d2 = 2 * var_q1_rel + ediff1_rel + 2 * var_qn1_rel + ediffn1_rel

    q2 = mom.e_e2 * (1 - p) / c2
    if q2 <= 0 or q2 ** 2 == 0:
        raise DegenerateChain("jump rate for +-2 moves vanishes or its square underflows")
    var_q2 = (mom.e_e2sq - mom.e_e2 ** 2) * (1 - p) ** 2 / c2 ** 2
    e_cw2 = (mom.e_w2 - mom.e_w) / 2.0      # E C(W,2)
    e_cw2sq = (mom.e_w4 - 2 * mom.e_w3 + mom.e_w2) / 4.0
    var_qn2 = (e_cw2sq - e_cw2 ** 2) * p * p / c2 ** 2
    ediff22 = mom.e_e2 * (1 - p) ** 2 / c2 ** 2
    ediffn2n2 = (2 * mom.e_w3 - 5 * mom.e_w2 + 3 * mom.e_w) * p * p / (2 * c2 ** 2)
    d12 = (math.sqrt(max(var_q2, 0.0)) + math.sqrt(max(var_qn2, 0.0))) / q2
    d22 = (2 * var_q2 + ediff22 + 2 * var_qn2 + ediffn2n2) / q2 ** 2
    return d1, d2, d12, d22


# ---------------------------------------------------------------------------
# triangles


@dataclass(frozen=True)
class TriForms:
    """Closed forms for the triangle statistic: the +1 jump rate, the
    variance of the count and upper bounds for the jump-probability
    variances (grouped covariance sums).  ``ediff_plus/minus`` are not the
    two-step mean differences E|Q(+-1,+-1) - Q(+-1)^2|: Monte Carlo puts
    those 27 to 224 standard errors away (the strict xfail of
    ``test_tri_closed_form_two_step_gap_matches_monte_carlo``)."""

    q1: float
    sigma2: float
    var_q1_bound: float
    var_qneg1_bound: float
    ediff_plus: float
    ediff_minus: float


def tri_closed_forms(n: int, p: float) -> TriForms:
    if n < 3:
        raise InvalidParameter("n must be >= 3")
    if not 0.0 < p < 1.0:
        raise InvalidParameter("p must lie in (0, 1)")
    c2 = comb(n, 2)
    q1 = (n - 2) * p ** 3 * (1 - p) * (1 - p * p) ** (n - 3)
    sigma2 = comb(n, 3) * (p ** 3 * (1 - p ** 3) + 3 * (n - 3) * p ** 5 * (1 - p))

    qq = 1 - p * p
    v25 = (n - 2) / c2 * p ** 4 * (1 - p) * qq ** (n - 3) * (
        1 - p * p * (1 - p) * qq ** (n - 3)
    )
    v26 = 4 * comb(n - 2, 2) / c2 * p ** 5 * (1 - p) ** 2 * (
        (1 - 2 * p * p + p ** 3) ** (n - 4) - p * qq ** (2 * n - 6)
    )
    v27 = 4 * comb(n - 2, 2) / c2 * p ** 5 * (1 - p) ** 2 * qq ** (2 * n - 8) * (
        1 - p - p * qq ** 2
    )
    v28 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * (
        (1 - p) ** (n - 3) * (1 + p - p * p) ** (n - 5) - qq ** (2 * n - 6)
    )
    v29 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 9) * (
        -2 * p + 4 * p * p - 3 * p ** 4 + p ** 6
    )
    poly_tail = 4 * p ** 3 - 7 * p ** 4 + 4 * p ** 6 - p ** 8
    v30 = 3 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 10) * poly_tail
    v31 = 12 * comb(n - 2, 4) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 10) * poly_tail
    var_q1 = v25 + v26 + v27 + v28 + v29 + v30 + v31

    u1 = (n - 2) / c2 * p ** 3 * (1 - p) ** 2 * qq ** (n - 3) * (
        1 - p ** 3 * qq ** (n - 3)
    )
    u2 = 2 * (n - 2) / c2 * p ** 3 * (1 - p) ** 2 * (
        (1 - 2 * p * p + p ** 3) ** (n - 3) - p ** 3 * qq ** (2 * n - 6)
    )
    u3 = 4 * comb(n - 2, 2) / c2 * p ** 5 * (1 - p) ** 2 * (
        (1 - p) * (1 - 2 * p * p + p ** 3) ** (n - 4) - p * qq ** (2 * n - 6)
    )
    u5 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * (
        (1 - p) ** 3 * (1 - 2 * p * p + p ** 3) ** (n - 5) - qq ** (2 * n - 6)
    )
    u6 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 9) * (
        (1 - p) ** 2 - qq ** 3
    )
    # its 4th, 7th and 8th terms are v27, v30 and v31
    var_qn1 = u1 + u2 + u3 + v27 + u5 + u6 + v30 + v31

    ediff_plus = p * q1 / c2
    ediff_minus = (1 - p) * q1 / c2
    return TriForms(q1, sigma2, var_q1, var_qn1, ediff_plus, ediff_minus)


def _tri_q_block(adj: np.ndarray, p: float):
    """(Q(+1), Q(-1), Q(1,1), Q(-1,-1)) of the triangle count for every graph
    in a (count, n, n) adjacency stack.

    A resampled pair changes the count by exactly +-1 precisely when its two
    endpoints have exactly one common neighbour: adding the missing edge
    completes one triangle, removing the present edge destroys one.  The
    common-neighbour counts come from one batched product C = A.A, exact in
    float32; its diagonal holds the degrees, not moves.

    Toggling pair (i, j) changes only C(i, k), by A(j, k), and C(j, k), by
    A(i, k).  Adding it turns a count of 0 into 1 and one of 1 into 2 where
    k ~ j only, so the number of pairs with one common neighbour moves by
    M(i, j) + M(j, i), M = (([C = 0] - [C = 1]) o (1 - A)).A.  Removing it
    turns 2 into 1 and 1 into 0 where k ~ i and k ~ j, a move of
    N(i, j) + N(j, i), N = (([C = 2] - [C = 1]) o A).A, both exact in
    float32.  After each of the k moves of a sign, at rate r, k - 1 + gain
    moves remain, so with G the sum of their gains Q(+-1,+-1) =
    (r / C(n,2))^2 (k (k - 1) + G); k and G are sums of integers, exact in
    float64 in any order.
    """
    n = adj.shape[1]
    c2 = comb(n, 2)
    a = adj.astype(np.float32)
    common = np.matmul(a, a)
    one = (common == 1) & ~np.eye(n, dtype=bool)
    q, two_step_q = [], []
    for r, move, to_one, side in (
        (p, one & ~adj, 0, 1 - a),  # M: a count of 0 becomes 1 where A(i, k) = 0
        (1 - p, one & adj, 2, a),  # N: a count of 2 becomes 1 where A(i, k) = 1
    ):
        k = np.add.reduce(move, axis=(1, 2), dtype=np.float64) / 2  # each pair twice
        change = np.matmul(np.subtract(common == to_one, one, dtype=np.float32) * side, a)
        gains = np.add.reduce(change * move, axis=(1, 2), dtype=np.float64)
        q.append(r * k / c2)
        two_step_q.append((r / c2) ** 2 * (k * (k - 1) + gains))
    return *q, *two_step_q


# ---------------------------------------------------------------------------
# pair models


class ERPairModel(PairModel):
    """Edge-resampling pair model for one G(n, p) statistic.

    ``statistic`` is "isolated" or "triangles".  Isolated-vertex jumps of
    size 1 and 2 carry closed-form two-step evaluators; triangle jumps of
    size 1 carry the exact two-step values of ``_tri_q_block``.
    """

    def __init__(self, n: int, p: float, statistic: str):
        if statistic not in ("isolated", "triangles"):
            raise InvalidParameter("statistic must be 'isolated' or 'triangles'")
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter("p must lie in [0, 1]")
        if statistic == "isolated" and n < 2:
            raise InvalidParameter("n must be >= 2")
        if statistic == "triangles" and n < 3:
            raise InvalidParameter("n must be >= 3")
        if statistic == "triangles" and n > _MAX_Q_EVAL_N:
            raise TooLarge(f"per-graph jump evaluation capped at n = {_MAX_Q_EVAL_N}")
        self.n, self.p, self.statistic = n, p, statistic
        self.stride = _gnp_stride(n)  # q_block draws its graphs by _gnp_adjacency

    def q_block(self, rng: np.random.Generator, count: int, m: int):
        if self.statistic == "isolated" and m not in (1, 2):
            raise InvalidParameter("isolated-vertex jumps support m in {1, 2}")
        if self.statistic == "triangles" and m != 1:
            raise InvalidParameter("triangle jumps support m = 1 only")
        n, p = self.n, self.p
        out = [np.empty(count) for _ in range(4)]
        cells = _CHUNK_CELLS if self.statistic == "isolated" else _TWO_STEP_CELLS
        step = max(1, cells // (n * n))
        for start in range(0, count, step):
            adj = _gnp_adjacency(n, p, rng, min(step, count - start))
            if self.statistic == "isolated":
                vals = _iso_q_from_counts(n, p, *_iso_counts(adj), m)
            else:
                vals = _tri_q_block(adj, p)
            for dst, v in zip(out, vals):
                dst[start:start + len(adj)] = v
        return tuple(out)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle (n <= 7)


def _low_table(n: int, iso: bool):
    """(low, planes, inc, within) of the n-vertex edge masks, bit e for pair
    slot e: ``low``, the masks of the first min(C(n,2), 16) slots in order;
    ``within[S]``, the edges inside the vertex set S; ``inc[2^v]``, the edges
    at vertex v.  Per low mask, ``planes`` holds for "isolated" the vertex
    sets of low degree 0 and 1 (bit v for vertex v), and for triangles, keyed
    by the high slots they need, how many have all their low edges set."""
    ii, jj = _triu_index_arrays(n)
    sets = np.arange(1 << n)[:, None]
    within = ((sets >> ii & sets >> jj & 1) << np.arange(len(ii))).sum(axis=1).astype(np.uint32)
    inc = {1 << v: int(within[-1] ^ within[-1 - (1 << v)]) for v in range(n)}
    low = np.arange(1 << min(len(ii), _LOW_SLOTS), dtype=np.uint32)
    if iso:  # OR the bit planes [deg_v = d] << v over the vertices v
        planes, d = np.zeros((2, len(low)), dtype=np.uint8), np.arange(2)[:, None]
        for bit, edges in inc.items():
            planes |= (np.bitwise_count(low & edges) == d).view(np.uint8) * np.uint8(bit)
        return low, planes, inc, within
    planes = {0: np.zeros(len(low), dtype=np.uint8)}
    for m3 in within[[1 << a | 1 << b | 1 << c for a, b, c in combinations(range(n), 3)]].tolist():
        lo3, hi3 = m3 & (len(low) - 1), m3 >> _LOW_SLOTS
        planes[hi3] = planes.get(hi3, 0) + ((low & lo3) == lo3).view(np.uint8)
    return low, planes, inc, within


def _chunk_counts(table: tuple, h: int) -> tuple:
    """(W, W1, E2), or (T,) from triangle planes, as uint8 arrays over the
    chunk of masks h << 16 | low of ``table`` = ``_low_table(n, iso)``.  A
    vertex is isolated when its low and high degree (a Python int per chunk)
    are 0, of degree one when one is 1 and the other 0; a triangle counts
    through its plane in the chunks that hold all its high edges."""
    low, planes, inc, within = table
    if isinstance(planes, dict):
        return (sum(t for hi3, t in planes.items() if h & hi3 == hi3),)
    high = h << _LOW_SLOTS
    zero, one = (sum(b for b, e in inc.items() if (high & e).bit_count() == d) for d in (0, 1))
    one = (planes[1] & zero) | (planes[0] & one)
    e2 = np.bitwise_count(within.take(one, mode="wrap") & (low | high))
    return np.bitwise_count(planes[0] & zero), np.bitwise_count(one), e2


def _exact_means(tally: np.ndarray, pe: np.ndarray, powers: dict) -> dict:
    """{name: math.fsum((prob * x).tolist())} over every graph, for every
    monomial x = prod(counts[i] ** powers[name][i]).

    ``tally[e, *counts]`` is the number of graphs with e edges and those
    counts, and ``pe[e]`` the weight of one e-edge graph.  Each key's term,
    an integer over a power of two, is brought to the largest denominator:
    the integers sum exactly and one int / int division rounds correctly.
    """
    nonzero = np.nonzero(tally)
    groups = [
        (count, float(pe[e]), vals)
        for count, (e, *vals) in zip(tally[nonzero].tolist(), zip(*(i.tolist() for i in nonzero)))
    ]
    means = {}
    for name, exps in powers.items():
        terms = [
            (count, (pe * math.prod(v ** a for v, a in zip(vals, exps))).as_integer_ratio())
            for count, pe, vals in groups
        ]
        den = max(d for _, (_, d) in terms)
        means[name] = sum(count * num * (den // d) for count, (num, d) in terms) / den
    return means


# moment name -> exponents of (W, W1, E2), or of the triangle count
_ISO_MOMENTS = {
    "e_w": (1, 0, 0), "e_w2": (2, 0, 0), "e_w3": (3, 0, 0), "e_w4": (4, 0, 0),
    "e_w1": (0, 1, 0), "e_e2": (0, 0, 1), "e_w1sq": (0, 2, 0),
    "e_e2sq": (0, 0, 2), "e_w1e2": (0, 1, 1),
}
_TRI_MOMENTS = {"e_t": (1,), "e_t2": (2,), "e_t3": (3,), "e_t4": (4,)}


def _enumeration_tally(n: int, p: float, iso: bool):
    """(tally, weights, pe) over all 2^C(n,2) edge masks (n <= 7), one chunk
    of ``_low_table`` masks per value h of the high pair slots, h in order.

    ``tally[e, W, W1, E2]`` (``tally[e, T]`` when not ``iso``) counts the
    graphs with e edges and those counts, ``weights`` is the law of W (of T)
    summed in mask order, and ``pe[e]`` = p^e (1-p)^(C(n,2)-e) is the weight
    of one e-edge graph; the chunking does not change a bit of any of them.
    A chunk's keys, below 22 * 8^3 at n = 7, are uint16, its counts uint8.
    """
    if n > 7:
        raise TooLarge("enumeration oracle is capped at n = 7")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter("p must lie in [0, 1]")
    E = comb(n, 2)
    e = np.arange(E + 1, dtype=float)
    pe = (p ** e) * ((1 - p) ** (E - e))
    # no count exceeds the empty graph's n isolated vertices or the complete
    # graph's C(n, 3) triangles, so the law's support ends there
    top = n if iso else comb(n, 3)
    tally = np.zeros((E + 1,) + (top + 1,) * (3 if iso else 1), dtype=np.int64)
    weights = np.zeros(top + 1)
    table = _low_table(n, iso)
    e_low = np.bitwise_count(table[0]).astype(np.intp)
    stride_e, *strides = (np.uint16(s // tally.itemsize) for s in tally.strides)
    base = e_low.astype(np.uint16) * stride_e
    index, prob = np.empty_like(e_low), np.empty(len(e_low))  # reused: no fresh pages per chunk
    for h in range((1 << E) // len(e_low)):
        counts = _chunk_counts(table, h)
        keys = base + stride_e * np.uint16(h.bit_count())
        for c, s in zip(counts, strides):
            keys += c * s
        np.copyto(index, keys)
        tally += np.bincount(index, minlength=tally.size).reshape(tally.shape)
        np.copyto(index, counts[0])
        np.add.at(weights, index, np.take(pe[h.bit_count():], e_low, out=prob, mode="wrap"))
    return tally, weights, pe


def enumerate_graphs_oracle(n: int, p: float, statistic: str):
    """Exact law and first four moments of a statistic over every graph on
    n <= 7 vertices, weighted by p^edges * (1-p)^non-edges; for "isolated"
    with the cross moments of (W1, E2) that the closed-form battery covers.
    Returns (LatticeDist, dict of moments)."""
    from .lattice import dist_from_weights

    if statistic not in ("isolated", "triangles"):
        raise InvalidParameter("statistic must be 'isolated' or 'triangles'")
    iso = statistic == "isolated"
    tally, weights, pe = _enumeration_tally(n, p, iso)
    moments = _exact_means(tally, pe, _ISO_MOMENTS if iso else _TRI_MOMENTS)
    return dist_from_weights(0, weights), moments


def iso_exact_pair_stats(n: int, p: float, m: int):
    """Exact pair-chain statistics of jump size m (1 or 2) for the
    isolated-vertex chain (2 <= n <= 7).  The jump values depend on a graph
    only through (W, W1, E2) and its weight only through its edge count, so
    they are taken once per nonzero tally key (115 at n = 7, too few for the
    BLAS thread count to change a sum), weighted by the key's total weight."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    if m not in (1, 2):
        raise InvalidParameter("m must be 1 or 2")
    tally, _, pe = _enumeration_tally(n, p, True)
    e, w, w1, e2 = np.nonzero(tally)
    q = _iso_q_from_counts(n, p, w, w1, e2, m)
    return exact_pair_stats(tally[e, w, w1, e2] * pe[e], *q, m=m)


# ---------------------------------------------------------------------------
# sampling-based rate experiments


def _gap_chunk(slots: int, p: float) -> int:
    """Gaps per geometric draw: mean edges + 10 sd + 16, almost surely past the last slot."""
    return int(slots * p + 10 * math.sqrt(slots * p + 1) + 16)


def _geometric_gaps(p: float, rng: np.random.Generator, size, cap: int) -> np.ndarray:
    """``np.minimum(rng.geometric(p, size), cap)``, from the same draws.

    Below p = 1/3 numpy's geometric is ceil(E / -log1p(-p)) of one standard
    exponential E per gap, taking the log once per gap; here it is taken
    once per call, and the clamp comes before the cast to int64, so a gap
    past int64 never forms.  From p = 1/3 on, numpy searches with uniforms,
    and that path is kept as it is.
    """
    if p >= 0.333333333333333333333333:  # numpy's own threshold literal
        c = rng.geometric(p, size)
        return np.minimum(c, cap, out=c)
    g = rng.standard_exponential(size)
    g /= -math.log1p(-p)
    np.minimum(g, cap, out=g)
    return np.ceil(g, out=g).astype(np.int64)


@lru_cache(maxsize=16)
def _slot_decoder(n: int):
    """(s, b, decode) for the N = C(n, 2) pair slots, slot e at c = e + 1 + s.

    Positions fall in buckets of 2^b, at most about 8n of them, and s = -(N + 1)
    mod 2^b gives c = N + 1 + s, the clamp of every position past the last
    slot, a bucket of its own.  ``decode(c)`` clamps c in place and returns
    (i, j), j in c itself, with (n, n + 1) past the last slot.  table[c >> b]
    is the row of the bucket's first position; a bucket meets at most one end
    of a row of 2^b slots or more, so one step corrects it, and what it
    misses in the last, shorter rows goes to ``searchsorted``.
    """
    N = comb(n, 2)
    b = max(5, n.bit_length() - 4)
    s = -(N + 1) % (1 << b)
    ends = np.append(np.cumsum(np.arange(n - 1, -1, -1)), N + 1) + s  # row i: (ends[i-1], ends[i]]
    rows = np.append(np.arange(n - 1), n).astype(np.int16 if n < 2**15 else np.int32)
    table = np.repeat(rows, np.diff(np.delete(ends, n - 1) >> b, prepend=-1))
    jbase = np.concatenate([[s], ends[:n]]) - np.arange(n + 1)

    def decode(c: np.ndarray):
        np.minimum(c, ends[n], out=c)
        i = c >> b
        i[...] = table[i]
        i += c > ends[i]
        miss = c > ends[i]
        i[miss] = np.searchsorted(ends[:n - 1], c[miss])
        c -= jbase[i]
        return i, c

    return s, b, decode


def _isolated_count_block(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Isolated-vertex counts for `count` independent G(n, p) draws.

    Geometric gap skipping over the C(n, 2) pair slots (an exact Bernoulli
    process) does O(edges) work per replicate and never builds the graph.
    A replicate draws ``_gap_chunk`` gaps at a time until it passes the last
    slot; k replicates take their first draws as one (k, chunk) array of
    ``_geometric_gaps``, the same stream (below p = 1/3 one standard
    exponential fill, divided by a log taken once), and are decoded,
    scattered and counted at once.  A sub-chunk holds about
    ``_ISO_POSITIONS`` gaps.  Gaps are clamped at C(n, 2) + 1, past the last
    slot: no sum overflows at tiny p.
    """
    if p in (0.0, 1.0):
        return np.full(count, n if p == 0.0 else 0, dtype=np.int64)
    N = comb(n, 2)
    chunk = _gap_chunk(N, p)
    s, _, decode = _slot_decoder(n)

    def positions(k: int, first: int) -> np.ndarray:
        c = _geometric_gaps(p, rng, (k, chunk), N + 1)
        c[:, 0] += first
        return np.cumsum(c, axis=1, out=c)

    out = np.empty(count, dtype=np.int64)
    t = 0
    while t < count:
        k = min(max(1, _ISO_POSITIONS // chunk), count - t)
        state = rng.bit_generator.state
        c = positions(k, s)
        short = np.flatnonzero(c[:, -1] < N + s)
        if short.size:  # redraw up to the first short row; that row draws on alone
            rng.bit_generator.state = state
            k = max(1, int(short[0]))
            c = positions(k, s)
            while c[-1, -1] < N + s:
                c = np.concatenate([c, positions(1, c[0, -1])], axis=1)
        touched = np.zeros((k, n + 2), dtype=bool)
        for v in decode(c):  # row offsets into the flat array, then one scatter
            v += np.arange(0, touched.size, n + 2)[:, None]
            touched.reshape(-1)[v] = True
        out[t:t + k] = n - np.count_nonzero(touched[:, :n], axis=1)
        t += k
    return out


@lru_cache(maxsize=16)
def _upper_row_words(n: int):
    """(words, q, shift, mask) that read the upper rows of an n-vertex graph
    from its slot bits, packed little-order into ``words`` uint64 words.  Row
    i's pairs (i, j), j > i, are the slots from (i, i + 1) on: column j is bit
    b_i + j - 1, b_i = slot(i, i + 1) - i >= 0, its word w (columns 64w + 1 ..
    64w + 64) starts at bit 64q + shift, and ``mask`` keeps i < j < n."""
    i = np.arange(n)[:, None]
    start = i * n - i * (i + 1) // 2 - i + 64 * np.arange((n + 62) // 64)
    col = start[:1, :, None] + np.arange(1, 65)  # j of each bit: row 0's word w is at 64w
    mask = np.packbits((col > i[:, :, None]) & (col < n), axis=2, bitorder="little")
    tables = start >> 6, (start & 63).astype(np.uint64), mask.view(np.uint64)[..., 0]
    for table in tables:
        table.flags.writeable = False
    return comb(n, 2) // 64 + 2, *tables


def _triangle_count_block(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Triangle counts for `count` independent G(n, p) draws.

    Sub-chunks of graphs are drawn by ``_slot_bits`` and packed by one
    ``packbits``; ``_upper_row_words`` reads every upper row U_i (the
    neighbours j > i) from the packed words.  Every present edge (i, j),
    i < j, adds popcount(U_i & U_j), its common neighbours k > j, to its
    graph's total, which sees each triangle once, at its two lowest vertices.
    """
    out = np.empty(count, dtype=np.int64)
    ii, jj = _triu_index_arrays(n)
    n_words, q, shift, mask = _upper_row_words(n)
    step = max(1, _SAMPLE_CELLS // max(1, n * n))
    for start in range(0, count, step):
        k = min(step, count - start)
        bits = _slot_bits(n, p, rng, k)
        f = np.flatnonzero(bits)
        g = f // bits.shape[1]
        e = f - g * bits.shape[1]
        words = np.zeros((k, n_words), dtype=np.uint64)
        packed = np.packbits(bits, axis=1, bitorder="little")
        words.view(np.uint8)[:, :packed.shape[1]] = packed
        upper = ((words[:, q] >> shift | words[:, q + 1] << (64 - shift)) & mask).reshape(k * n, -1)
        row = g * n
        common = np.bitwise_count(upper[row + ii[e]] & upper[row + jj[e]]).sum(axis=1)
        out[start:start + k] = np.bincount(g, weights=common, minlength=k)
    return out


ER_ISO_COLUMNS = [
    "n", "p", "sigma", "dloc", "dloc2", "dtv", "dk", "pmf_se_max",
    "d1_bound", "d2_bound", "d12_bound", "d22_bound",
]
ER_TRI_COLUMNS = ER_ISO_COLUMNS[:-2]


def _tri_bound_columns(forms: TriForms) -> tuple[float, float]:
    """(d1, d2) of the pair chain from the triangle closed forms; nan where
    a bound is undefined.

    The covariance sums bound variances from above, so they are
    non-negative up to rounding; should one still come out negative, both
    bounds are reported as undefined rather than fabricated.
    """
    if forms.var_q1_bound < 0 or forms.var_qneg1_bound < 0:
        return math.nan, math.nan
    stats = PairChainStats(
        1, forms.q1, forms.var_q1_bound, forms.var_qneg1_bound,
        forms.ediff_plus, forms.ediff_minus, replicates=0,
    )
    cols = []
    for bound in (pair_bound_d1, pair_bound_d2):
        try:
            cols.append(bound(stats))
        except DegenerateChain:  # the jump rate or its square is 0.0
            cols.append(math.nan)
    return tuple(cols)


def _p_checked(rows):
    """The (n, p) rows once every p lies in [0, 1]: a generator, so the check
    runs after rate_table's replicates check and before any closed form."""
    if not all(0.0 <= p <= 1.0 for _, p in rows):
        raise InvalidParameter("p must lie in [0, 1]")
    yield from rows


def er_rate_experiment(statistic: str, rows, replicates: int, seed: int) -> RateTable:
    """Monte Carlo law of a G(n, p) statistic against its translated-Poisson
    target, with the closed-form smoothness bounds alongside.

    ``rows`` is a sequence of (n, p) pairs; the TP target uses the
    closed-form mean and variance of the statistic.  Emits the local metric,
    its span-2 variant, total variation and Kolmogorov columns plus the
    worst per-point Monte Carlo standard error of the empirical pmf.
    """
    from .lattice import empirical_dist
    from .report import rate_table

    if statistic not in ("isolated", "triangles"):
        raise InvalidParameter("statistic must be 'isolated' or 'triangles'")

    def point(row):  # closed forms first: they reject n and p before any draw
        n, p = int(row[0]), row[1]
        if statistic == "isolated":
            mom = iso_moments(n, p)
            mu, s2 = mom.e_w, mom.sigma2
            bound_cols = iso_smoothing_bounds(n, p)

            def block(start, count, rng):
                return _isolated_count_block(n, p, rng, count)
        else:
            forms = tri_closed_forms(n, p)
            mu, s2 = comb(n, 3) * p ** 3, forms.sigma2
            bound_cols = _tri_bound_columns(forms)

            def block(start, count, rng):
                return _triangle_count_block(n, p, rng, count)

            block.stride = _gnp_stride(n)  # its graphs come from _slot_bits
        emp = empirical_dist(np.concatenate(map_blocks(block, seed, replicates)))
        bounds = dict(zip(ER_ISO_COLUMNS[-4:], bound_cols))
        return emp, mu, s2, {"n": n, "p": p, "sigma": math.sqrt(s2), **bounds}

    cols = ER_ISO_COLUMNS if statistic == "isolated" else ER_TRI_COLUMNS
    metadata = {"experiment": f"er_{statistic}", "replicates": replicates, "seed": seed}
    return rate_table(cols, metadata, _p_checked(rows), point, replicates)
