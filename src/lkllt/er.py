"""G(n, p) random graph statistics, exact chain-jump evaluators and bounds.

Covers the two statistics whose local behaviour the experiments probe:
isolated-vertex counts and triangle counts.  The edge-resampling chain
(pick a uniform vertex pair, redraw the edge indicator) is reversible for
G(n, p); its jump probabilities are exact functions of a few graph counts,
which keeps the pair-chain bounds free of nested simulation.

Single graphs are stored as bit-packed adjacency rows (uint64 words).  The
pair-chain evaluators take whole blocks of graphs as boolean adjacency
stacks of shape (count, n, n), so degree, isolated-edge and common-neighbour
counts are array reductions over the block rather than Python loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DegenerateChain, InvalidParameter, TooLarge
from .lattice import LatticeDist, dist_from_weights
from .metrics import KOLMOGOROV, LOCAL, TOTAL_VARIATION, distance, local_span
from .report import RateTable
from .rngutil import block_rng, map_blocks
from .smoothing import PairModel, exact_pair_stats
from .tp import tp_dist, tp_params

_MAX_Q_EVAL_N = 512  # per-graph jump evaluation beyond this uses moment-only paths
_MAX_TWO_STEP_N = 64  # two-step triangle evaluation costs O(n^3) per graph
_CHUNK_CELLS = 1 << 18  # adjacency cells per evaluation sub-chunk: a few MB of temporaries
_SAMPLE_CELLS = _CHUNK_CELLS // 4  # per triangle-count sub-chunk: about 1 MB of temporaries


def _qpow(p: float, k: float) -> float:
    """(1-p)^k, stable for tiny p and large k; k may be negative for p < 1."""
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log1p(-p))


# ---------------------------------------------------------------------------
# graph representation


@dataclass(frozen=True)
class GraphState:
    """Simple undirected graph on {0..n-1} with bit-packed adjacency rows."""

    n: int
    words: np.ndarray  # (n, ceil(n/64)) uint64, symmetric, no self-loops

    def degree(self) -> np.ndarray:
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.words[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.words).sum()) // 2


def _pack(adj: np.ndarray) -> np.ndarray:
    """Bit-pack the rows of an (..., n, n) adjacency array into uint64 words."""
    n = adj.shape[-1]
    buf = np.zeros(adj.shape[:-1] + (-(-n // 64) * 64,), dtype=bool)
    buf[..., :n] = adj
    return np.packbits(buf, axis=-1, bitorder="little").view(np.uint64)


def graph_from_edges(n: int, edges) -> GraphState:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i == j:
            raise InvalidParameter("self-loops are not allowed")
        adj[i, j] = adj[j, i] = True
    return GraphState(n, _pack(adj))


@lru_cache(maxsize=16)
def _triu_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.triu_indices(n, 1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _gnp_block(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Boolean adjacency stack (count, n, n) of independent G(n, p) draws.

    Graph t takes uniforms t*C(n,2) .. (t+1)*C(n,2)-1 of ``rng`` in pair-slot
    order, exactly what ``count`` successive one-graph draws consume.
    """
    ii, jj = _triu_index_arrays(n)
    adj = np.zeros((count, n, n), dtype=bool)
    adj[:, ii, jj] = rng.random((count, len(ii))) < p
    adj |= adj.transpose(0, 2, 1)
    return adj


def _gnp(n: int, p: float, rng: np.random.Generator) -> GraphState:
    return GraphState(n, _pack(_gnp_block(n, p, rng, 1)[0]))


def gnp_sample(n: int, p: float, seed: int) -> GraphState:
    """One G(n, p) draw; each vertex pair carries an edge with probability p."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter("p must lie in [0, 1]")
    return _gnp(n, p, block_rng(seed, 0))


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class GraphStats:
    w_isolated: int  # vertices of degree 0
    w1: int          # vertices of degree 1
    e2: int          # isolated edges (both endpoints of degree 1)
    triangles: int


def graph_stats(G: GraphState) -> GraphStats:
    deg = G.degree()
    w0 = int((deg == 0).sum())
    w1_idx = np.flatnonzero(deg == 1)
    e2 = 0
    for i in w1_idx:
        row = G.words[i]
        widx = int(np.flatnonzero(row)[0])
        j = widx * 64 + int(row[widx]).bit_length() - 1
        if deg[j] == 1:
            e2 += 1
    e2 //= 2
    ii, jj = _triu_index_arrays(G.n)
    adj = _unpack(G)
    sel = adj[ii, jj]
    common = np.bitwise_count(G.words[ii[sel]] & G.words[jj[sel]]).sum()
    return GraphStats(w0, len(w1_idx), e2, int(common) // 3)


def _unpack(G: GraphState) -> np.ndarray:
    raw = np.unpackbits(G.words.view(np.uint8), axis=1, bitorder="little")
    return raw[:, : G.n].astype(bool)


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
        return {
            "e_w": self.e_w, "e_w2": self.e_w2, "e_w3": self.e_w3,
            "e_w4": self.e_w4, "e_w1": self.e_w1, "e_e2": self.e_e2,
            "e_w1sq": self.e_w1sq, "e_e2sq": self.e_e2sq, "e_w1e2": self.e_w1e2,
        }


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


@dataclass(frozen=True)
class IsoQ:
    """Exact one-step jump probabilities of the edge-resampling chain for the
    isolated-vertex count, plus the closed-form two-step products.

    The two-step value q11 counts ordered pairs of distinct "+1 edges" of the
    starting graph; it can over-count realizable second moves (the first
    removal may change the set of +1 edges in ways the counts W1, E2 do not
    see), so the enumeration oracle is the arbiter for it.  The remaining
    two-step forms are exact.
    """

    q1: float
    q_neg1: float
    q2: float
    q_neg2: float
    q11: float
    q_neg1_neg1: float
    q22: float
    q_neg2_neg2: float


def _iso_q_from_counts(n: int, p: float, w, w1, e2):
    c2 = comb(n, 2)
    w = np.asarray(w, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    plus_edges = w1 - 2 * e2
    q1 = plus_edges * (1 - p) / c2
    qn1 = w * (n - w) * p / c2
    q2 = e2 * (1 - p) / c2
    qn2 = w * (w - 1) / 2 * p / c2
    q11 = plus_edges * (plus_edges - 1) * (1 - p) ** 2 / c2 ** 2
    qn1n1 = w * (w - 1) * (n - w + 1) * (n - w) * p * p / c2 ** 2
    q22 = e2 * (e2 - 1) * (1 - p) ** 2 / c2 ** 2
    qn2n2 = (w * (w - 1) / 2) * ((w - 2) * (w - 3) / 2) * p * p / c2 ** 2
    return q1, qn1, q2, qn2, q11, qn1n1, q22, qn2n2


def _iso_counts(adj: np.ndarray):
    """(W, W1, E2) of every graph in a (count, n, n) adjacency stack."""
    deg = np.count_nonzero(adj, axis=2)
    one = deg == 1
    w = np.count_nonzero(deg == 0, axis=1)
    e2 = np.count_nonzero(adj & one[:, :, None] & one[:, None, :], axis=(1, 2)) // 2
    return w, np.count_nonzero(one, axis=1), e2


def iso_q(G: GraphState, p: float) -> IsoQ:
    vals = _iso_q_from_counts(G.n, p, *_iso_counts(_unpack(G)[None]))
    return IsoQ(*(float(v[0]) for v in vals))


def iso_q11_two_step(G: GraphState, p: float) -> float:
    """True two-step probability of two consecutive +1 moves, by enumerating
    the first move and applying the exact one-step formula to each result."""
    deg = G.degree()
    adj = _unpack(G)
    c2 = comb(G.n, 2)
    total = 0.0
    ii, jj = np.nonzero(np.triu(adj, 1))
    for i, j in zip(ii, jj):
        if (deg[i] == 1) != (deg[j] == 1):
            adj2 = adj.copy()
            adj2[i, j] = adj2[j, i] = False
            s = graph_stats(GraphState(G.n, _pack(adj2)))
            q1_next = (s.w1 - 2 * s.e2) * (1 - p) / c2
            total += (1 - p) / c2 * q1_next
    return total


@dataclass(frozen=True)
class IsoBounds:
    d1_bound: float
    d2_bound: float
    d12_bound: float
    d22_bound: float


def iso_smoothing_bounds(n: int, p: float) -> IsoBounds:
    """Pair-chain smoothness bounds for the isolated-vertex count, assembled
    purely from closed-form moments (no simulation).

    d1/d2 bound the order-1/order-2 span-1 smoothing terms, d12/d22 the
    span-2 analogues.  The variance ratios follow the moment identities for
    Var Q(+1)/q^2 and Var Q(-1)/q^2; the +-2 two-step differences are exact
    polynomials in the counts.
    """
    mom = iso_moments(n, p)
    c2 = comb(n, 2)
    k_mean = mom.e_w1 - 2 * mom.e_e2        # E[#plus edges] = q1 * C2 / (1-p)
    wn_mean = n * mom.e_w - mom.e_w2        # E[W (n - W)]
    if k_mean <= 0 or wn_mean < 0:
        raise DegenerateChain("jump rate for +-1 moves vanishes")
    var_q1_rel = (mom.e_w1sq - 4 * mom.e_w1e2 + 4 * mom.e_e2sq - k_mean ** 2) / k_mean ** 2
    var_qn1_rel = (
        mom.e_w4 - 2 * n * mom.e_w3 + n * n * mom.e_w2 - wn_mean ** 2
    ) / wn_mean ** 2
    d1 = math.sqrt(max(var_q1_rel, 0.0)) + math.sqrt(max(var_qn1_rel, 0.0))
    ediff1_rel = (mom.e_w1 + 2 * mom.e_e2) / k_mean ** 2
    ediffn1_rel = (n + 1) / wn_mean
    d2 = 2 * var_q1_rel + ediff1_rel + 2 * var_qn1_rel + ediffn1_rel

    q2 = mom.e_e2 * (1 - p) / c2
    if q2 <= 0:
        raise DegenerateChain("jump rate for +-2 moves vanishes")
    var_q2 = (mom.e_e2sq - mom.e_e2 ** 2) * (1 - p) ** 2 / c2 ** 2
    e_cw2 = (mom.e_w2 - mom.e_w) / 2.0      # E C(W,2)
    e_cw2sq = (mom.e_w4 - 2 * mom.e_w3 + mom.e_w2) / 4.0
    var_qn2 = (e_cw2sq - e_cw2 ** 2) * p * p / c2 ** 2
    ediff22 = mom.e_e2 * (1 - p) ** 2 / c2 ** 2
    ediffn2n2 = (2 * mom.e_w3 - 5 * mom.e_w2 + 3 * mom.e_w) * p * p / (2 * c2 ** 2)
    d12 = (math.sqrt(max(var_q2, 0.0)) + math.sqrt(max(var_qn2, 0.0))) / q2
    d22 = (2 * var_q2 + ediff22 + 2 * var_qn2 + ediffn2n2) / q2 ** 2
    return IsoBounds(d1, d2, d12, d22)


# ---------------------------------------------------------------------------
# triangles


@dataclass(frozen=True)
class TriForms:
    """Closed forms for the triangle statistic: the +1 jump rate, the
    variance of the count, upper bounds for the jump-probability variances
    (grouped covariance sums) and the exact two-step mean differences."""

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
    q = lambda k: _qpow(p, k)
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
    u4 = 4 * comb(n - 2, 2) / c2 * p ** 5 * (1 - p) ** 2 * qq ** (2 * n - 8) * (
        1 - p - p * qq ** 2
    )
    u5 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * (
        (1 - p) ** 3 * (1 - 2 * p * p + p ** 3) ** (n - 5) - qq ** (2 * n - 6)
    )
    u6 = 12 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 9) * (
        (1 - p) ** 2 - qq ** 3
    )
    u7 = 3 * comb(n - 2, 3) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 10) * poly_tail
    u8 = 12 * comb(n - 2, 4) / c2 * p ** 6 * (1 - p) ** 2 * qq ** (2 * n - 10) * poly_tail
    var_qn1 = u1 + u2 + u3 + u4 + u5 + u6 + u7 + u8

    ediff_plus = p * q1 / c2
    ediff_minus = (1 - p) * q1 / c2
    return TriForms(q1, sigma2, var_q1, var_qn1, ediff_plus, ediff_minus)


def _check_tri_size(n: int, two_step: bool) -> None:
    if n < 3:
        raise InvalidParameter("n must be >= 3")
    if n > _MAX_Q_EVAL_N:
        raise TooLarge(f"per-graph jump evaluation capped at n = {_MAX_Q_EVAL_N}")
    if two_step and n > _MAX_TWO_STEP_N:
        raise TooLarge(f"two-step triangle enumeration capped at n = {_MAX_TWO_STEP_N}")


def _tri_q_block(adj: np.ndarray, p: float, two_step: bool):
    """(Q(+1), Q(-1), Q(1,1), Q(-1,-1)) of the triangle count for every graph
    in a (count, n, n) adjacency stack; the two-step arrays are None unless
    ``two_step`` is set.

    A resampled pair changes the count by exactly +-1 precisely when its two
    endpoints have exactly one common neighbour: adding the missing edge
    completes one triangle, removing the present edge destroys one.  The
    common-neighbour counts come from one batched product A.A (float32 holds
    these integers, at most n - 2, exactly).

    The two-step values enumerate the first move over the pair slots in
    upper-triangle order.  Toggling pair (i, j) changes only common(i, k), by
    adj(j, k), and common(j, k), by adj(i, k), so the one-step count after the
    move follows from two rows.  The terms are added per graph in slot
    order, the order of a sum over that graph's candidate moves.
    """
    n = adj.shape[1]
    c2 = comb(n, 2)
    a = adj.astype(np.float32)
    common = np.matmul(a, a)
    del a
    ii, jj = _triu_index_arrays(n)
    one = common[:, ii, jj] == 1
    present = adj[:, ii, jj]
    up = one & ~present
    down = one & present
    n_up = np.count_nonzero(up, axis=1)
    n_down = np.count_nonzero(down, axis=1)
    qp = p * n_up / c2
    qm = (1 - p) * n_down / c2
    if not two_step:
        return qp, qm, None, None
    eq0, eq1, eq2 = common == 0, common == 1, common == 2
    del common, one, present
    qpp = np.zeros(len(adj))
    qmm = np.zeros(len(adj))
    for t, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        add, remove = up[:, t], down[:, t]
        ai, aj = adj[:, i], adj[:, j]
        if add.any():
            # adding (i, j): common(i, k) += 1 where k ~ j only, and vice versa;
            # a count of 0 becomes 1, a count of 1 leaves 1
            only_j, only_i = aj & ~ai, ai & ~aj
            gain = (
                np.count_nonzero(only_j & eq0[:, i], axis=1)
                + np.count_nonzero(only_i & eq0[:, j], axis=1)
                - np.count_nonzero(only_j & eq1[:, i], axis=1)
                - np.count_nonzero(only_i & eq1[:, j], axis=1)
            )
            q1_next = p * (n_up - 1 + gain) / c2
            qpp += np.where(add, p / c2 * q1_next, 0.0)
        if remove.any():
            # removing (i, j): common(i, k) and common(j, k) drop by 1 where
            # k ~ i and k ~ j; a count of 2 becomes 1, a count of 1 leaves 1
            both = ai & aj
            gain = (
                np.count_nonzero(both & eq2[:, i], axis=1)
                + np.count_nonzero(both & eq2[:, j], axis=1)
                - np.count_nonzero(both & eq1[:, i], axis=1)
                - np.count_nonzero(both & eq1[:, j], axis=1)
            )
            qn1_next = (1 - p) * (n_down - 1 + gain) / c2
            qmm += np.where(remove, (1 - p) / c2 * qn1_next, 0.0)
    return qp, qm, qpp, qmm


def tri_q(G: GraphState, p: float) -> tuple[float, float]:
    """Exact (Q(+1), Q(-1)) for the triangle count of one graph."""
    _check_tri_size(G.n, False)
    qp, qm, _, _ = _tri_q_block(_unpack(G)[None], p, False)
    return float(qp[0]), float(qm[0])


def tri_q11_two_step(G: GraphState, p: float) -> float:
    """Exact two-step probability of two consecutive +1 triangle moves."""
    _check_tri_size(G.n, True)
    return float(_tri_q_block(_unpack(G)[None], p, True)[2][0])


# ---------------------------------------------------------------------------
# pair models


class ERPairModel(PairModel):
    """Edge-resampling pair model for one G(n, p) statistic.

    ``statistic`` is "isolated" or "triangles".  Isolated-vertex jumps of
    size 1 and 2 carry closed-form two-step evaluators; triangle jumps of
    size 1 use the exact two-step enumeration when ``two_step`` is set
    (n <= 64; the default sets it for n <= 16).
    """

    def __init__(self, n: int, p: float, statistic: str, two_step: bool | None = None):
        if statistic not in ("isolated", "triangles"):
            raise InvalidParameter("statistic must be 'isolated' or 'triangles'")
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter("p must lie in [0, 1]")
        if two_step is None:
            two_step = statistic == "isolated" or n <= 16
        if statistic == "isolated" and n < 2:
            raise InvalidParameter("n must be >= 2")
        if statistic == "triangles":
            _check_tri_size(n, two_step)
        self.n, self.p, self.statistic = n, p, statistic
        self.two_step = two_step

    def q_block(self, rng: np.random.Generator, count: int, m: int):
        if self.statistic == "isolated" and m not in (1, 2):
            raise InvalidParameter("isolated-vertex jumps support m in {1, 2}")
        if self.statistic == "triangles" and m != 1:
            raise InvalidParameter("triangle jumps support m = 1 only")
        n, p = self.n, self.p
        out = [np.empty(count) for _ in range(4 if self.two_step else 2)]
        step = max(1, _CHUNK_CELLS // (n * n))
        for start in range(0, count, step):
            adj = _gnp_block(n, p, rng, min(step, count - start))
            if self.statistic == "isolated":
                q = _iso_q_from_counts(n, p, *_iso_counts(adj))
                k = 2 * (m - 1)
                vals = (q[k], q[k + 1], q[k + 4], q[k + 5])
            else:
                vals = _tri_q_block(adj, p, self.two_step)
            for dst, v in zip(out, vals):
                dst[start:start + len(adj)] = v
        return tuple(out) if self.two_step else (*out, None, None)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle (n <= 7)


def _edge_index_map(n: int):
    ii, jj = _triu_index_arrays(n)
    return list(zip(ii.tolist(), jj.tolist()))


def _enumerate_graphs(n: int, p: float):
    """Every edge mask on n vertices, its edge count and its G(n, p) weight."""
    E = comb(n, 2)
    masks = np.arange(1 << E, dtype=np.uint32)
    e_count = np.bitwise_count(masks)
    prob = (p ** e_count.astype(float)) * ((1 - p) ** (E - e_count).astype(float))
    return masks, e_count, prob


def _enumerated_iso_counts(n: int, masks: np.ndarray):
    """(W, W1, E2) of every graph in an array of edge masks."""
    edges = _edge_index_map(n)
    bits = [((masks >> e) & 1).astype(bool) for e in range(len(edges))]
    deg = np.zeros((n, len(masks)), dtype=np.int8)
    for b, (i, j) in zip(bits, edges):
        deg[i] += b
        deg[j] += b
    e2 = np.zeros(len(masks), dtype=np.int64)
    for b, (i, j) in zip(bits, edges):
        e2 += b & (deg[i] == 1) & (deg[j] == 1)
    return (deg == 0).sum(axis=0), (deg == 1).sum(axis=0), e2


def _enumerated_triangles(n: int, masks: np.ndarray) -> np.ndarray:
    """Triangle count of every graph in an array of edge masks."""
    eidx = {pair: e for e, pair in enumerate(_edge_index_map(n))}
    tri = np.zeros(len(masks), dtype=np.int64)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                m3 = np.uint32((1 << eidx[(a, b)]) | (1 << eidx[(a, c)]) | (1 << eidx[(b, c)]))
                tri += (masks & m3) == m3
    return tri


def _exact_means(e_count: np.ndarray, prob: np.ndarray, counts, powers: dict) -> dict:
    """{name: math.fsum((prob * x).tolist())} for every monomial
    x = prod(counts[i] ** powers[name][i]).

    ``counts`` are small nonnegative integer arrays.  The weight of a graph
    depends only on its edge count e, so the terms take few distinct values:
    each is tallied once per (e, *counts) key, the tallies are summed exactly
    as fractions and the sum is rounded once, which is the correctly rounded
    value math.fsum returns, without a Python float per graph.
    """
    dims = tuple(int(x.max()) + 1 for x in (e_count, *counts))
    keys = np.ravel_multi_index((e_count, *counts), dims)
    tally = np.bincount(keys, minlength=math.prod(dims)).reshape(dims)
    nonzero = np.nonzero(tally)
    # the mask 2^e - 1 has e edges, so its weight is that of every e-edge graph
    groups = [
        (count, float(prob[(1 << e) - 1]), vals)
        for count, (e, *vals) in zip(tally[nonzero].tolist(), zip(*(i.tolist() for i in nonzero)))
    ]
    return {
        name: float(sum(
            count * Fraction(pe * math.prod(v ** a for v, a in zip(vals, exps)))
            for count, pe, vals in groups
        ))
        for name, exps in powers.items()
    }


# moment name -> exponents of (W, W1, E2), or of the triangle count
_ISO_MOMENTS = {
    "e_w": (1, 0, 0), "e_w2": (2, 0, 0), "e_w3": (3, 0, 0), "e_w4": (4, 0, 0),
    "e_w1": (0, 1, 0), "e_e2": (0, 0, 1), "e_w1sq": (0, 2, 0),
    "e_e2sq": (0, 0, 2), "e_w1e2": (0, 1, 1),
}
_TRI_MOMENTS = {"e_t": (1,), "e_t2": (2,), "e_t3": (3,), "e_t4": (4,)}


def enumerate_graphs_oracle(n: int, p: float, statistic: str):
    """Exact law and first four moments of a statistic by full enumeration.

    Iterates all 2^C(n,2) edge configurations (n <= 7), weighting each by
    p^edges * (1-p)^non-edges.  For "isolated" the cross moments of the
    auxiliary counts (W1, E2) are included, since the closed-form moment
    battery covers them.  Returns (LatticeDist, dict of moments).
    """
    if n > 7:
        raise TooLarge("enumeration oracle is capped at n = 7")
    if statistic not in ("isolated", "triangles"):
        raise InvalidParameter("statistic must be 'isolated' or 'triangles'")
    masks, e_count, prob = _enumerate_graphs(n, p)
    if statistic == "isolated":
        counts = _enumerated_iso_counts(n, masks)
        moments = _exact_means(e_count, prob, counts, _ISO_MOMENTS)
    else:
        counts = (_enumerated_triangles(n, masks),)
        moments = _exact_means(e_count, prob, counts, _TRI_MOMENTS)
    weights = np.bincount(counts[0], weights=prob)
    return dist_from_weights(0, weights), moments


def iso_exact_pair_stats(n: int, p: float, m: int):
    """Exact pair-chain statistics for the isolated-vertex chain (n <= 7),
    computed by weighting the closed-form jump evaluators over all graphs."""
    if n > 7:
        raise TooLarge("exact pair statistics are capped at n = 7")
    masks, _, prob = _enumerate_graphs(n, p)
    q1, qn1, q2, qn2, q11, qn1n1, q22, qn2n2 = _iso_q_from_counts(
        n, p, *_enumerated_iso_counts(n, masks)
    )
    if m == 1:
        return exact_pair_stats(prob, q1, qn1, q11, qn1n1, m=1)
    if m == 2:
        return exact_pair_stats(prob, q2, qn2, q22, qn2n2, m=2)
    raise InvalidParameter("m must be 1 or 2")


# ---------------------------------------------------------------------------
# sampling-based rate experiments


def _pair_row_starts(n: int) -> np.ndarray:
    sizes = np.arange(n - 1, 0, -1)
    return np.concatenate([[0], np.cumsum(sizes)])


def _decode_pairs(idx: np.ndarray, n: int, starts: np.ndarray):
    i = np.searchsorted(starts, idx, side="right") - 1
    j = idx - starts[i] + i + 1
    return i, j


def _isolated_count_block(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Isolated-vertex counts for `count` independent G(n, p) draws.

    The edge set is generated by geometric gap skipping over the C(n, 2)
    pair slots (exact Bernoulli process), so only O(edges) work is done per
    replicate; the graph itself is never materialized.
    """
    N = comb(n, 2)
    starts = _pair_row_starts(n)
    out = np.empty(count, dtype=np.int64)
    if p == 0.0:
        out.fill(n)
        return out
    if p == 1.0:
        out.fill(0)
        return out
    exp_edges = N * p
    chunk = int(exp_edges + 10 * math.sqrt(exp_edges + 1) + 16)
    touched = np.empty(n, dtype=bool)
    for t in range(count):
        positions = np.cumsum(rng.geometric(p, size=chunk)) - 1
        while positions.size == 0 or positions[-1] < N - 1:
            extra = np.cumsum(rng.geometric(p, size=chunk)) - 1
            base = positions[-1] + 1 if positions.size else 0
            positions = np.concatenate([positions, base + extra])
        edges = positions[positions < N]
        if edges.size == 0:
            out[t] = n
            continue
        i, j = _decode_pairs(edges, n, starts)
        touched.fill(False)
        touched[i] = touched[j] = True
        out[t] = n - np.count_nonzero(touched)
    return out


def _triangle_count_block(n: int, p: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Triangle counts for `count` independent G(n, p) draws.

    Sub-chunks of graphs are drawn by ``_gnp_block`` and bit-packed; every
    present edge (i, j) adds popcount(row i & row j), its number of common
    neighbours, to its graph's total, which sees each triangle once per edge.
    """
    out = np.empty(count, dtype=np.int64)
    ii, jj = _triu_index_arrays(n)
    step = max(1, _SAMPLE_CELLS // max(1, n * n))
    for start in range(0, count, step):
        adj = _gnp_block(n, p, rng, min(step, count - start))
        g, e = np.divmod(np.flatnonzero(adj[:, ii, jj]), len(ii))
        words = _pack(adj)
        common = np.bitwise_count(words[g, ii[e]] & words[g, jj[e]]).sum(axis=1)
        tri = np.bincount(g, weights=common, minlength=len(adj)).astype(np.int64) // 3
        out[start:start + len(adj)] = tri
    return out


def empirical_dist(values: np.ndarray) -> LatticeDist:
    lo = int(values.min())
    weights = np.bincount(values - lo)
    return dist_from_weights(lo, weights)


ER_ISO_COLUMNS = [
    "n", "p", "sigma", "dloc", "dloc2", "dtv", "dk", "pmf_se_max",
    "d1_bound", "d2_bound", "d12_bound", "d22_bound",
]
ER_TRI_COLUMNS = [
    "n", "p", "sigma", "dloc", "dloc2", "dtv", "dk", "pmf_se_max",
    "d1_bound", "d2_bound",
]


def er_rate_experiment(statistic: str, rows, replicates: int, seed: int) -> RateTable:
    """Monte Carlo law of a G(n, p) statistic against its translated-Poisson
    target, with the closed-form smoothness bounds alongside.

    ``rows`` is a sequence of (n, p) pairs; the TP target uses the
    closed-form mean and variance of the statistic.  Emits the local metric,
    its span-2 variant, total variation and Kolmogorov columns plus the
    worst per-point Monte Carlo standard error of the empirical pmf.
    """
    if statistic not in ("isolated", "triangles"):
        raise InvalidParameter("statistic must be 'isolated' or 'triangles'")
    if replicates < 2:
        raise InvalidParameter("replicates must be >= 2")
    cols = ER_ISO_COLUMNS if statistic == "isolated" else ER_TRI_COLUMNS
    table = RateTable(
        cols,
        metadata={
            "experiment": f"er_{statistic}",
            "replicates": replicates,
            "seed": seed,
        },
    )
    for n, p in rows:
        n = int(n)
        sampler = _isolated_count_block if statistic == "isolated" else _triangle_count_block
        parts = map_blocks(
            lambda start, count, rng: sampler(n, p, rng, count), seed, replicates
        )
        values = np.concatenate(parts)
        emp = empirical_dist(values)
        if statistic == "isolated":
            mom = iso_moments(n, p)
            mu, s2 = mom.e_w, mom.sigma2
            b = iso_smoothing_bounds(n, p)
            bound_cols = (b.d1_bound, b.d2_bound, b.d12_bound, b.d22_bound)
        else:
            forms = tri_closed_forms(n, p)
            mu, s2 = comb(n, 3) * p ** 3, forms.sigma2
            if forms.var_q1_bound >= 0 and forms.var_qneg1_bound >= 0:
                d1 = (
                    math.sqrt(forms.var_q1_bound) + math.sqrt(forms.var_qneg1_bound)
                ) / forms.q1
                d2 = (
                    2 * forms.var_q1_bound + forms.ediff_plus
                    + 2 * forms.var_qneg1_bound + forms.ediff_minus
                ) / forms.q1 ** 2
            else:
                # the covariance sums bound variances from above, so they are
                # non-negative up to rounding; should one still come out
                # negative, report no bound rather than a fabricated one
                d1 = d2 = math.nan
            bound_cols = (d1, d2)
        target = tp_dist(tp_params(mu, s2))
        se_max = float(np.sqrt((emp.pmf * (1 - emp.pmf)).max() / replicates))
        table.add(
            n, p, math.sqrt(s2),
            distance(emp, target, LOCAL),
            distance(emp, target, local_span(2)),
            distance(emp, target, TOTAL_VARIATION),
            distance(emp, target, KOLMOGOROV),
            se_max,
            *bound_cols,
        )
    return table
