"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities from first principles (enumeration,
direct convolution, subset search) without touching the code paths under
test, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

import lkllt.er
from lkllt.curie_weiss import CWPairModel, CWParams, _q_arrays
from lkllt.er import _ISO_MOMENTS, _TRI_MOMENTS, _iso_q_from_counts
from lkllt.lattice import LatticeDist, dist_from_weights, smooth_uniform, span_difference
from lkllt.rngutil import map_blocks
from lkllt.errors import DegenerateChain
from lkllt.smoothing import PairChainStats, PairModel


def brute_convolve(F: LatticeDist, G: LatticeDist) -> LatticeDist:
    out = np.zeros(len(F.pmf) + len(G.pmf) - 1)
    for i, a in enumerate(F.pmf):
        for j, b in enumerate(G.pmf):
            out[i + j] += a * b
    return dist_from_weights(F.offset + G.offset, out)


def binomial_dist(n: int, p: float) -> LatticeDist:
    return dist_from_weights(0, [comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])


def interval_mass(F: LatticeDist, k: int, m: int) -> float:
    """P[k < X <= k + m]."""
    total = 0.0
    for j in range(k + 1, k + m + 1):
        i = j - F.offset
        if 0 <= i < len(F.pmf):
            total += F.pmf[i]
    return total


def smoothing_term_by_averaging(F: LatticeDist, n: int, m: int) -> float:
    """The order-n, span-m smoothing term by the n-fold averaging route: m^n
    times the l1-norm of the n-th unit difference of the pmf of F averaged
    over n independent uniform{0..m-1} blocks."""
    smoothed = F
    for _ in range(n):
        smoothed = smooth_uniform(smoothed, m)
    return (m ** n) * float(np.abs(span_difference(smoothed.pmf, n, 1)).sum())


def random_dist(rng: np.random.Generator, max_width: int = 30) -> LatticeDist:
    width = int(rng.integers(1, max_width))
    return dist_from_weights(int(rng.integers(-8, 8)), rng.exponential(size=width))


def per_metric_distance(F: LatticeDist, G: LatticeDist, key: str) -> float:
    """The span-1 metric under ``key`` of ``metrics.distances`` by its own
    formula, over both pmfs zero-padded to a common window: the numpy
    operations of that metric taken alone."""
    lo = min(F.offset, G.offset)
    pf = np.zeros(max(F.support_end, G.support_end) - lo)
    pg = pf.copy()
    pf[F.offset - lo : F.support_end - lo] = F.pmf
    pg[G.offset - lo : G.support_end - lo] = G.pmf
    if key == "dloc":
        return float(np.abs(pf - pg).max())
    if key == "dtv":
        return 0.5 * float(np.abs(pf - pg).sum())
    cdf_gap = np.abs(pf.cumsum() - pg.cumsum())
    return float(cdf_gap.max() if key == "dk" else cdf_gap.sum())


def adjacency(n: int, edges) -> np.ndarray:
    """Boolean (n, n) adjacency matrix of the simple graph with these edges."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        assert i != j, "self-loops are not allowed"
        adj[i, j] = adj[j, i] = True
    return adj


@dataclass(frozen=True)
class GraphStats:
    w_isolated: int  # vertices of degree 0
    w1: int          # vertices of degree 1
    e2: int          # isolated edges (both endpoints of degree 1)
    triangles: int


def graph_stats(adj: np.ndarray) -> GraphStats:
    """Counts of one graph, given as a boolean (n, n) adjacency matrix, by
    walking the degree-one vertices and the common neighbours of each edge."""
    deg = adj.sum(axis=1)
    w1_idx = np.flatnonzero(deg == 1)
    e2 = 0
    for i in w1_idx:
        j = int(np.flatnonzero(adj[i])[0])
        if deg[j] == 1:
            e2 += 1
    ii, jj = np.nonzero(np.triu(adj, 1))
    common = int((adj[ii] & adj[jj]).sum())
    return GraphStats(int((deg == 0).sum()), len(w1_idx), e2 // 2, common // 3)


def chain_step_probabilities(adj: np.ndarray, p: float, stat_fn) -> dict[int, float]:
    """Exact law of the statistic jump for one edge-resampling step from the
    graph with boolean (n, n) adjacency matrix ``adj``."""
    n = len(adj)
    c2 = comb(n, 2)
    base = stat_fn(adj)
    probs: dict[int, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for present, pr in ((True, p), (False, 1 - p)):
                nxt = adj.copy()
                nxt[i, j] = nxt[j, i] = present
                jump = stat_fn(nxt) - base
                probs[jump] = probs.get(jump, 0.0) + pr / c2
    return probs


def isolated_count(adj: np.ndarray) -> int:
    return graph_stats(adj).w_isolated


def triangle_count(adj: np.ndarray) -> int:
    return graph_stats(adj).triangles


def iso_q11_two_step(adj: np.ndarray, p: float) -> float:
    """True two-step probability of two consecutive +1 isolated-vertex moves,
    by enumerating the first move and applying the exact one-step formula to
    each result."""
    n = len(adj)
    deg = adj.sum(axis=1)
    c2 = comb(n, 2)
    total = 0.0
    for i, j in zip(*np.nonzero(np.triu(adj, 1))):
        if (deg[i] == 1) != (deg[j] == 1):
            nxt = adj.copy()
            nxt[i, j] = nxt[j, i] = False
            s = graph_stats(nxt)
            q1_next = (s.w1 - 2 * s.e2) * (1 - p) / c2
            total += (1 - p) / c2 * q1_next
    return total


def two_step_probability(adj: np.ndarray, p: float, stat_fn, jump: int) -> float:
    """Exact probability that two consecutive edge-resampling steps from the
    graph with boolean (n, n) adjacency matrix ``adj`` each move the
    statistic by ``jump``: every first move is enumerated, and the one-step
    law of ``chain_step_probabilities`` is taken at each graph it reaches."""
    n = len(adj)
    c2 = comb(n, 2)
    base = stat_fn(adj)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for present, pr in ((True, p), (False, 1 - p)):
                nxt = adj.copy()
                nxt[i, j] = nxt[j, i] = present
                if stat_fn(nxt) - base == jump:
                    total += pr / c2 * chain_step_probabilities(nxt, p, stat_fn).get(jump, 0.0)
    return total


def tri_q_block_per_slot(adj: np.ndarray, p: float):
    """(Q(+1), Q(-1), Q(1,1), Q(-1,-1)) of the triangle count for every graph
    of a (count, n, n) adjacency stack, the two-step values by a loop over
    the pair slots in upper-triangle order that updates the common-neighbour
    counts of the two rows a move touches and adds up the integer gains of
    the moves.  The reference for ``_tri_q_block``'s bytes."""
    n = adj.shape[1]
    c2 = comb(n, 2)
    a = adj.astype(np.float32)
    common = np.matmul(a, a)
    ii, jj = np.triu_indices(n, 1)
    one = common[:, ii, jj] == 1
    present = adj[:, ii, jj]
    up = one & ~present
    down = one & present
    n_up = np.count_nonzero(up, axis=1)
    n_down = np.count_nonzero(down, axis=1)
    eq0, eq1, eq2 = common == 0, common == 1, common == 2
    gains_up = np.zeros(len(adj), dtype=np.int64)
    gains_down = np.zeros(len(adj), dtype=np.int64)
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
            gains_up += np.where(add, gain, 0)
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
            gains_down += np.where(remove, gain, 0)
    # the second step finds n_up - 1 + gain moves after each of the n_up first ones
    qpp = (p / c2) ** 2 * (n_up * (n_up - 1) + gains_up)
    qmm = ((1 - p) / c2) ** 2 * (n_down * (n_down - 1) + gains_down)
    return p * n_up / c2, (1 - p) * n_down / c2, qpp, qmm


def decode_pairs_by_searchsorted(n: int, e: np.ndarray):
    """(i, j) of pair slots e in upper-triangle order, by ``searchsorted``
    over the row starts."""
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    i = np.searchsorted(starts, e, side="right") - 1
    return i, e - starts[i] + i + 1


def isolated_counts_per_replicate(n: int, p: float, rng: np.random.Generator, count: int):
    """Isolated-vertex counts of ``count`` G(n, p) draws, one replicate at a
    time: geometric gaps over the pair slots, ``_gap_chunk`` of them per
    draw, until a position passes the last slot.  The reference for
    ``_isolated_count_block``'s bytes and for the draws it consumes."""
    N = comb(n, 2)
    out = np.empty(count, dtype=np.int64)
    if p in (0.0, 1.0):
        out.fill(n if p == 0.0 else 0)
        return out
    chunk = lkllt.er._gap_chunk(N, p)
    touched = np.empty(n, dtype=bool)
    for t in range(count):
        positions = np.cumsum(rng.geometric(p, size=chunk)) - 1
        while positions[-1] < N - 1:
            extra = np.cumsum(rng.geometric(p, size=chunk)) - 1
            positions = np.concatenate([positions, positions[-1] + 1 + extra])
        i, j = decode_pairs_by_searchsorted(n, positions[positions < N])
        touched.fill(False)
        touched[i] = touched[j] = True
        out[t] = n - np.count_nonzero(touched)
    return out


def all_spin_configs(n: int):
    return itertools.product((-1, 1), repeat=n)


def gibbs_weight(spins, beta: float, h: float) -> float:
    n = len(spins)
    inter = sum(spins[i] * spins[j] for i in range(n) for j in range(i + 1, n))
    return math.exp(beta / n * inter + h * sum(spins))


def cw_draws_per_replicate(model: CWPairModel, replicates: int, seed: int) -> np.ndarray:
    """The magnetizations the Curie-Weiss pair chain draws, in replicate
    order: each block draws its values with ``rng.choice``."""
    parts = map_blocks(
        lambda start, count, rng: rng.choice(model.values, size=count, p=model.probs),
        seed,
        replicates,
    )
    return np.concatenate(parts)


def pair_stats_from_replicates(m: int, qp, qm, qpp, qmm) -> PairChainStats:
    """The pair-chain estimates from per-replicate arrays, reduced the direct
    way: the pooled mean and every standard error from numpy's ``mean`` and
    ``std`` over fresh copies, and the variances from numpy's pairwise sums of
    the squared deviations and of their squares over all replicates."""

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))

    def var_se(x):
        n = len(x)
        dev2 = x - x.mean()
        dev2 *= dev2
        var = float(np.add.reduce(dev2) / (n - 1))
        inner = float(np.add.reduce(dev2 * dev2) / n) - (n - 3) / (n - 1) * var * var
        return var, math.sqrt(max(inner, 0.0) / n)

    q_m, se_q_m = mean_se(np.concatenate([qp, qm]))
    if q_m <= 0.0:
        raise DegenerateChain("estimated jump rate is zero")
    var_p, se_var_p = var_se(qp)
    var_m, se_var_m = var_se(qm)
    ediff_p, se_ed_p = mean_se(np.abs(qpp - qp ** 2))
    ediff_m, se_ed_m = mean_se(np.abs(qmm - qm ** 2))
    return PairChainStats(
        m, q_m, var_p, var_m, ediff_p, ediff_m, len(qp),
        se_q_m, se_var_p, se_var_m, se_ed_p, se_ed_m,
    )


def cw_pair_stats_per_replicate(model: CWPairModel, replicates: int, seed: int) -> PairChainStats:
    """The Curie-Weiss pair-chain estimates, with the evaluators run at
    every value ``cw_draws_per_replicate`` draws."""
    draws = cw_draws_per_replicate(model, replicates, seed)
    return pair_stats_from_replicates(2, *_q_arrays(draws, model.params))


def pair_stats_concatenated(model: PairModel, m: int, replicates: int, seed: int) -> PairChainStats:
    """``pair_stats`` of a model without ``q_table`` over the blocks' arrays
    concatenated: the reference for the bytes of the in-place reduction."""
    parts = map_blocks(lambda start, count, rng: model.q_block(rng, count, m), seed, replicates)
    return pair_stats_from_replicates(m, *(np.concatenate(arrays) for arrays in zip(*parts)))


def subset_max_independent(points: np.ndarray, r: float) -> int:
    """Exact maximum independent set by vectorized subset enumeration."""
    n = len(points)
    conflicts = np.zeros(n, dtype=np.uint32)
    for i in range(n):
        for j in range(n):
            if i != j and ((points[i] - points[j]) ** 2).sum() <= r * r:
                conflicts[i] |= np.uint32(1 << j)
    masks = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(len(masks), dtype=bool)
    for i in range(n):
        taken = ((masks >> np.uint32(i)) & np.uint32(1)).astype(bool)
        clash = (masks & np.uint32(int(conflicts[i]) & ~(1 << i))) != 0
        ok &= ~(taken & clash)
    return int(np.bitwise_count(masks[ok]).max())


def cw_exact_pmf_full_lattice(params: CWParams, half_lattice: bool = False) -> LatticeDist:
    """The Curie-Weiss law with every weight k = 0..n evaluated, normalized
    over the whole lattice: the reference for ``cw_exact_pmf``'s bytes."""
    n, beta, h = params.n, params.beta, params.h
    w = n - 2 * np.arange(n + 1)
    lf = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    logw = (
        ((math.lgamma(n + 1) - lf) - lf[::-1])
        + beta * (w.astype(float) ** 2 - n) / (2.0 * n)
        + h * w
    )
    weights = np.exp(logw - logw.max())[::-1]  # index by w increasing
    if half_lattice:
        return dist_from_weights((-n + n % 2) // 2, weights)
    full = np.zeros(2 * n + 1)
    full[::2] = weights
    return dist_from_weights(-n, full)


def all_graph_masks(n: int, p: float):
    """Every edge mask on n vertices at once, its edge count and its G(n, p)
    weight."""
    E = comb(n, 2)
    masks = np.arange(1 << E, dtype=np.uint32)
    e_count = np.bitwise_count(masks)
    prob = (p ** e_count.astype(float)) * ((1 - p) ** (E - e_count).astype(float))
    return masks, e_count, prob


@functools.lru_cache(maxsize=1)
def enumerated_counts(n: int, statistic: str) -> tuple:
    """(W, W1, E2), or (T,), of every graph on n vertices in mask order, from
    ``enumerated_iso_counts_per_edge`` or ``enumerated_triangles_per_triple``;
    read-only int8 arrays, so that one cached n = 7 entry stays at 6 MB."""
    masks = np.arange(1 << comb(n, 2), dtype=np.uint32)
    if statistic == "isolated":
        counts = enumerated_iso_counts_per_edge(n, masks)
    else:
        counts = (enumerated_triangles_per_triple(n, masks),)
    counts = tuple(c.astype(np.int8) for c in counts)
    for c in counts:
        c.flags.writeable = False
    return counts


def enumerate_graphs_oracle_unchunked(n: int, p: float, statistic: str):
    """Every graph at once: the law by one weighted bincount over all masks,
    the moments from one tally over all (e, *counts) keys, the counts from
    ``enumerated_counts``, which shares no code with the oracle's kernel.
    The reference for ``enumerate_graphs_oracle``'s bytes."""
    _, e_count, prob = all_graph_masks(n, p)
    counts = enumerated_counts(n, statistic)
    powers = _ISO_MOMENTS if statistic == "isolated" else _TRI_MOMENTS
    dims = tuple(int(x.max()) + 1 for x in (e_count, *counts))
    keys = np.ravel_multi_index((e_count, *counts), dims)
    tally = np.bincount(keys, minlength=math.prod(dims)).reshape(dims)
    nonzero = np.nonzero(tally)
    # the mask 2^e - 1 has e edges, so its weight is that of every e-edge graph
    groups = [
        (count, float(prob[(1 << e) - 1]), vals)
        for count, (e, *vals) in zip(tally[nonzero].tolist(), zip(*(i.tolist() for i in nonzero)))
    ]
    moments = {
        name: float(sum(
            count * Fraction(pe * math.prod(v ** a for v, a in zip(vals, exps)))
            for count, pe, vals in groups
        ))
        for name, exps in powers.items()
    }
    return dist_from_weights(0, np.bincount(counts[0], weights=prob)), moments


def enumerated_iso_counts_per_edge(n: int, masks: np.ndarray):
    """(W, W1, E2) of every graph in an array of edge masks, one bit plane per
    edge: degrees summed edge by edge, then every edge with two degree-one
    ends counted."""
    edges = list(itertools.combinations(range(n), 2))
    bits = [((masks >> e) & 1).astype(bool) for e in range(len(edges))]
    deg = np.zeros((n, len(masks)), dtype=np.int8)
    for b, (i, j) in zip(bits, edges):
        deg[i] += b
        deg[j] += b
    e2 = np.zeros(len(masks), dtype=np.int64)
    for b, (i, j) in zip(bits, edges):
        e2 += b & (deg[i] == 1) & (deg[j] == 1)
    return (deg == 0).sum(axis=0), (deg == 1).sum(axis=0), e2


def iso_exact_pair_stats_per_graph(n: int, p: float, m: int) -> PairChainStats:
    """The isolated-vertex pair-chain statistics of jump size m as a
    ``math.fsum`` of weight times value over every graph, each graph's
    (W, W1, E2) from ``enumerated_iso_counts_per_edge``.  The per-graph
    values come from ``_iso_q_from_counts``, which the one-step tests check
    against chain enumeration; what this references is the enumeration and
    its weighting.  q_m is 0.0 where the chain never jumps by m."""
    masks, _, prob = all_graph_masks(n, p)
    qp, qm, qpp, qmm = _iso_q_from_counts(n, p, *enumerated_iso_counts_per_edge(n, masks), m)

    def mean(x):
        return math.fsum((prob * x).tolist())

    mp, mm = mean(qp), mean(qm)
    return PairChainStats(
        m, 0.5 * (mp + mm), mean((qp - mp) ** 2), mean((qm - mm) ** 2),
        mean(np.abs(qpp - qp ** 2)), mean(np.abs(qmm - qm ** 2)), replicates=0,
    )


def enumerated_triangles_per_triple(n: int, masks: np.ndarray) -> np.ndarray:
    """Triangle count of every graph in an array of edge masks, one vertex
    triple at a time."""
    eidx = {pair: e for e, pair in enumerate(itertools.combinations(range(n), 2))}
    tri = np.zeros(len(masks), dtype=np.int64)
    for a, b, c in itertools.combinations(range(n), 3):
        m3 = np.uint32((1 << eidx[(a, b)]) | (1 << eidx[(a, c)]) | (1 << eidx[(b, c)]))
        tri += (masks & m3) == m3
    return tri


def poisson_block_indexed_recursion(lam: float, eps: float) -> tuple[int, np.ndarray]:
    """``tp._poisson_block`` with its downward recursion written as
    ``(down[-1] * (k + 1)) / lam`` for k from mode - 1 down to lo."""
    mode = int(lam)
    log_mode = -lam + mode * math.log(lam) - math.lgamma(mode + 1) if lam > 0 else 0.0
    half = int(12.0 * math.sqrt(lam) + 30.0)
    while True:
        lo = max(0, mode - half)
        hi = mode + half
        top = math.exp(log_mode)
        up = np.multiply.accumulate(np.concatenate([[top], lam / np.arange(mode + 1, hi + 1)]))
        down = [top]
        for k in range(mode - 1, lo - 1, -1):
            down.append((down[-1] * (k + 1)) / lam)
        pm = np.concatenate([down[:0:-1], up])
        total = pm.sum()
        r = lam / (hi + 1)
        right = pm[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        s = lo / lam if lam > 0 else 0.0
        left = pm[0] * s / (1.0 - s) if lo > 0 and s < 1.0 else 0.0
        if left + right < eps * total:
            return lo, pm
        half = int(half * 1.5) + 10


def tp_normal_gaps_whole_window(params) -> tuple[float, float, float]:
    """``tp.tp_normal_gaps`` as it was before it walked its window in pieces:
    every array spans the whole window, and the CDF is one ``np.cumsum``.
    The law comes from ``poisson_block_indexed_recursion``."""
    from statistics import NormalDist

    from lkllt.tp import _EPS

    def std_cdf(z):
        return 0.5 * (1.0 + np.fromiter(map(math.erf, (z / math.sqrt(2.0)).tolist()), float, len(z)))

    def phi_(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    lo, pm = poisson_block_indexed_recursion(params.lam, _EPS)
    F = LatticeDist(params.shift + lo, pm / pm.sum())
    mu, sigma = params.mu, math.sqrt(params.sigma2)
    # every lattice point of the support and the end point one past it
    k = np.arange(F.offset, F.support_end + 1)
    z = (k - mu) / sigma
    Phi = std_cdf(z)
    phi = phi_(z)
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
    inv_cdf = NormalDist().inv_cdf
    x_star = mu + sigma * np.array([inv_cdf(p) for p in ci.tolist()])
    zs = (x_star - mu) / sigma
    a_star = zs * std_cdf(zs) + phi_(zs)
    left = ci * (x_star - kc) - sigma * (a_star - a0[crossing])
    right = sigma * (a1[crossing] - a_star) - ci * (kc + 1 - x_star)
    # sequential, in index order: np.sum's pairwise summation would reorder
    for term in (left + right).tolist():
        dw += term
    # tails: integral of Phi below the support, of 1 - Phi above it
    dw += sigma * float(antideriv[0])
    dw += sigma * float(phi[-1] - z[-1] * (1.0 - Phi[-1]))
    return local_gap, dk, float(dw)
