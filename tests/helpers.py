"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities from first principles (enumeration,
direct convolution, subset search) without touching the code paths under
test, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np

from lkllt.curie_weiss import CWPairModel, _q_arrays
from lkllt.er import GraphState, _pack, _unpack, graph_stats
from lkllt.lattice import LatticeDist, dist_from_weights
from lkllt.rngutil import map_blocks
from lkllt.smoothing import PairChainStats


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


def random_dist(rng: np.random.Generator, max_width: int = 30) -> LatticeDist:
    width = int(rng.integers(1, max_width))
    return dist_from_weights(int(rng.integers(-8, 8)), rng.exponential(size=width))


def chain_step_probabilities(G: GraphState, p: float, stat_fn) -> dict[int, float]:
    """Exact law of the statistic jump for one edge-resampling step from G."""
    n = G.n
    c2 = comb(n, 2)
    base = stat_fn(G)
    adj = _unpack(G)
    probs: dict[int, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for present, pr in ((True, p), (False, 1 - p)):
                nxt = adj.copy()
                nxt[i, j] = nxt[j, i] = present
                jump = stat_fn(GraphState(n, _pack(nxt))) - base
                probs[jump] = probs.get(jump, 0.0) + pr / c2
    return probs


def isolated_count(G: GraphState) -> int:
    return graph_stats(G).w_isolated


def triangle_count(G: GraphState) -> int:
    return graph_stats(G).triangles


def all_spin_configs(n: int):
    return itertools.product((-1, 1), repeat=n)


def gibbs_weight(spins, beta: float, h: float) -> float:
    n = len(spins)
    inter = sum(spins[i] * spins[j] for i in range(n) for j in range(i + 1, n))
    return math.exp(beta / n * inter + h * sum(spins))


def cw_pair_stats_per_replicate(model: CWPairModel, replicates: int, seed: int) -> PairChainStats:
    """The Curie-Weiss pair-chain estimates, evaluated per replicate.

    Each block draws its magnetizations with ``rng.choice``, the evaluators
    run at every drawn value, and the fourth central moment is ``dev ** 4``
    over the replicates.
    """
    parts = map_blocks(
        lambda start, count, rng: _q_arrays(
            rng.choice(model.values, size=count, p=model.probs), model.params
        ),
        seed,
        replicates,
    )
    qp, qm, qpp, qmm = (np.concatenate([part[i] for part in parts]) for i in range(4))

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))

    def var_se(x):
        n = len(x)
        dev = x - x.mean()
        var = float(np.dot(dev, dev) / (n - 1))
        inner = float(np.mean(dev ** 4)) - (n - 3) / (n - 1) * var * var
        return var, math.sqrt(max(inner, 0.0) / n)

    q_m, se_q_m = mean_se(np.concatenate([qp, qm]))
    var_p, se_var_p = var_se(qp)
    var_m, se_var_m = var_se(qm)
    ediff_p, se_ed_p = mean_se(np.abs(qpp - qp ** 2))
    ediff_m, se_ed_m = mean_se(np.abs(qmm - qm ** 2))
    return PairChainStats(
        2, q_m, var_p, var_m, ediff_p, ediff_m, replicates,
        se_q_m, se_var_p, se_var_m, se_ed_p, se_ed_m,
    )


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
