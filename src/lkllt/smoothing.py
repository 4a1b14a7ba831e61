"""Smoothness bounds that avoid materializing the full law.

Three families:

* a sum bound in the style of Mattner and Roos, needing only the first-order
  smoothness of the summands;
* a finite-sample block bound for variables carrying an embedded sum of
  conditionally independent terms;
* exchangeable-pair / reversible-chain plug-in bounds, driven by the exact
  conditional jump probabilities Q(+m), Q(-m) of one chain step (and the
  two-step analogues for the second-order bound).

Pair models expose exact per-state evaluators; Monte Carlo only enters
through the stationary sampling of states.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChain, InvalidParameter
from .rngutil import map_blocks


@dataclass(frozen=True)
class PairChainStats:
    """Monte Carlo estimates of the pair-chain quantities for one jump size m.

    q_m pools both jump directions (exchangeability makes their means equal).
    ediff_* are the means of |Q(m,m) - Q(m)^2| and |Q(-m,-m) - Q(-m)^2|.
    Standard errors are the raw per-estimate ones; they are not propagated
    through the bounds.
    """

    m: int
    q_m: float
    var_q_plus: float
    var_q_minus: float
    ediff_plus: float
    ediff_minus: float
    replicates: int
    se_q_m: float = 0.0
    se_var_q_plus: float = 0.0
    se_var_q_minus: float = 0.0
    se_ediff_plus: float = 0.0
    se_ediff_minus: float = 0.0


class PairModel:
    """Capability interface for exchangeable-pair Monte Carlo.

    Subclasses implement :meth:`q_block`: draw ``count`` stationary states
    from ``rng`` and return the arrays (Q(+m), Q(-m), Q(m,m), Q(-m,-m))
    evaluated exactly at each state.

    A model whose states each take a fixed number of 64-bit draws sets
    ``stride`` to that number, so ``map_blocks`` may split its blocks.

    A finite-state model sets ``q_table`` to those four arrays evaluated once
    per state; its :meth:`q_block` then returns the index into them of each
    drawn state instead, and :func:`pair_stats` keeps only how often each
    state was drawn.
    """

    q_table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
    stride: int | None = None

    def q_block(self, rng: np.random.Generator, count: int, m: int):
        raise NotImplementedError


def mattner_roos_bound(d1_values) -> float:
    """First-order smoothness bound for a sum of independent integer variables.

    Takes the first-order smoothness value of each summand (each in (0, 2])
    and returns 2*sqrt(2/pi) * (1/4 + sum_i (1 - d_i/2))^(-1/2).
    """
    vals = np.asarray(list(d1_values), dtype=float)
    if vals.size and (np.any(vals <= 0) or np.any(vals > 2) or not np.all(np.isfinite(vals))):
        raise InvalidParameter("each first-order smoothness value must lie in (0, 2]")
    denom = 0.25 + float(np.sum(1.0 - 0.5 * vals))
    return 2.0 * math.sqrt(2.0 / math.pi) / math.sqrt(denom)


def embedded_sum_bound(k: int, u: float, beta: float, sigma2: float, tail_prob: float) -> float:
    """Finite-sample order-k smoothness bound for an embedded-sum variable.

    2^k * P[block count shortfall] + 2 * (8k / (pi * u * (beta*sigma2 - k)))^(k/2).
    The caller is responsible for the embedded-sum hypotheses (a uniform
    lower bound u on 1 - d1/2 for the summands, and the tail probability of
    the block count).
    """
    if k < 1:
        raise InvalidParameter("k must be a positive integer")
    if not 0 < u <= 1:
        raise InvalidParameter("u must lie in (0, 1]")
    if not 0 <= tail_prob <= 1:
        raise InvalidParameter("tail_prob must lie in [0, 1]")
    if beta * sigma2 <= k:
        raise InvalidParameter("need beta * sigma2 > k")
    core = 8.0 * k / (math.pi * u * (beta * sigma2 - k))
    return (2.0 ** k) * tail_prob + 2.0 * core ** (k / 2.0)


def _centred_sums(w: np.ndarray, x: np.ndarray, squarings) -> tuple:
    # total weight, mean and each sum w (x - mean)^(2^k), k in squarings, of
    # the values x[i] each repeated w[i] times, in one temporary array; unit
    # weights give the pairwise sums of x.mean() and x.var() bit for bit
    n = np.add.reduce(w)
    tmp = np.multiply(w, x)
    mean = np.add.reduce(tmp) / n
    sums = []
    for k in squarings:
        np.subtract(x, mean, out=tmp)
        for _ in range(k):
            np.multiply(tmp, tmp, out=tmp)
        sums.append(np.add.reduce(np.multiply(w, tmp, out=tmp)))
    return n, mean, sums


def _weighted_mean_se(w: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    n, mean, (ss,) = _centred_sums(w, x, (1,))
    return float(mean), math.sqrt(ss / (n - 1)) / math.sqrt(n)


def _weighted_var_se(w: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    # the unbiased variance, and its standard error from the fourth central moment
    n, _, (ss, s4) = _centred_sums(w, x, (1, 2))
    var = float(ss / (n - 1))
    inner = float(s4 / n) - (n - 3) / (n - 1) * var * var
    return var, math.sqrt(max(inner, 0.0) / n)


def _replicate_values(model: PairModel, m: int, replicates: int, seed: int) -> tuple:
    # unit weights (a stride-0 view) and Q(+m), Q(-m), Q(m,m), Q(-m,-m) per
    # replicate, written by the blocks in replicate order
    outs = tuple(np.empty(replicates) for _ in range(4))

    def block(start, count, rng):
        for dst, vals in zip(outs, model.q_block(rng, count, m)):
            dst[start:start + count] = vals

    block.stride = model.stride
    map_blocks(block, seed, replicates)
    return (np.broadcast_to(1.0, replicates), *outs)


def _state_counts(model: PairModel, m: int, replicates: int, seed: int) -> np.ndarray:
    # draws of each state of a finite-state model, added into one int64
    # array under a lock (numpy releases the GIL inside the add); integer
    # addition is exact, so the order in which blocks finish cannot matter
    counts = np.zeros(len(model.q_table[0]), dtype=np.int64)
    lock = threading.Lock()

    def block(start, count, rng):
        drawn = np.bincount(model.q_block(rng, count, m), minlength=len(counts))
        with lock:
            np.add(counts, drawn, out=counts)

    block.stride = model.stride
    map_blocks(block, seed, replicates)
    return counts


def _estimates(w, qp, qm, qpp, qmm) -> list:
    # (estimate, se) of q_m, Var Q(+m), Var Q(-m), E|Q(m,m) - Q(m)^2| and
    # E|Q(-m,-m) - Q(-m)^2| over values weighted by w
    return [
        _weighted_mean_se(np.concatenate([w, w]), np.concatenate([qp, qm])),
        _weighted_var_se(w, qp),
        _weighted_var_se(w, qm),
        _weighted_mean_se(w, np.abs(qpp - qp ** 2)),
        _weighted_mean_se(w, np.abs(qmm - qm ** 2)),
    ]


_ESTIMATED = ("q_m", "var_q_plus", "var_q_minus", "ediff_plus", "ediff_minus")


def pair_stats(model: PairModel, m: int, replicates: int, seed: int) -> PairChainStats:
    """Estimate the pair-chain quantities by stationary Monte Carlo.

    The jump rate q_m is the pooled mean of both directional evaluators.
    A finite-state model (one with ``q_table``) keeps one int64 draw count
    per state, whatever the replicate count, and each drawn state weighs its
    values by its count; any other model keeps Q(+m), Q(-m), Q(m,m) and
    Q(-m,-m) per replicate, in replicate order, at unit weight.  One weighted
    reduction serves both, and its result does not depend on the schedule.
    """
    if m < 1:
        raise InvalidParameter("m must be a positive integer")
    if replicates < 2:
        raise InvalidParameter("replicates must be >= 2")
    if model.q_table is None:
        values = _replicate_values(model, m, replicates, seed)
    else:
        counts = _state_counts(model, m, replicates, seed)
        drawn = np.flatnonzero(counts)
        values = (counts[drawn].astype(float), *(table[drawn] for table in model.q_table))
    fields = {}
    for name, (value, se) in zip(_ESTIMATED, _estimates(*values)):
        fields[name], fields["se_" + name] = value, se
    if fields["q_m"] <= 0.0:
        raise DegenerateChain("estimated jump rate is zero")
    return PairChainStats(m=m, replicates=replicates, **fields)


def exact_pair_stats(
    probs: np.ndarray,
    qp: np.ndarray,
    qm: np.ndarray,
    qpp: np.ndarray,
    qmm: np.ndarray,
    m: int = 1,
) -> PairChainStats:
    """Pair-chain quantities computed exactly from a finite stationary law.

    ``probs`` weighs per-state evaluator values; replicates is reported as 0
    and all standard errors vanish.
    """
    probs = np.asarray(probs, dtype=float)
    mp = float(np.dot(probs, qp))
    mm = float(np.dot(probs, qm))
    q_pooled = 0.5 * (mp + mm)
    if q_pooled <= 0.0:
        raise DegenerateChain("stationary jump rate is zero")
    var_p = float(np.dot(probs, (qp - mp) ** 2))
    var_m = float(np.dot(probs, (qm - mm) ** 2))
    ediff_p = float(np.dot(probs, np.abs(qpp - qp ** 2)))
    ediff_m = float(np.dot(probs, np.abs(qmm - qm ** 2)))
    return PairChainStats(
        m=m,
        q_m=q_pooled,
        var_q_plus=var_p,
        var_q_minus=var_m,
        ediff_plus=ediff_p,
        ediff_minus=ediff_m,
        replicates=0,
    )


def pair_bound_d1(stats: PairChainStats) -> float:
    """First-order smoothness bound from one-step jump statistics.

    (sqrt(Var Q(+m)) + sqrt(Var Q(-m))) / q_m; bounds the order-1 span-m
    smoothing term of the chain statistic's stationary law.
    """
    if stats.q_m <= 0.0:
        raise DegenerateChain("jump rate q_m is zero")
    return (math.sqrt(stats.var_q_plus) + math.sqrt(stats.var_q_minus)) / stats.q_m


def pair_bound_d2(stats: PairChainStats) -> float:
    """Second-order smoothness bound from two consecutive chain steps.

    (2 Var Q(+m) + E|Q(m,m) - Q(m)^2| + 2 Var Q(-m) + E|Q(-m,-m) - Q(-m)^2|)
    divided by q_m^2; bounds the order-2 span-m smoothing term.
    """
    if stats.q_m <= 0.0 or stats.q_m ** 2 == 0.0:
        raise DegenerateChain("jump rate q_m is zero or its square underflows")
    return (
        2.0 * stats.var_q_plus
        + stats.ediff_plus
        + 2.0 * stats.var_q_minus
        + stats.ediff_minus
    ) / stats.q_m ** 2
