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
    per state (fewer than 2^31 states); its :meth:`q_block` then returns the
    index into them of each drawn state instead, kept as int32.
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


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    # x.mean() and x.std(ddof=1) / sqrt(n) bit for bit, by numpy's own steps
    # (pairwise sums, the mean subtracted, the deviations squared), but with
    # the deviations formed in x itself: x is overwritten
    n = len(x)
    mean = np.add.reduce(x) / n
    np.subtract(x, mean, out=x)
    np.multiply(x, x, out=x)
    return float(mean), math.sqrt(np.add.reduce(x) / (n - 1)) / math.sqrt(n)


def _var_se(x: np.ndarray, table: np.ndarray, index: np.ndarray | None) -> tuple[float, float]:
    # unbiased variance and its moment-based standard error of x, which is
    # table[index] (table itself when index is None); the fourth powers are
    # taken once per table entry, which gives each replicate the same value
    n = len(x)
    mean = x.mean()
    dev = x - mean
    var = float(np.dot(dev, dev) / (n - 1))
    if index is None:
        dev4 = np.power(dev, 4, out=dev)
    else:
        del dev  # before the gather makes another per-replicate array
        dev4 = ((table - mean) ** 4)[index]
    m4 = float(np.mean(dev4))
    inner = m4 - (n - 3) / (n - 1) * var * var
    se = math.sqrt(max(inner, 0.0) / n)
    return var, se


def pair_stats(model: PairModel, m: int, replicates: int, seed: int) -> PairChainStats:
    """Estimate the pair-chain quantities by stationary Monte Carlo.

    The jump rate q_m is the pooled mean of both directional evaluators.
    Per-replicate values are written in replicate order into arrays made
    before sampling, so the reductions are independent of the execution
    schedule.  Q(+m) and Q(-m) are the two halves of one array, which the
    pooled mean reads last and overwrites.  For a finite-state model (one
    with ``q_table``) the blocks write the drawn state indices, and the two
    halves are gathered from the per-state tables; every other per-replicate
    function of the state is evaluated once per state.  Each replicate gets
    the same value either way, so the estimates are those of the
    per-replicate evaluation.  Memory: 20 bytes per replicate for a
    finite-state model (int32 index, Q(+m), Q(-m)) plus one array of
    per-replicate values at a time; 32 bytes (Q(+m), Q(-m), Q(m,m),
    Q(-m,-m)) plus one such array otherwise.
    """
    if m < 1:
        raise InvalidParameter("m must be a positive integer")
    if replicates < 2:
        raise InvalidParameter("replicates must be >= 2")

    q = np.empty(2 * replicates)
    qp, qm = q[:replicates], q[replicates:]
    if model.q_table is None:
        index = None
        tab_p, tab_m, tab_pp, tab_mm = outs = (qp, qm, np.empty(replicates), np.empty(replicates))

        def block(start, count, rng):
            for dst, vals in zip(outs, model.q_block(rng, count, m)):
                dst[start:start + count] = vals
    else:
        index = np.empty(replicates, dtype=np.int32)
        tab_p, tab_m, tab_pp, tab_mm = model.q_table

        def block(start, count, rng):
            index[start:start + count] = model.q_block(rng, count, m)

    block.stride = model.stride
    map_blocks(block, seed, replicates)
    if index is not None:
        # mode="raise" would fill a full-length copy of out and then copy it
        np.take(tab_p, index, out=qp, mode="clip")
        np.take(tab_m, index, out=qm, mode="clip")

    def two_step_gap(tab2: np.ndarray, tab1: np.ndarray) -> np.ndarray:
        # |Q(m,m) - Q(m)^2| per replicate; formed in tab2 when that is per replicate
        if index is not None:
            return np.abs(tab2 - tab1 ** 2)[index]
        np.subtract(tab2, tab1 ** 2, out=tab2)
        return np.abs(tab2, out=tab2)

    var_p, se_var_p = _var_se(qp, tab_p, index)
    var_m, se_var_m = _var_se(qm, tab_m, index)
    ediff_p, se_ed_p = _mean_se(two_step_gap(tab_pp, tab_p))
    ediff_m, se_ed_m = _mean_se(two_step_gap(tab_mm, tab_m))
    q_pooled, se_q = _mean_se(q)  # last: it overwrites Q(+m) and Q(-m)
    if q_pooled <= 0.0:
        raise DegenerateChain("estimated jump rate is zero")
    return PairChainStats(
        m=m,
        q_m=q_pooled,
        var_q_plus=var_p,
        var_q_minus=var_m,
        ediff_plus=ediff_p,
        ediff_minus=ediff_m,
        replicates=replicates,
        se_q_m=se_q,
        se_var_q_plus=se_var_p,
        se_var_q_minus=se_var_m,
        se_ediff_plus=se_ed_p,
        se_ediff_minus=se_ed_m,
    )


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
