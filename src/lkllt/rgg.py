"""Geometric random graphs on the unit cube and their independence number.

Points come from a Poisson process of intensity lambda on [0,1]^d; two
points are adjacent when at most r apart.  The independence number (largest
set of pairwise non-adjacent points) is exact: a sorted greedy sweep in one
dimension (interval graphs), branch and bound with a node budget above.
The experiment tracks the law of the independence number at connection
radius b * lambda^(-1/d) against a translated Poisson matched to the
empirical mean and variance (no closed forms exist for them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, TooLarge
from .lattice import LatticeDist, dist_from_weights
from .metrics import KOLMOGOROV, LOCAL, TOTAL_VARIATION, distance
from .report import RateTable
from .rngutil import block_rng, map_blocks
from .tp import tp_dist, tp_params


@dataclass(frozen=True)
class PointSet:
    d: int
    points: np.ndarray  # (count, d) in [0,1]^d

    def __len__(self) -> int:
        return len(self.points)


def ppp_sample(lam: float, d: int, seed: int) -> PointSet:
    """Homogeneous Poisson process on the unit cube: Poisson count, uniform locations."""
    if not lam > 0:
        raise InvalidParameter("intensity must be positive")
    if d < 1:
        raise InvalidParameter("dimension must be >= 1")
    rng = block_rng(seed, 0)
    return _ppp(lam, d, rng)


def _ppp(lam: float, d: int, rng: np.random.Generator) -> PointSet:
    count = int(rng.poisson(lam))
    return PointSet(d, rng.random((count, d)))


def _greedy_line(xs: np.ndarray, r: float) -> int:
    picked = 0
    last = -math.inf
    for x in np.sort(xs):
        if x > last + r:
            picked += 1
            last = x
    return picked


def _conflict_masks(points: np.ndarray, r: float) -> list[int]:
    diff = points[:, None, :] - points[None, :, :]
    adj = (diff ** 2).sum(axis=2) <= r * r
    np.fill_diagonal(adj, False)
    masks = []
    for row in adj:
        m = 0
        for j in np.flatnonzero(row):
            m |= 1 << int(j)
        masks.append(m)
    return masks


def _bnb_mis(masks: list[int], budget: int) -> int:
    """Exact maximum independent set by take/skip branch and bound."""
    n = len(masks)
    best = 0
    nodes = 0
    order = sorted(range(n), key=lambda i: bin(masks[i]).count("1"), reverse=True)
    all_mask = (1 << n) - 1

    def rec(avail: int, size: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise TooLarge("branch-and-bound node budget exceeded")
        if size + bin(avail).count("1") <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        # branch on the highest-degree available vertex
        v = next(i for i in order if (avail >> i) & 1)
        rec(avail & ~((1 << v) | masks[v]), size + 1)
        rec(avail & ~(1 << v), size)

    rec(all_mask, 0)
    return best


def rgg_independence(points: PointSet, r: float, budget: int = 10 ** 6) -> int:
    """Exact independence number of the geometric graph at radius r."""
    if r < 0:
        raise InvalidParameter("radius must be nonnegative")
    if len(points) == 0:
        return 0
    if points.d == 1:
        return _greedy_line(points.points[:, 0], r)
    return _bnb_mis(_conflict_masks(points.points, r), budget)


RGG_COLUMNS = [
    "lam", "r", "dloc", "dtv", "dk", "pmf_se_max",
    "mean_w", "var_w", "var_w_over_lam", "empty_annulus_frac",
]


def _annulus_diagnostic(points: np.ndarray, r: float, d: int) -> float:
    """Fraction of a packed grid of radius-3r balls whose annulus
    (radius in (r, 2r]) contains no process point; supports the embedded-sum
    block hypothesis empirically, d = 1 only."""
    if d != 1 or r <= 0:
        return math.nan
    n_balls = int(1.0 / (6.0 * r))
    if n_balls == 0:
        return math.nan
    centers = 3.0 * r + 6.0 * r * np.arange(n_balls)
    xs = points[:, 0]
    dist = np.abs(xs[None, :] - centers[:, None])
    in_annulus = (dist > r) & (dist <= 2 * r)
    return float((~in_annulus.any(axis=1)).mean())


def rgg_experiment(b: float, d: int, lambda_grid, replicates: int, seed: int) -> RateTable:
    """Law of the independence number at radius b*lambda^(-1/d) versus a
    translated Poisson matched to the empirical mean and variance.

    The regime knob b is a configuration choice ("small enough" has no
    explicit threshold); it is echoed in the metadata.  Also reports the
    empty-annulus diagnostic counter backing the block decomposition.
    """
    if not b > 0:
        raise InvalidParameter("b must be positive")
    if replicates < 2:
        raise InvalidParameter("replicates must be >= 2")
    table = RateTable(
        RGG_COLUMNS,
        metadata={
            "experiment": "rgg", "b": b, "d": d,
            "replicates": replicates, "seed": seed,
            "note": "regime knob b is a config choice; tp target is empirical",
        },
    )
    for lam in lambda_grid:
        r = b * lam ** (-1.0 / d)

        def one_block(start, count, rng, lam=lam, r=r):
            w = np.empty(count, dtype=np.int64)
            ann = np.empty(count)
            for t in range(count):
                pts = _ppp(lam, d, rng)
                w[t] = rgg_independence(pts, r)
                ann[t] = _annulus_diagnostic(pts.points, r, d)
            return w, ann

        parts = map_blocks(one_block, seed, replicates)
        w = np.concatenate([p[0] for p in parts])
        ann = np.concatenate([p[1] for p in parts])
        lo = int(w.min())
        emp = dist_from_weights(lo, np.bincount(w - lo))
        mean_w = float(w.mean())
        var_w = float(w.var(ddof=1))
        target = tp_dist(tp_params(mean_w, var_w))
        se_max = float(np.sqrt((emp.pmf * (1 - emp.pmf)).max() / replicates))
        table.add(
            float(lam), r,
            distance(emp, target, LOCAL),
            distance(emp, target, TOTAL_VARIATION),
            distance(emp, target, KOLMOGOROV),
            se_max,
            mean_w, var_w, var_w / lam,
            # the diagnostic is nan on every replicate or on none (d != 1 or
            # r > 1/6); nanmean would warn on an all-nan column
            math.nan if np.isnan(ann).all() else float(np.nanmean(ann)),
        )
    return table
