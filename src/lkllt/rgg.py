"""Geometric random graphs on the unit cube and their independence number.

Points come from a Poisson process of intensity lambda on [0,1]^d; two
points are adjacent when at most r apart.  The independence number (largest
set of pairwise non-adjacent points) is exact: a sorted greedy sweep in one
dimension (interval graphs), branch and bound with a node budget above.
The experiment tracks the law of the independence number at connection
radius b * lambda^(-1/d) against a translated Poisson matched to the
empirical mean and variance of the sampled replicates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, TooLarge
from .rngutil import block_rng, map_blocks

_LINE_CELLS = 1 << 13  # padded points per 1-d evaluation sub-chunk: under 1 MB of temporaries


def ppp_sample(lam: float, d: int, seed: int) -> np.ndarray:
    """Homogeneous Poisson process on the unit cube: a Poisson count of
    uniform locations, as a (count, d) array."""
    if not lam > 0:
        raise InvalidParameter("intensity must be positive")
    if d < 1:
        raise InvalidParameter("dimension must be >= 1")
    return _ppp(lam, d, block_rng(seed, 0))


def _ppp(lam: float, d: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d) points of the process: a Poisson count, then the uniforms."""
    return rng.random((rng.poisson(lam), d))


def _line_block(sets: list[np.ndarray], r: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy independence number and empty-annulus fraction of every 1-d
    point set in ``sets``.

    The sets are padded with inf to one (count, L + 1) array and sorted by
    row.  The greedy sweep keeps a point x when x > last + r for the last kept
    point, so it keeps every head: a row's first point and every x with
    x > prev + r for its predecessor (last <= prev, and rounding is
    monotone).  From the heads that an inner point follows the sweep is walked
    for all rows at once, one point per step, so the steps number the
    longest run between two heads.

    The annulus diagnostic is the fraction of a packed grid of radius-3r
    balls whose annulus (radius in (r, 2r]) contains no point; it backs the
    embedded-sum block hypothesis empirically.  A point within 2r of one
    centre is at least 4r from every other, so only its nearest centre can
    count it.  nan where r <= 0 or r > 1/6 (no ball fits).
    """
    count = len(sets)
    lens = np.fromiter(map(len, sets), np.int64, count)
    width = int(lens.max()) + 1
    x = np.full((count, width), np.inf)
    x[np.arange(width) < lens[:, None]] = np.concatenate(sets)
    x.sort(axis=1)
    lim = x + r
    point = x < np.inf
    kept = point.copy()
    kept[:, 1:] &= x[:, 1:] > lim[:, :-1]
    inner = (point ^ kept).ravel()  # points after the head of their run
    flat, flat_lim, flat_kept = x.ravel(), lim.ravel(), kept.ravel()
    last = np.flatnonzero(flat_kept[:-1] & inner[1:])  # heads with a run behind them
    nxt = last + 1
    while last.size:
        take = flat[nxt] > flat_lim[last]
        flat_kept[nxt[take]] = True
        last = np.where(take, nxt, last)
        nxt += 1
        go = inner[nxt]
        last, nxt = last[go], nxt[go]
    w = np.count_nonzero(kept, axis=1)

    ann = np.full(count, math.nan)
    n_balls = int(1.0 / (6.0 * r)) if r > 0 else 0
    if n_balls:
        centers = 3.0 * r + 6.0 * r * np.arange(n_balls)
        xs = x[point]  # the points, row by row
        # ball b is nearest on [6rb, 6r(b + 1)); points past the last cell go to it
        ball = np.minimum(xs / (6.0 * r), n_balls - 1).astype(np.int64)
        dist = np.abs(xs - centers[ball])
        ball += np.repeat(np.arange(0, count * n_balls, n_balls), lens)  # now row * n_balls + ball
        # sorted rows give non-decreasing keys, so repeated hits are adjacent
        key = ball[(dist > r) & (dist <= 2 * r)]
        first = np.diff(key, prepend=-1) != 0
        ann = (n_balls - np.bincount(key[first] // n_balls, minlength=count)) / n_balls
    return w, ann


def _conflict_masks(points: np.ndarray, r: float) -> list[int]:
    """Neighbour bit masks of the geometric graph, its vertices relabelled
    in degree order: highest first, ties in point order."""
    diff = points[:, None, :] - points[None, :, :]
    adj = (diff ** 2).sum(axis=2) <= r * r
    np.fill_diagonal(adj, False)
    order = np.argsort(-adj.sum(axis=1), kind="stable")
    adj = adj[np.ix_(order, order)]
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in adj]


def _bnb_mis(masks: list[int], budget: int) -> int:
    """Exact maximum independent set by take/skip branch and bound, on
    masks in the degree order of ``_conflict_masks``.

    Depth first on an explicit stack, so a path as long as the point count
    cannot overflow the interpreter's recursion limit; the take branch is
    visited first and every visited node counts against ``budget``.
    """
    best = nodes = 0
    stack = [((1 << len(masks)) - 1, 0)]
    while stack:
        avail, size = stack.pop()
        nodes += 1
        if nodes > budget:
            raise TooLarge("branch-and-bound node budget exceeded")
        if size + avail.bit_count() <= best:
            continue
        if avail == 0:
            best = size
            continue
        # branch on the highest-degree available vertex: the lowest set bit
        low = avail & -avail
        stack.append((avail & ~low, size))
        stack.append((avail & ~(low | masks[low.bit_length() - 1]), size + 1))
    return best


def rgg_independence(points: np.ndarray, r: float, budget: int = 10 ** 6) -> int:
    """Exact independence number of the geometric graph on the (count, d)
    array ``points`` at radius r."""
    if r < 0:
        raise InvalidParameter("radius must be nonnegative")
    if len(points) == 0:
        return 0
    if points.shape[1] == 1:
        return int(_line_block([points[:, 0]], r)[0][0])
    return _bnb_mis(_conflict_masks(points, r), budget)


RGG_COLUMNS = [
    "lam", "r", "dloc", "dtv", "dk", "pmf_se_max",
    "mean_w", "var_w", "var_w_over_lam", "empty_annulus_frac",
]


def rgg_experiment(b: float, d: int, lambda_grid, replicates: int, seed: int) -> RateTable:
    """Law of the independence number at radius b*lambda^(-1/d) versus a
    translated Poisson matched to the empirical mean and variance.

    The regime knob b is a configuration choice ("small enough" has no
    explicit threshold); it is echoed in the metadata.  Also reports the
    empty-annulus diagnostic counter backing the block decomposition.
    """
    from .lattice import empirical_dist
    from .report import rate_table

    if not b > 0:
        raise InvalidParameter("b must be positive")
    if d < 1:
        raise InvalidParameter("d must be >= 1")

    def point(lam):
        r = b * lam ** (-1.0 / d)

        def one_block(start, count, rng):
            if d != 1:
                w = [rgg_independence(_ppp(lam, d, rng), r) for _ in range(count)]
                return np.array(w, dtype=np.int64), np.full(count, math.nan)
            # the draws stay one replicate at a time, in order (the Poisson
            # count takes a variable number of them); evaluation is per sub-chunk
            step = max(1, _LINE_CELLS // (int(lam) + 1))
            chunks = [
                _line_block(
                    [_ppp(lam, 1, rng)[:, 0] for _ in range(min(step, count - s))], r
                )
                for s in range(0, count, step)
            ]
            return tuple(np.concatenate(c) for c in zip(*chunks))

        parts = map_blocks(one_block, seed, replicates)
        w = np.concatenate([p[0] for p in parts])
        ann = np.concatenate([p[1] for p in parts])
        mean_w = float(w.mean())
        var_w = float(w.var(ddof=1))
        if not var_w > 0:  # a TP target needs a positive variance
            raise InvalidParameter(
                f"every replicate at lambda={lam:g} had the same independence "
                f"number ({int(w[0])}): the law has no spread to compare"
            )
        return empirical_dist(w), mean_w, var_w, {
            "lam": float(lam), "r": r,
            "mean_w": mean_w, "var_w": var_w, "var_w_over_lam": var_w / lam,
            "empty_annulus_frac": float(ann.mean()),
        }

    metadata = {
        "experiment": "rgg", "b": b, "d": d,
        "replicates": replicates, "seed": seed,
        "note": "regime knob b is a config choice; tp target is empirical",
    }
    return rate_table(RGG_COLUMNS, metadata, lambda_grid, point, replicates)
