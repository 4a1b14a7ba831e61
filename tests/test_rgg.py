import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lkllt.errors import InvalidParameter, TooLarge
from lkllt.rgg import (
    _LINE_CELLS,
    PointSet,
    _bnb_mis,
    _line_block,
    _ppp,
    ppp_sample,
    rgg_experiment,
    rgg_independence,
)
from lkllt.rngutil import block_rng, map_blocks

from helpers import subset_max_independent


def pts1d(xs):
    return PointSet(1, np.asarray(xs, dtype=float).reshape(-1, 1))


def test_line_example():
    assert rgg_independence(pts1d([0.1, 0.15, 0.5, 0.52, 0.9]), 0.1) == 3


def test_zero_radius_counts_distinct_points():
    assert rgg_independence(pts1d([0.3, 0.3, 0.7]), 0.0) == 2


def test_single_point():
    assert rgg_independence(pts1d([0.5]), 0.2) == 1
    assert rgg_independence(PointSet(1, np.zeros((0, 1))), 0.2) == 0


def test_radius_validation():
    with pytest.raises(InvalidParameter):
        rgg_independence(pts1d([0.5]), -0.1)


def test_greedy_matches_subset_bruteforce():
    rng = block_rng(17, 0)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        xs = rng.random((n, 1))
        r = float(rng.uniform(0.01, 0.4))
        assert rgg_independence(PointSet(1, xs), r) == subset_max_independent(xs, r)


def test_bnb_matches_subset_bruteforce_2d():
    rng = block_rng(18, 0)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        pts = rng.random((n, 2))
        r = float(rng.uniform(0.05, 0.6))
        assert rgg_independence(PointSet(2, pts), r) == subset_max_independent(pts, r)


def test_bnb_budget_guard():
    rng = block_rng(19, 0)
    pts = PointSet(2, rng.random((40, 2)))
    with pytest.raises(TooLarge):
        rgg_independence(pts, 0.05, budget=10)


def test_monotone_in_radius():
    rng = block_rng(20, 0)
    xs = rng.random((30, 1))
    vals = [rgg_independence(PointSet(1, xs), r) for r in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ppp_point_count_concentration():
    lam = 40.0
    counts = [len(ppp_sample(lam, 1, seed)) for seed in range(1000)]
    mean = np.mean(counts)
    assert abs(mean - lam) <= 4 * np.sqrt(lam / 1000)


def test_ppp_in_unit_cube():
    pts = ppp_sample(5.0, 3, seed=1)
    assert pts.points.shape[1] == 3
    assert np.all((pts.points >= 0) & (pts.points <= 1))
    with pytest.raises(InvalidParameter):
        ppp_sample(0.0, 1, 1)
    with pytest.raises(InvalidParameter):
        ppp_sample(1.0, 0, 1)


def test_experiment_variance_band_and_decay():
    tab = rgg_experiment(0.2, 1, [50, 100, 200], replicates=20000, seed=12)
    ratios = tab.column("var_w_over_lam")
    assert max(ratios) / min(ratios) <= 3.0
    dloc = tab.column("dloc")
    assert dloc[-1] < dloc[0]
    ann = tab.column("empty_annulus_frac")
    assert all(0.0 < a < 1.0 for a in ann)


def test_experiment_replicate_stability():
    tab_a = rgg_experiment(0.2, 1, [50], replicates=4000, seed=12)
    tab_b = rgg_experiment(0.2, 1, [50], replicates=8000, seed=12)
    a = dict(zip(tab_a.columns, tab_a.rows[0]))
    b = dict(zip(tab_b.columns, tab_b.rows[0]))
    se = max(a["pmf_se_max"], b["pmf_se_max"])
    assert abs(a["dloc"] - b["dloc"]) <= 6 * se


def test_experiment_d2_reports_nan_annulus_without_warning():
    # the annulus diagnostic is defined for d = 1 only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = rgg_experiment(0.2, 2, [20], 20, 1)
    assert math.isnan(tab.column("empty_annulus_frac")[0])


def test_experiment_validation():
    with pytest.raises(InvalidParameter):
        rgg_experiment(0.0, 1, [50], 100, 1)
    with pytest.raises(InvalidParameter):
        rgg_experiment(0.2, 1, [50], 1, 1)


# ---------------------------------------------------------------------------
# references: the per-replicate code that the block kernels replaced


def _greedy_line_reference(xs, r):
    picked = 0
    last = -math.inf
    for x in np.sort(xs):
        if x > last + r:
            picked += 1
            last = x
    return picked


def _annulus_reference(xs, r):
    if r <= 0:
        return math.nan
    n_balls = int(1.0 / (6.0 * r))
    if n_balls == 0:
        return math.nan
    centers = 3.0 * r + 6.0 * r * np.arange(n_balls)
    dist = np.abs(xs[None, :] - centers[:, None])
    in_annulus = (dist > r) & (dist <= 2 * r)
    return float((~in_annulus.any(axis=1)).mean())


def _bnb_mis_recursive(masks, budget):
    """The recursive search of _bnb_mis: (best, nodes visited)."""
    best = 0
    nodes = 0
    order = sorted(range(len(masks)), key=lambda i: bin(masks[i]).count("1"), reverse=True)

    def rec(avail, size):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise TooLarge("budget")
        if size + bin(avail).count("1") <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        v = next(i for i in order if (avail >> i) & 1)
        rec(avail & ~((1 << v) | masks[v]), size + 1)
        rec(avail & ~(1 << v), size)

    rec((1 << len(masks)) - 1, 0)
    return best, nodes


@pytest.mark.parametrize("b", [0.05, 0.2, 2.0])
@pytest.mark.parametrize("lam", [0.5, 3.0, 50.0, 200.0, 1000.0])
def test_line_block_matches_per_replicate_reference(lam, b):
    rng = block_rng(31, int(lam))
    sets = [_ppp(lam, 1, rng).points[:, 0] for _ in range(40)]
    r = b / lam
    w, ann = _line_block(sets, r)
    assert np.array_equal(w, [_greedy_line_reference(xs, r) for xs in sets])
    assert np.array_equal(ann, [_annulus_reference(xs, r) for xs in sets], equal_nan=True)
    if lam == 0.5:
        assert any(len(xs) == 0 for xs in sets)
    if r > 1 / 6:
        assert np.isnan(ann).all()


def test_line_block_zero_radius_and_duplicates():
    rng = block_rng(32, 0)
    # two decimals force repeated points within and across sets
    sets = [np.round(rng.random(int(k)), 2) for k in rng.integers(0, 60, size=50)]
    for r in (0.0, 0.01, 0.05):
        w, ann = _line_block(sets, r)
        assert np.array_equal(w, [_greedy_line_reference(xs, r) for xs in sets])
        assert np.array_equal(ann, [_annulus_reference(xs, r) for xs in sets], equal_nan=True)
    assert np.array_equal(_line_block(sets, 0.0)[0], [len(np.unique(xs)) for xs in sets])


@pytest.mark.parametrize("lam, b", [(3.0, 0.2), (200.0, 0.05), (1000.0, 2.0)])
def test_experiment_d1_matches_per_replicate_loop(lam, b):
    # crosses sub-chunk boundaries (one of them only past 2048 replicates)
    reps = _LINE_CELLS // (int(lam) + 1) + 3 if lam < 10 else 300
    r = b * lam ** -1.0

    def reference(start, count, rng):
        xs = [_ppp(lam, 1, rng).points[:, 0] for _ in range(count)]
        return [_greedy_line_reference(x, r) for x in xs], [_annulus_reference(x, r) for x in xs]

    parts = map_blocks(reference, 5, reps)
    w = np.concatenate([p[0] for p in parts])
    ann = np.concatenate([p[1] for p in parts])
    tab = rgg_experiment(b, 1, [lam], reps, 5)
    row = dict(zip(tab.columns, tab.rows[0]))
    assert row["mean_w"] == float(w.mean())
    assert row["var_w"] == float(w.var(ddof=1))
    want = math.nan if np.isnan(ann).all() else float(np.nanmean(ann))
    assert np.array_equal([row["empty_annulus_frac"]], [want], equal_nan=True)


def test_experiment_d1_memory_is_bounded_by_sub_chunks():
    # a whole 4096-replicate block at lambda = 1000 would pad about 4.4M points
    tracemalloc.start()
    try:
        tab = rgg_experiment(0.2, 1, [1000.0], 4096, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tab.rows) == 1
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_bnb_matches_recursive_search_node_for_node():
    rng = block_rng(33, 0)
    for _ in range(30):
        n = int(rng.integers(1, 26))
        pts = rng.random((n, 2))
        masks = []
        for i in range(n):
            near = ((pts - pts[i]) ** 2).sum(axis=1) <= 0.3 ** 2
            near[i] = False
            masks.append(sum(1 << int(j) for j in np.flatnonzero(near)))
        best, nodes = _bnb_mis_recursive(masks, 10**6)
        assert _bnb_mis(masks, nodes) == best
        with pytest.raises(TooLarge):
            _bnb_mis(masks, nodes - 1)


def test_bnb_long_branch_does_not_recurse():
    # the take branch of 3000 isolated vertices is 3000 levels deep
    assert _bnb_mis([0] * 3000, 10**5) == 3000
