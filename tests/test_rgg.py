import math
import warnings

import numpy as np
import pytest

from lkllt.errors import InvalidParameter, TooLarge
from lkllt.rgg import PointSet, ppp_sample, rgg_experiment, rgg_independence
from lkllt.rngutil import block_rng

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
