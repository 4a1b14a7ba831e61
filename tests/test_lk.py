import math

import numpy as np
import pytest

from lkllt.errors import InvalidParameter
from lkllt.lattice import dist_from_weights, smooth_uniform
from lkllt.lk import (
    _COMBO_BETA,
    KNOWN_CASES,
    SQRT2,
    beta_exponent,
    lk_fuzz,
    lk_sides,
    random_dist,
)
from lkllt.metrics import distances, smoothing_term
from lkllt.tp import tp_dist

from helpers import binomial_dist

INF = math.inf


def test_beta_known_constant_cases():
    assert beta_exponent(1, 3, INF, INF, 1) == (True, pytest.approx(0.5))
    assert beta_exponent(1, 2, 1, 1, 1) == (True, pytest.approx(0.5))


def test_beta_inadmissible_case():
    admissible, _ = beta_exponent(1, 2, INF, 1, INF)
    assert admissible is False


def test_beta_validation():
    with pytest.raises(InvalidParameter):
        beta_exponent(2, 2, 1, 1, 1)
    with pytest.raises(InvalidParameter):
        beta_exponent(1, 3, 0.5, 1, 1)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_table_betas_from_exponent_formula(l):
    n = l + 1
    # (local, kolmogorov): q = p = inf
    assert beta_exponent(1, n, INF, INF, 1)[1] == pytest.approx(1 / l)
    # (local, wasserstein): q = inf, p = 1
    assert beta_exponent(1, n, 1, INF, 1)[1] == pytest.approx(2 / (l + 1))
    # (tv, wasserstein): q = p = 1
    assert beta_exponent(1, n, 1, 1, 1)[1] == pytest.approx(1 / (l + 1))
    assert _COMBO_BETA["dloc", "dtv"](l) == pytest.approx(1 / l)
    assert _COMBO_BETA["dloc", "dk"](l) == pytest.approx(1 / l)
    assert _COMBO_BETA["dloc", "dw"](l) == pytest.approx(2 / (l + 1))
    assert _COMBO_BETA["dtv", "dw"](l) == pytest.approx(1 / (l + 1))
    assert _COMBO_BETA["dk", "dw"](l) == pytest.approx(1 / (l + 1))


def test_combo_validation():
    F = dist_from_weights(0, [1, 2, 1])
    with pytest.raises(InvalidParameter, match="unsupported metric combination"):
        lk_sides(F, F, "dw", "dloc", 1)
    with pytest.raises(InvalidParameter, match="l must be a positive integer"):
        lk_sides(F, F, "dloc", "dk", 0)
    with pytest.raises(InvalidParameter, match="unsupported metric combination"):
        lk_sides(F, F, "local", "kolmogorov", 2)


def test_combo_table_is_keyed_by_the_keys_of_distances():
    keys = distances(dist_from_weights(0, [1]), dist_from_weights(1, [1])).keys()
    for d1, d2 in _COMBO_BETA:
        assert d1 in keys and d2 in keys, (d1, d2)


def test_smoothness_norms_are_cdf_difference_norms():
    """The order-(l+1) CDF-difference norm of lk_sides, taken from the CDF
    itself (0 left of the support, 1 right of it), is the order-l smoothing
    term."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        F = random_dist(rng)
        for l in (1, 2, 3):
            cdf = np.concatenate([np.zeros(l + 1), F.cdf(), np.ones(l + 1)])
            norm = float(np.abs(np.diff(cdf, n=l + 1)).sum())
            assert math.isclose(smoothing_term(F, l, 1), norm, rel_tol=1e-12, abs_tol=1e-14)


def test_lk_sides_equal_inputs():
    F = binomial_dist(12, 0.4)
    lhs, _, ratio = lk_sides(F, F, "dloc", "dk", 2)
    assert lhs == 0.0 and ratio == 0.0


def test_lk_sides_binomial_vs_tp():
    F = binomial_dist(20, 0.5)
    G = tp_dist(10.0, 5.0)
    assert lk_sides(F, G, "dloc", "dk", 2)[2] <= SQRT2 + 1e-12
    assert lk_sides(F, G, "dtv", "dw", 1)[2] <= SQRT2 + 1e-12


def test_smoothing_monotone_under_block_average():
    rng = np.random.default_rng(10)
    for _ in range(50):
        F, G = random_dist(rng), random_dist(rng)
        for m in (2, 3):
            smoothed = distances(smooth_uniform(F, m), smooth_uniform(G, m))
            raw = distances(F, G)
            for key in ("dk", "dtv", "dw"):
                assert smoothed[key] <= raw[key] + 1e-12


def test_fuzz_trivial_equal_pair():
    F = dist_from_weights(0, [1, 2, 1])
    assert lk_sides(F, F, *KNOWN_CASES["n2_p1q1r1"])[2] == 0.0


@pytest.mark.parametrize("case", sorted(KNOWN_CASES))
def test_fuzz_known_constant_small(case):
    worst = lk_fuzz(500, seed=1, cases=(case,))[0][case]
    assert worst <= SQRT2 + 1e-12


def test_fuzz_deterministic_and_complete():
    worst, rows = lk_fuzz(300, seed=7, cases=("n2_p1q1r1",))
    assert lk_fuzz(300, seed=7, cases=("n2_p1q1r1",)) == (worst, rows)
    assert [r[0] for r in rows] == list(range(300))
    # the reduction is a max over per-trial ratios: order independent
    assert worst["n2_p1q1r1"] == max(r[4] for r in rows)


def test_fuzz_of_all_cases_draws_each_pair_once():
    cases = tuple(sorted(KNOWN_CASES))
    worsts, rows = lk_fuzz(200, seed=3, cases=cases)
    want_rows: list = []
    for case in cases:  # one pass per case: every trial of a case, then the next
        worst, case_rows = lk_fuzz(200, seed=3, cases=(case,))
        assert worsts[case] == worst[case]
        want_rows += case_rows
    assert rows == want_rows


def test_fuzz_validation():
    with pytest.raises(InvalidParameter):
        lk_fuzz(0, 1, ("n2_p1q1r1",))
    with pytest.raises(InvalidParameter):
        lk_fuzz(10, 1, ("bogus",))
    with pytest.raises(InvalidParameter):
        lk_fuzz(10, 1, ("n2_p1q1r1", "bogus"))


def test_all_table_rows_on_random_pairs():
    # rows covered by the sqrt(2) constant (directly or through the
    # kolmogorov <= total-variation reduction) are asserted; the others have
    # no known constant and are only reported
    asserted = {
        ("dloc", "dk", 2),
        ("dloc", "dtv", 2),
        ("dtv", "dw", 1),
        ("dk", "dw", 1),
    }
    combos = [
        (d1, d2, l)
        for (d1, d2) in (
            ("dloc", "dtv"),
            ("dloc", "dk"),
            ("dloc", "dw"),
            ("dtv", "dw"),
            ("dk", "dw"),
        )
        for l in (1, 2)
    ]
    rng = np.random.default_rng(99)
    observed = {}
    for key in combos:
        worst = 0.0
        for _ in range(300):
            worst = max(worst, lk_sides(random_dist(rng), random_dist(rng), *key)[2])
        observed[key] = worst
        assert math.isfinite(worst) and worst >= 0.0
        if key in asserted:
            assert worst <= SQRT2 + 1e-12, key
    import warnings

    reported = {k: round(v, 3) for k, v in observed.items() if k not in asserted}
    warnings.warn(f"unknown-constant interpolation rows, empirical max ratios: {reported}")
