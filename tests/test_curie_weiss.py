import dataclasses
import math

import numpy as np
import pytest

from lkllt import curie_weiss
from lkllt.curie_weiss import (
    CWPairModel,
    CWParams,
    CWState,
    cw_exact_pmf,
    cw_m0,
    cw_q,
    cw_rate_experiment,
    parity_shift,
    _log_factorials,
)
from lkllt.errors import InvalidParameter
from lkllt.rngutil import block_rng
from lkllt.smoothing import pair_bound_d1, pair_stats

from helpers import all_spin_configs, cw_pair_stats_per_replicate, gibbs_weight


def test_exact_pmf_independent_spins():
    law = cw_exact_pmf(CWParams(2, 0.0, 0.0))
    assert law.offset == -2
    assert np.allclose(law.pmf, [0.25, 0.0, 0.5, 0.0, 0.25])


@pytest.mark.parametrize("beta", [0.3, 0.7, 1.2])
def test_exact_pmf_two_sites(beta):
    law = cw_exact_pmf(CWParams(2, beta, 0.0))
    assert law.pmf[2] == pytest.approx(1.0 / (1.0 + math.exp(beta)), abs=1e-14)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("beta,h", [(0.5, 0.0), (0.8, 0.3), (0.2, -0.4)])
def test_exact_pmf_matches_config_enumeration(n, beta, h):
    weights = {}
    for spins in all_spin_configs(n):
        w = sum(spins)
        weights[w] = weights.get(w, 0.0) + gibbs_weight(spins, beta, h)
    total = sum(weights.values())
    law = cw_exact_pmf(CWParams(n, beta, h))
    for w, wt in weights.items():
        assert law.pmf[w - law.offset] == pytest.approx(wt / total, abs=1e-13)


def test_exact_pmf_large_n_variance_scale():
    law = cw_exact_pmf(CWParams(1000, 0.5, 0.0))
    assert law.mean() == pytest.approx(0.0, abs=1e-9)
    assert law.variance() / 1000 == pytest.approx(2.0, rel=0.1)


def test_half_lattice_parity():
    for n in (5, 6, 9):
        full = cw_exact_pmf(CWParams(n, 0.4, 0.1))
        half = cw_exact_pmf(CWParams(n, 0.4, 0.1), half_lattice=True)
        delta = parity_shift(n)
        assert len(half.pmf) == n + 1
        assert half.mean() == pytest.approx((full.mean() + delta) / 2, abs=1e-10)
        assert half.variance() == pytest.approx(full.variance() / 4, abs=1e-10)


def test_m0_zero_field():
    assert cw_m0(0.5, 0.0) == 0.0


@pytest.mark.parametrize("beta,h", [(0.5, 0.2), (0.9, -0.1), (0.1, 0.7)])
def test_m0_residual(beta, h):
    m = cw_m0(beta, h)
    assert abs(math.tanh(beta * m + h) - m) < 1e-14


def test_m0_supercritical_nonnegative_branch():
    m = cw_m0(1.5, 0.0)
    assert m > 0.5
    assert abs(math.tanh(1.5 * m) - m) < 1e-14
    with pytest.raises(InvalidParameter):
        cw_m0(1.2, 0.3)


def test_q_two_sites_beta_zero():
    q2, *_ = cw_q(CWState(2, -2), CWParams(2, 0.0, 0.0))
    assert q2 == pytest.approx(0.5)


def test_q_two_sites_general_beta():
    beta = 0.8
    q2, *_ = cw_q(CWState(2, -2), CWParams(2, beta, 0.0))
    assert q2 == pytest.approx((1 + math.tanh(-beta / 2)) / 2, abs=1e-14)


def test_q_saturated_state():
    q2, *_ = cw_q(CWState(4, 4), CWParams(4, 0.6, 0.0))
    assert q2 == 0.0


def test_state_validation():
    with pytest.raises(InvalidParameter):
        CWState(4, 3)
    with pytest.raises(InvalidParameter):
        CWState(4, 6)


def _site_conditional_up(spins, i, beta, h):
    n = len(spins)
    m_i = (sum(spins) - spins[i]) / n
    return (1.0 + math.tanh(beta * m_i + h)) / 2.0


def test_w_sufficiency_site_by_site():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        beta = float(rng.uniform(0.0, 1.5))
        h = float(rng.uniform(-0.5, 0.5))
        spins = rng.choice([-1, 1], size=n)
        w = int(spins.sum())
        q2_sites = sum(
            _site_conditional_up(spins, i, beta, h)
            for i in range(n)
            if spins[i] == -1
        ) / n
        q2, *_ = cw_q(CWState(n, w), CWParams(n, beta, h))
        assert q2 == pytest.approx(q2_sites, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta,h", [(0.5, 0.0), (0.9, 0.2)])
def test_kernel_consistency_small_n(n, beta, h):
    # one heat-bath step from each configuration, enumerated over sites and
    # spin outcomes, must reproduce the closed-form jump probabilities
    params = CWParams(n, beta, h)
    for spins in all_spin_configs(n):
        w = sum(spins)
        up2 = down2 = 0.0
        for i in range(n):
            p_up = _site_conditional_up(spins, i, beta, h)
            if spins[i] == -1:
                up2 += p_up / n
            else:
                down2 += (1.0 - p_up) / n
        q2, qn2, _, _ = cw_q(CWState(n, w), params)
        assert q2 == pytest.approx(up2, abs=1e-14)
        assert qn2 == pytest.approx(down2, abs=1e-14)


def test_pair_model_independent_spins_rate():
    stats = pair_stats(CWPairModel(CWParams(100, 0.0, 0.0)), 2, 30000, seed=4)
    assert stats.q_m == pytest.approx(0.25, abs=3 * stats.se_q_m)


def test_pair_model_bound_dominates_exact():
    from lkllt.metrics import smoothing_term

    params = CWParams(50, 0.5, 0.0)
    law = cw_exact_pmf(params)
    stats = pair_stats(CWPairModel(params), 2, 30000, seed=6)
    assert pair_bound_d1(stats) >= smoothing_term(law, 1, 2)


def test_var_q_scales_inverse_n():
    vals = []
    for n in (100, 200, 400, 800, 1600):
        st = CWPairModel(CWParams(n, 0.5, 0.0)).exact_stats()
        vals.append(st.var_q_plus * n)
    assert max(vals) <= 1.0
    assert max(vals) <= 2.0 * min(vals)


def test_mean_field_deviation_bound():
    # |Q(+2) - (1-m0^2)/4| <= C (|m - m0| + 1/n) with one frozen constant
    C = 2.0
    rng = np.random.default_rng(22)
    for beta, h in ((0.3, 0.0), (0.5, 0.2), (0.8, 0.0), (0.9, -0.1)):
        m0 = cw_m0(beta, h)
        for n in (20, 50, 200):
            params = CWParams(n, beta, h)
            model = CWPairModel(params)
            w = rng.choice(model.values, size=200, p=model.probs)
            for wi in w:
                q2, *_ = cw_q(CWState(n, int(wi)), params)
                lhs = abs(q2 - (1 - m0**2) / 4)
                assert lhs <= C * (abs(wi / n - m0) + 1.0 / n)


def test_two_step_gap_scales_inverse_n():
    # E|Q(2,2) - Q(2)^2| = O(1/n) along the grid
    vals = []
    for n in (100, 200, 400, 800):
        st = CWPairModel(CWParams(n, 0.5, 0.0)).exact_stats()
        vals.append(st.ediff_plus * n)
    assert max(vals) <= 1.0
    assert max(vals) <= 2.0 * min(vals)


def test_rate_experiment_slopes_small_grid():
    grid = [2**k for k in range(6, 10)]
    tab = cw_rate_experiment(0.5, 0.0, grid)
    ns = np.log(np.array(tab.column("n"), dtype=float))
    dloc_slope = np.polyfit(ns, np.log(tab.column("dloc")), 1)[0]
    dtv_slope = np.polyfit(ns, np.log(tab.column("dtv")), 1)[0]
    assert dloc_slope <= -0.70
    assert dtv_slope <= -1 / 3
    tab2 = cw_rate_experiment(0.5, 0.2, grid)
    scaled = np.array(tab2.column("dloc")) * np.sqrt(np.array(grid, dtype=float))
    assert np.all(np.diff(scaled) < 0)


def test_rate_experiment_validation():
    with pytest.raises(InvalidParameter):
        cw_rate_experiment(1.0, 0.0, [64])


def test_log_factorials_are_read_only_prefixes_of_one_table():
    small = _log_factorials(10)
    large_n = len(curie_weiss._log_factorial_table) + 100  # forces the table to grow
    large = _log_factorials(large_n)
    assert len(small) == 11 and len(large) == large_n + 1
    assert np.array_equal(small, [math.lgamma(i + 1) for i in range(11)])
    assert np.array_equal(_log_factorials(10), small)  # a small n after a large one
    assert large[-1] == math.lgamma(large_n + 1)
    assert np.array_equal(large[:11], small)
    for table in (small, large, _log_factorials(7)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


# (n, beta, h): the smallest n, small and medium n, the benchmark's n, and
# an odd n near the critical point, where the law is widest
CW_SAMPLER_CASES = [
    (1, 0.5, 0.0), (7, 0.5, 0.3), (30, 0.4, 0.0), (1000, 0.5, -0.1),
    (100000, 0.5, 0.0), (50001, 0.99, 0.0),
]


@pytest.mark.parametrize("n,beta,h", CW_SAMPLER_CASES)
def test_state_draws_equal_generator_choice(n, beta, h):
    model = CWPairModel(CWParams(n, beta, h))
    for count in (1, 17, 4096):
        got = model.q_block(block_rng(5, count), count, 2)
        want = block_rng(5, count).choice(model.values, size=count, p=model.probs)
        assert np.array_equal(model.values[got], want)


def _sampler_probs(case):
    if case == "uniform":
        # one state per bucket: a CDF step on every bucket edge
        return np.full(curie_weiss._GUIDE_SIZE, 1.0 / curie_weiss._GUIDE_SIZE)
    return CWPairModel(CWParams(*case)).probs


@pytest.mark.parametrize("case", CW_SAMPLER_CASES + ["uniform"])
def test_guided_search_equals_cdf_search(case):
    cdf, guide = curie_weiss._sampler_tables(_sampler_probs(case))
    assert cdf[-1] == 1.0  # so every key in [0, 1) falls on a state
    size = curie_weiss._GUIDE_SIZE
    edges = np.arange(size) / size
    steps = cdf[cdf < 1.0]
    keys = np.concatenate([
        [0.0, 1.0 - 2.0 ** -53],
        edges,
        np.nextafter(edges, 1.0),
        steps,
        np.nextafter(steps, 0.0),
        np.nextafter(steps, 1.0),
    ])
    keys = keys[keys < 1.0]
    got = curie_weiss._guided_search(cdf, guide, keys)
    assert np.array_equal(got, cdf.searchsorted(keys, side="right"))


def test_sampler_tables_are_built_by_the_first_draw():
    model = CWPairModel(CWParams(1000, 0.5, 0.0))
    model.exact_stats()
    assert model._sampler is None
    model.q_block(block_rng(1, 0), 3, 2)
    assert model._sampler is not None


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n,beta,h,reps", [
    (1, 0.5, 0.0, 4999),
    (30, 0.4, 0.0, 30000),
    (1000, 0.5, -0.1, 9001),
    (50001, 0.99, 0.0, 20000),
])
def test_pair_stats_equal_per_replicate_reference(n, beta, h, reps, threads, monkeypatch):
    monkeypatch.setenv("LKLLT_THREADS", threads)
    model = CWPairModel(CWParams(n, beta, h))
    got = pair_stats(model, 2, reps, seed=8)
    want = cw_pair_stats_per_replicate(model, reps, seed=8)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
