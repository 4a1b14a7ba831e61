import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lkllt.curie_weiss import CWPairModel, CWParams, cw_exact_pmf
from lkllt.er import (
    ERPairModel,
    enumerate_graphs_oracle,
    iso_exact_pair_stats,
    iso_moments,
    iso_smoothing_bounds,
)
from lkllt.errors import DegenerateChain, InvalidParameter
from lkllt.lattice import convolve, dist_from_weights
from lkllt.metrics import smoothing_term
from lkllt.smoothing import (
    PairChainStats,
    PairModel,
    _state_counts,
    _weighted_mean_se,
    _weighted_var_se,
    embedded_sum_bound,
    exact_pair_stats,
    mattner_roos_bound,
    pair_bound_d1,
    pair_bound_d2,
    pair_stats,
)

from helpers import pair_stats_concatenated


def test_mattner_roos_point_mass_and_empty():
    base = 2.0 * math.sqrt(2.0 / math.pi) * 2.0
    assert mattner_roos_bound([2.0]) == pytest.approx(base)
    assert mattner_roos_bound([]) == pytest.approx(base)


def test_mattner_roos_eight_bernoullis():
    bound = mattner_roos_bound([1.0] * 8)
    assert bound == pytest.approx(2.0 * math.sqrt(2.0 / math.pi) / math.sqrt(4.25))
    be = dist_from_weights(0, [1, 1])
    law = be
    for _ in range(7):
        law = convolve(law, be)
    exact = smoothing_term(law, 1, 1)
    assert exact == pytest.approx(140 / 256)
    assert exact <= bound


def test_mattner_roos_validation():
    for bad in ([0.0], [2.5], [-1.0], [math.nan]):
        with pytest.raises(InvalidParameter):
            mattner_roos_bound(bad)


def test_mattner_roos_dominates_iid_sums():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = float(rng.uniform(0.05, 0.95))
        gap = int(rng.integers(1, 3))
        w = np.zeros(gap + 1)
        w[0], w[-1] = a, 1 - a
        x = dist_from_weights(0, w)
        d1 = smoothing_term(x, 1, 1)
        count = int(rng.integers(1, 13))
        law = x
        for _ in range(count - 1):
            law = convolve(law, x)
        assert smoothing_term(law, 1, 1) <= mattner_roos_bound([d1] * count) + 1e-12


def test_embedded_sum_bound_values():
    v = embedded_sum_bound(2, 0.25, 0.5, 100.0, 0.01)
    assert v == pytest.approx(0.04 + 2 * (16 / (math.pi * 0.25 * 48)))
    v1 = embedded_sum_bound(1, 1.0, 1.0, 101.0, 0.0)
    assert v1 == pytest.approx(2 * math.sqrt(8 / (math.pi * 100)))
    assert embedded_sum_bound(3, 0.5, 1.0, 50.0, 1.0) >= 2**3


def test_embedded_sum_bound_validation():
    with pytest.raises(InvalidParameter):
        embedded_sum_bound(2, 0.25, 0.5, 4.0, 0.0)  # beta*sigma2 <= k
    with pytest.raises(InvalidParameter):
        embedded_sum_bound(2, 1.5, 0.5, 100.0, 0.0)
    with pytest.raises(InvalidParameter):
        embedded_sum_bound(0, 0.5, 0.5, 100.0, 0.0)
    with pytest.raises(InvalidParameter):
        embedded_sum_bound(1, 0.5, 0.5, 100.0, 1.5)


def test_pair_stats_two_site_model():
    # two independent fair spins: Q(+2) is 1/2, 1/4, 0 at w = -2, 0, 2
    model = CWPairModel(CWParams(2, 0.0, 0.0))
    stats = pair_stats(model, m=2, replicates=50000, seed=3)
    assert stats.q_m == pytest.approx(0.25, abs=3 * stats.se_q_m)


def test_pair_stats_seed_consistency():
    model = CWPairModel(CWParams(30, 0.4, 0.0))
    a = pair_stats(model, 2, 4000, seed=1)
    b = pair_stats(model, 2, 4000, seed=2)
    assert a.q_m != b.q_m
    tol = 5 * math.hypot(a.se_q_m, b.se_q_m)
    assert abs(a.q_m - b.q_m) <= tol


def test_pair_stats_er_isolated_rate():
    n, p = 6, 0.5
    stats = pair_stats(ERPairModel(n, p, "isolated"), 1, 40000, seed=5)
    mom = iso_moments(n, p)
    expected = (mom.e_w1 - 2 * mom.e_e2) * (1 - p) / math.comb(n, 2)
    assert stats.q_m == pytest.approx(expected, abs=3 * stats.se_q_m)


def test_pair_stats_validation():
    model = CWPairModel(CWParams(4, 0.2, 0.0))
    with pytest.raises(InvalidParameter):
        pair_stats(model, 2, 1, seed=0)
    with pytest.raises(InvalidParameter):
        pair_stats(model, 0, 10, seed=0)


def test_base_pair_model_has_no_q_block():
    with pytest.raises(NotImplementedError):
        PairModel().q_block(np.random.default_rng(0), 4, 1)


def test_bounds_trivial_and_errors():
    flat = PairChainStats(
        m=1, q_m=0.5, var_q_plus=0.0, var_q_minus=0.0,
        ediff_plus=0.0, ediff_minus=0.0, replicates=10,
    )
    assert pair_bound_d1(flat) == 0.0
    assert pair_bound_d2(flat) == 0.0
    dead = PairChainStats(
        m=1, q_m=0.0, var_q_plus=0.0, var_q_minus=0.0,
        ediff_plus=0.0, ediff_minus=0.0, replicates=10,
    )
    with pytest.raises(DegenerateChain):
        pair_bound_d1(dead)
    # a positive rate whose square underflows leaves d2 undefined, not d1
    tiny = PairChainStats(
        m=1, q_m=1e-170, var_q_plus=0.0, var_q_minus=0.0,
        ediff_plus=0.0, ediff_minus=0.0, replicates=10,
    )
    assert pair_bound_d1(tiny) == 0.0
    with pytest.raises(DegenerateChain):
        pair_bound_d2(tiny)


def test_degenerate_chain_from_sampling():
    # all spins pinned up by a huge field: W = n almost surely, no +2 moves
    model = CWPairModel(CWParams(6, 0.1, 50.0))
    with pytest.raises(DegenerateChain):
        pair_stats(model, 2, 100, seed=0)


def test_bounds_dominate_exact_smoothing_cw():
    params = CWParams(50, 0.5, 0.0)
    law = cw_exact_pmf(params)
    exact = CWPairModel(params).exact_stats()
    assert pair_bound_d1(exact) >= smoothing_term(law, 1, 2)
    assert pair_bound_d2(exact) >= smoothing_term(law, 2, 2)
    mc = pair_stats(CWPairModel(params), 2, 30000, seed=9)
    assert pair_bound_d1(mc) >= smoothing_term(law, 1, 2) - 3 * mc.se_q_m
    assert pair_bound_d2(mc) >= smoothing_term(law, 2, 2) - 3 * mc.se_q_m


def _bound_or_none(bound, *args):
    """The bound, or None where the chain degenerates and it is undefined."""
    try:
        return bound(*args)
    except DegenerateChain:
        return None


def test_isolated_vertex_bounds_dominate_the_exact_smoothing_terms():
    # no Monte Carlo: the law and both sets of bounds are exact, so the
    # bounds must lie above the smoothing terms with no slack (the smallest
    # bound/truth ratio is about 1.57)
    for n in range(3, 8):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            law, _ = enumerate_graphs_oracle(n, p, "isolated")
            truth = [smoothing_term(law, k, m) for m in (1, 2) for k in (1, 2)]
            closed = _bound_or_none(iso_smoothing_bounds, n, p) or (None,) * 4
            stats = [iso_exact_pair_stats(n, p, m) for m in (1, 2)]
            exact = [_bound_or_none(b, st) for st in stats for b in (pair_bound_d1, pair_bound_d2)]
            for bounds in (closed, exact):
                for bound, term in zip(bounds, truth):
                    assert bound is None or bound >= term, (n, p, bounds, truth)


def test_curie_weiss_bounds_dominate_the_exact_smoothing_terms():
    # the smallest bound/truth ratios are about 1.25 (d1) and 2.07 (d2)
    for beta in (0.2, 0.5, 0.8):
        for h in (0.0, 0.1, -0.3):
            for n in (10, 64, 1000, 100_000):
                params = CWParams(n, beta, h)
                stats = CWPairModel(params).exact_stats()
                law = cw_exact_pmf(params, half_lattice=True)
                for k, bound in ((1, pair_bound_d1), (2, pair_bound_d2)):
                    value = _bound_or_none(bound, stats)
                    assert value is None or value >= smoothing_term(law, k, 1), (params, k)


def test_exact_pair_stats_matches_hand_weights():
    probs = np.array([0.25, 0.5, 0.25])
    qp = np.array([0.5, 0.25, 0.0])
    qm = np.array([0.0, 0.25, 0.5])
    st = exact_pair_stats(probs, qp, qm, qp**2, qm**2, m=2)
    assert st.q_m == pytest.approx(0.25)
    assert st.var_q_plus == pytest.approx(np.dot(probs, (qp - 0.25) ** 2))
    assert st.ediff_plus == pytest.approx(0.0)


def test_mean_se_and_var_se_equal_numpy_reductions():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    lengths = st.one_of(
        st.integers(2, 20_000),
        st.sampled_from([2, 3, 7, 9, 15, 8191, 8192, 8193, 8199, 16_385, 19_999]),
    )

    # ``states`` distinct values drawn with replacement: a few states give
    # long runs of repeated values, one gives a constant array
    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(n=lengths, states=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
                      scale=st.sampled_from([1e-9, 1.0, 3e5]))
    def check(n, states, seed, scale):
        rng = np.random.default_rng(seed)
        table = rng.random(states) * scale
        index = rng.integers(0, states, n).astype(np.int32)
        x = table[index]
        # unit weights, as per-replicate values get them: numpy's reductions
        # bit for bit, the variance from pairwise sums of the squared deviations
        ones = np.broadcast_to(1.0, n)
        want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))
        assert _weighted_mean_se(ones, x) == want
        dev2 = x - x.mean()
        dev2 *= dev2
        var = float(np.add.reduce(dev2) / (n - 1))
        inner = float(np.add.reduce(dev2 * dev2) / n) - (n - 3) / (n - 1) * var * var
        want_var = (var, math.sqrt(max(inner, 0.0) / n))
        assert _weighted_var_se(ones, x) == want_var
        # the same values as state counts: equal up to the order of the sums
        w = np.bincount(index, minlength=states).astype(float)
        for got, exact, unit in zip(
            (*_weighted_mean_se(w, table), *_weighted_var_se(w, table)),
            (*want, *want_var),
            (scale, scale, scale ** 2, scale ** 2),
        ):
            assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-12 * unit)

    check()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("reps", [2, 3, 4097, 9001])
@pytest.mark.parametrize("make,m", [
    (lambda: ERPairModel(6, 0.5, "isolated"), 1),
    (lambda: ERPairModel(6, 0.5, "isolated"), 2),
    (lambda: ERPairModel(12, 0.3, "triangles"), 1),
    (lambda: ERPairModel(20, 0.3, "triangles"), 1),
], ids=["iso-m1", "iso-m2", "tri-n12", "tri-n20"])
def test_pair_stats_equal_concatenated_reference(make, m, reps, threads, monkeypatch):
    monkeypatch.setenv("LKLLT_THREADS", threads)

    def run(fn):
        try:
            return fn(make(), m, reps, 7)
        except DegenerateChain:
            return "degenerate"

    got, want = run(pair_stats), run(pair_stats_concatenated)
    if want == "degenerate":
        assert got == want
        return
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_pair_stats_memory_per_replicate(monkeypatch):
    # a ceiling of 3.5 doubles a replicate (an int32 state index, Q(+m),
    # Q(-m) and one more array of per-replicate values); the state tally
    # sits far under it
    monkeypatch.setenv("LKLLT_THREADS", "1")
    reps = 200_000
    model = CWPairModel(CWParams(100000, 0.5))
    tracemalloc.start()
    try:
        pair_stats(model, 2, reps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * reps + 2e6


def test_pair_stats_memory_per_replicate_on_a_model_without_states(monkeypatch):
    # a ceiling of 10 doubles a replicate: Q(+m), Q(-m), Q(m,m), Q(-m,-m),
    # then the pooled values, their unit weights and one temporary of the
    # pooled length; the per-replicate unit weights are a stride-0 view
    monkeypatch.setenv("LKLLT_THREADS", "1")
    reps = 200_000
    model = ERPairModel(6, 0.5, "isolated")
    tracemalloc.start()
    try:
        pair_stats(model, 1, reps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * reps + 2e6


def test_pair_stats_memory_does_not_grow_with_replicates_on_a_finite_state_model(monkeypatch):
    # one count per state (17,107 states here): the peak is the sampler's
    # tables and one block's draws, at 100k replicates as at 1.4M (a block
    # generator kept per 4,096 replicates would add about 0.2 MB)
    monkeypatch.setenv("LKLLT_THREADS", "1")
    pair_stats(CWPairModel(CWParams(1000, 0.5)), 2, 5000, seed=2)  # numpy's one-time setup

    def peak(reps):
        model = CWPairModel(CWParams(100000, 0.5))
        tracemalloc.start()
        try:
            pair_stats(model, 2, reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100_000), peak(1_400_000)
    assert large <= 2e6
    assert abs(large - small) <= 0.1e6


class _WideStates(PairModel):
    # 2^20 states, so adding one block's counts takes about as long as
    # drawing them
    def __init__(self):
        self.q_table = (np.zeros(1 << 20),) * 4

    def q_block(self, rng, count, m):
        return rng.integers(0, 1 << 20, count)


def test_state_counts_lose_no_draw_under_contention(monkeypatch):
    # four threads on two cores with a switch interval of a microsecond: an
    # add into the shared counts outside the lock would lose a block's draws
    reps = 32 * 4096 + 7
    monkeypatch.setenv("LKLLT_THREADS", "1")
    want = _state_counts(_WideStates(), 1, reps, seed=3)
    assert want.sum() == reps
    monkeypatch.setenv("LKLLT_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = []
            runner = threading.Thread(
                target=lambda: got.append(_state_counts(_WideStates(), 1, reps, 3))
            )
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert np.array_equal(got[0], want)
    finally:
        sys.setswitchinterval(interval)
