import math

import numpy as np
import pytest

from lkllt.errors import InvalidParameter
from lkllt.lattice import dist_from_weights
from lkllt.metrics import distance, distances, smoothing_term, smoothing_term_dual

from helpers import binomial_dist, interval_mass, random_dist, smoothing_term_by_averaging

KEYS = ("dk", "dw", "dtv", "dloc")


def test_point_mass_distances():
    d0 = dist_from_weights(0, [1])
    d1 = dist_from_weights(1, [1])
    assert distances(d0, d1) == pytest.approx(dict.fromkeys(KEYS, 1.0))


def test_two_point_distances():
    be = dist_from_weights(0, [1, 1])
    d0 = dist_from_weights(0, [1])
    assert distances(be, d0) == pytest.approx(dict.fromkeys(KEYS, 0.5))


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        F = random_dist(rng)
        assert distances(F, F) == dict.fromkeys(KEYS, 0.0)
        assert distance(F, F, 3) == 0.0


def test_local_span_equals_interval_scan():
    rng = np.random.default_rng(1)
    for _ in range(40):
        F, G = random_dist(rng), random_dist(rng)
        for m in (1, 2, 3, 4):
            lo = min(F.offset, G.offset) - m - 1
            hi = max(F.support_end, G.support_end) + 1
            brute = max(
                abs(interval_mass(F, k, m) - interval_mass(G, k, m))
                for k in range(lo, hi)
            ) / m
            assert distance(F, G, m) == pytest.approx(brute, abs=1e-12)
        assert distance(F, G, 1) == distances(F, G)["dloc"]


def test_metric_validation():
    F = dist_from_weights(0, [1, 1])
    for m in (0, -1):
        with pytest.raises(InvalidParameter, match="m must be a positive integer"):
            distance(F, F, m)


def test_span_and_order_validation():
    # the order-(l+1) CDF-difference norm of lk_sides is the order-l smoothing term
    with pytest.raises(InvalidParameter, match="n and m must be positive integers"):
        smoothing_term(dist_from_weights(0, [1, 1]), 0, 1)


def test_smoothing_term_point_mass():
    assert smoothing_term(dist_from_weights(0, [1]), 1, 1) == pytest.approx(2.0)


def test_smoothing_term_uniform():
    assert smoothing_term(dist_from_weights(0, [1] * 5), 1, 1) == pytest.approx(0.4)


def test_smoothing_term_two_point():
    assert smoothing_term(dist_from_weights(0, [1, 1]), 1, 1) == pytest.approx(1.0)


def test_smoothing_term_validation():
    F = dist_from_weights(0, [1, 1])
    for bad in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(InvalidParameter):
            smoothing_term(F, *bad)
        with pytest.raises(InvalidParameter):
            smoothing_term_dual(F, *bad)


def test_dual_point_mass():
    assert smoothing_term_dual(dist_from_weights(0, [1]), 1, 1) == pytest.approx(2.0)


def test_dual_matches_primal_on_binomials():
    b = binomial_dist(10, 0.5)
    for n, m in ((1, 1), (2, 2)):
        assert smoothing_term_dual(b, n, m) == pytest.approx(
            smoothing_term(b, n, m), abs=1e-10
        )


def test_smoothing_term_equals_the_averaging_route():
    """The span-m difference of the pmf and the n-fold averaging route agree
    to rounding, bit for bit at m = 1, and both agree with the dual."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.lists(st.floats(1e-300, 1e3) | st.just(0.0), min_size=1, max_size=30)
    laws = st.builds(dist_from_weights, st.integers(-20, 20), weights.filter(any))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(F=laws, n=st.integers(1, 4), m=st.integers(1, 4))
    def check(F, n, m):
        got = smoothing_term(F, n, m)
        want = smoothing_term_by_averaging(F, n, m)
        assert math.isclose(got, want, rel_tol=1e-12)
        if m == 1:
            assert got.hex() == want.hex()
        assert math.isclose(got, smoothing_term_dual(F, n, m), rel_tol=1e-12)

    check()


def test_dual_identity_fuzz():
    rng = np.random.default_rng(2)
    for _ in range(300):
        F = random_dist(rng)
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                a = smoothing_term(F, n, m)
                b = smoothing_term_dual(F, n, m)
                assert abs(a - b) < 1e-10
                assert 0.0 < a <= 2 ** (n + 1) + 1e-12


def test_metric_inequalities():
    rng = np.random.default_rng(3)
    for _ in range(60):
        F, G = random_dist(rng), random_dist(rng)
        gaps = distances(F, G)
        dk, dw, dtv, dl = (gaps[key] for key in KEYS)
        assert dk <= dtv + 1e-12
        assert dl <= 2 * dtv + 1e-12
        assert dk <= dw + 1e-12


def test_metrics_symmetric_triangle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        F, G, H = (random_dist(rng) for _ in range(3))
        fg, gh, fh = distances(F, G), distances(G, H), distances(F, H)
        assert fg == pytest.approx(distances(G, F), abs=1e-12)
        for key in KEYS:
            assert fh[key] <= fg[key] + gh[key] + 1e-12


def test_smoothing_span_vs_unit_factor():
    # provable telescoping factor: order n gains at most m per span step
    rng = np.random.default_rng(5)
    for _ in range(40):
        F = random_dist(rng)
        for n in (1, 2, 3):
            for m in (2, 3):
                assert smoothing_term(F, n, m) <= m**n * smoothing_term(F, n, 1) + 1e-12
        assert smoothing_term(F, 1, 2) <= 2 * smoothing_term(F, 1, 1) + 1e-12
        assert smoothing_term(F, 1, 3) <= 3 * smoothing_term(F, 1, 1) + 1e-12


def test_smoothing_product_bound():
    from lkllt.lattice import convolve

    rng = np.random.default_rng(6)
    for _ in range(40):
        F, G = random_dist(rng, 12), random_dist(rng, 12)
        for m in (1, 2):
            for n1 in (1, 2):
                for n2 in (1,):
                    lhs = smoothing_term(convolve(F, G), n1 + n2, m)
                    rhs = smoothing_term(F, n1, m) * smoothing_term(G, n2, m)
                    assert lhs <= rhs + 1e-12


def test_smoothing_mixture_bound():
    rng = np.random.default_rng(7)
    for _ in range(30):
        comps = [random_dist(rng, 10) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        lo = min(c.offset for c in comps)
        hi = max(c.support_end for c in comps)
        mix = np.zeros(hi - lo)
        for wi, c in zip(w, comps):
            mix[c.offset - lo : c.support_end - lo] += wi * c.pmf
        mixture = dist_from_weights(lo, mix)
        for n in (1, 2):
            for m in (1, 2):
                bound = sum(
                    wi * smoothing_term(c, n, m) for wi, c in zip(w, comps)
                )
                assert smoothing_term(mixture, n, m) <= bound + 1e-12
