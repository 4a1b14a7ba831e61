import math

import numpy as np
import pytest

from lkllt.errors import InvalidDistribution, InvalidParameter
from lkllt.lattice import (
    LatticeDist,
    convolve,
    dist_from_weights,
    smooth_uniform,
    span_difference,
)
from lkllt.metrics import distance, distances, smoothing_term, smoothing_term_dual

from helpers import binomial_dist, brute_convolve, per_metric_distance, random_dist


def direct_difference(values, n, m=1):
    """(Delta_m^n f)(j) = sum_k C(n, k) (-1)^(n-k) f(j + k m), for j from n*m
    points left of ``values`` (f is zero outside it) to its last point."""
    f = lambda i: values[i] if 0 <= i < len(values) else 0.0
    return np.array([
        sum(math.comb(n, k) * (-1) ** (n - k) * f(j + k * m) for k in range(n + 1))
        for j in range(-n * m, len(values))
    ])


def test_dist_from_weights_uniform():
    d = dist_from_weights(0, [1, 1])
    assert d.offset == 0
    assert np.allclose(d.pmf, [0.5, 0.5])


def test_dist_from_weights_trims_zeros():
    d = dist_from_weights(-3, [0, 2, 0, 0, 2, 0])
    assert d.offset == -2
    assert np.allclose(d.pmf, [0.5, 0.0, 0.0, 0.5])


def test_dist_from_weights_rejects_degenerate():
    with pytest.raises(InvalidDistribution):
        dist_from_weights(0, [0, 0])
    with pytest.raises(InvalidDistribution):
        dist_from_weights(0, [1, -0.5])
    with pytest.raises(InvalidDistribution):
        dist_from_weights(0, [1, math.nan])


def test_lattice_dist_trims_end_zeros_and_keeps_interior_ones():
    d = LatticeDist(5, np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.75, 0.0]))
    assert d.offset == 7
    assert d.pmf.tolist() == [0.25, 0.0, 0.0, 0.75]
    assert LatticeDist(-1, np.array([1.0])).pmf.tolist() == [1.0]
    for pmf in ([0.0], [0.0, 0.0, 0.0], [-0.0, 0.0]):
        with pytest.raises(InvalidDistribution, match="no positive mass"):
            LatticeDist(0, np.array(pmf))


def test_lattice_dist_normalization_tolerance():
    d = LatticeDist(0, np.array([0.5, 0.5 + 2e-10]))
    assert abs(d.pmf.sum() - 1.0) < 1e-15
    with pytest.raises(InvalidDistribution):
        LatticeDist(0, np.array([0.5, 0.4]))


def test_smooth_uniform_point_mass():
    delta = dist_from_weights(0, [1])
    assert smooth_uniform(delta, 1) == delta
    s2 = smooth_uniform(delta, 2)
    assert s2.offset == 0 and np.allclose(s2.pmf, [0.5, 0.5])


def test_smooth_uniform_matches_direct_convolution():
    be = dist_from_weights(0, [1, 1])
    expected = brute_convolve(be, dist_from_weights(0, [1, 1]))
    got = smooth_uniform(be, 2)
    assert got.offset == expected.offset
    assert np.allclose(got.pmf, expected.pmf, atol=1e-15)


def test_smooth_uniform_rejects_bad_span():
    with pytest.raises(InvalidParameter):
        smooth_uniform(dist_from_weights(0, [1]), 0)


def test_difference_point_mass():
    s = np.array([1.0])
    d = span_difference(s, 1, 1)
    assert np.array_equal(d, [1.0, -1.0])
    assert np.array_equal(d, direct_difference(s, 1))  # starts 1 point left


def test_difference_identity():
    s = np.array([0.25, -0.5, 1.5])
    assert np.array_equal(span_difference(s, 0, 1), s)


def test_difference_uniform5():
    s = np.full(5, 0.2)
    d = span_difference(s, 1, 1)
    assert np.allclose(d, [0.2, 0, 0, 0, 0, -0.2])
    assert np.array_equal(d, direct_difference(s, 1))  # starts 1 point left


def test_span_difference_reduces_to_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.normal(size=int(rng.integers(1, 12)))
        for n in (0, 1, 2, 3):
            d = span_difference(s, n, 1)
            assert np.allclose(d, direct_difference(s, n), rtol=1e-12, atol=1e-12)


def test_span_difference_point_mass():
    s = np.array([1.0])
    d = span_difference(s, 1, 2)
    assert np.array_equal(d, [1.0, 0.0, -1.0])
    assert np.array_equal(d, direct_difference(s, 1, 2))  # starts 2 points left
    for n in (2, 3):  # an n-fold span-2 difference starts 2n points left
        assert np.array_equal(span_difference(s, n, 2), direct_difference(s, n, 2))


def test_span_difference_identity_and_validation():
    s = np.array([2.0, 3.0])
    assert np.array_equal(span_difference(s, 0, 3), s)
    with pytest.raises(InvalidParameter):
        span_difference(s, 1, 0)


def test_span_difference_rejects_bad_shape_and_order():
    for bad in (np.zeros((2, 2)), np.float64(1.0)):
        with pytest.raises(InvalidParameter, match="sequence must be a 1-d array"):
            span_difference(bad, 1, 1)
    with pytest.raises(InvalidParameter, match="n must be nonnegative"):
        span_difference(np.array([1.0]), -1, 1)


def test_convolve_point_masses():
    d = convolve(dist_from_weights(2, [1]), dist_from_weights(3, [1]))
    assert d.offset == 5 and len(d.pmf) == 1


def test_convolve_bernoullis_is_binomial():
    be = dist_from_weights(0, [1, 1])
    assert np.allclose(convolve(be, be).pmf, [0.25, 0.5, 0.25])


def test_convolve_binomial_additivity():
    a, b = binomial_dist(4, 0.3), binomial_dist(6, 0.3)
    got = convolve(a, b)
    want = binomial_dist(10, 0.3)
    assert got.offset == want.offset
    assert np.allclose(got.pmf, want.pmf, atol=1e-14)


def test_difference_sums_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        F = random_dist(rng)
        for n in (1, 2, 3):
            assert abs(span_difference(F.pmf, n, 1).sum()) < 1e-12


def test_smooth_uniform_mean_shift():
    rng = np.random.default_rng(2)
    for _ in range(30):
        F = random_dist(rng)
        for m in (1, 2, 3, 5):
            assert smooth_uniform(F, m).mean() == pytest.approx(
                F.mean() + (m - 1) / 2, abs=1e-10
            )


def test_difference_composes():
    rng = np.random.default_rng(3)
    for _ in range(30):
        s = rng.normal(size=int(rng.integers(1, 10)))
        for a in (0, 1, 2):
            for b in (1, 2, 3):
                if a + b <= 5:
                    assert np.array_equal(
                        span_difference(s, a + b, 1),
                        span_difference(span_difference(s, a, 1), b, 1),
                    )


def test_convolve_commutative_associative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        F, G, H = (random_dist(rng, 12) for _ in range(3))
        ab = convolve(F, G)
        ba = convolve(G, F)
        assert ab.offset == ba.offset and np.allclose(ab.pmf, ba.pmf, atol=1e-12)
        l = convolve(ab, H)
        r = convolve(F, convolve(G, H))
        assert l.offset == r.offset and np.allclose(l.pmf, r.pmf, atol=1e-12)


def test_json_round_trip():
    d = dist_from_weights(-4, [1, 2, 0, 3])
    back = LatticeDist.from_json(d.to_json())
    assert back == d


def test_lattice_dist_properties():
    """End zeros are trimmed and interior zeros kept, with the offset moved
    past the leading ones; the pmf sums to 1; a JSON round trip gives the
    same law; an all-zero, negative or non-finite mass raises."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mass = st.floats(1e-300, 1e3)
    body = st.tuples(mass, st.lists(mass | st.just(0.0), max_size=20), mass).map(
        lambda t: [t[0], *t[1], t[2]]
    ) | mass.map(lambda w: [w])
    bad = st.sampled_from([-1.0, -1e-300, -math.inf, math.inf, math.nan])

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(offset=st.integers(-50, 50), lead=st.integers(0, 5),
                      trail=st.integers(0, 5), body=body, bad=bad, at=st.integers(0, 30))
    def check(offset, lead, trail, body, bad, at):
        weights = np.array([0.0] * lead + body + [0.0] * trail)
        for F in (dist_from_weights(offset, weights),
                  LatticeDist(offset, weights / weights.sum())):
            assert F.offset == offset + lead
            assert (F.pmf == 0.0).tolist() == [w == 0.0 for w in body]
            assert abs(F.pmf.sum() - 1.0) <= 1e-12
            # the loaded pmf is divided by its sum once more, so the round
            # trip is bit for bit only where that float64 sum is exactly 1
            back = LatticeDist.from_json(F.to_json())
            assert back.offset == F.offset
            assert np.allclose(back.pmf, F.pmf, rtol=1e-14, atol=0.0)
            if F.pmf.sum() == 1.0:
                assert back == F and back.pmf.tobytes() == F.pmf.tobytes()
        broken = np.insert(weights, at % (len(weights) + 1), bad)
        for build in (dist_from_weights, LatticeDist):
            with pytest.raises(InvalidDistribution):
                build(offset, broken)
            with pytest.raises(InvalidDistribution):
                build(offset, np.zeros(len(weights)))

    check()


def _signed_inputs():
    rng = np.random.default_rng(12)
    fixed = [[], [2.5], [-0.0], [1.0, -3.0, 0.5, -0.0, 4.0], [0.0, 1e-300, -1e300, 0.0]]
    return [np.array(v, dtype=float) for v in fixed] + [
        rng.standard_normal(int(k)) * 10.0 ** rng.integers(-5, 5) for k in rng.integers(1, 200, 8)
    ]


@pytest.mark.parametrize("values", _signed_inputs())
def test_diff_once_is_the_zero_padded_np_diff(values):
    # one span-m step is the zero-padded np.diff of every residue class mod m;
    # want[i] is the difference at the point i - m, so equal bytes also say
    # that the result starts m points left of its input
    for m in (1, 2, 3):
        want = np.zeros(len(values) + m)
        for r in range(m):
            want[r::m] = np.diff(values[r::m], prepend=0.0, append=0.0)
        got = span_difference(values, 1, m)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("values", _signed_inputs())
def test_difference_is_repeated_np_diff(values):
    # want[i] is the n-th difference at the point i - n
    for n in range(5):
        want = values
        for _ in range(n):
            want = np.diff(want, prepend=0.0, append=0.0)
        got = span_difference(values, n, 1)
        assert got.tobytes() == want.tobytes()


def test_differences_of_a_law_keep_nonzero_ends_and_metrics_agree():
    """A law's pmf has nonzero ends, and one span-m step maps the first entry
    v to v and the last entry v to -v, so no difference of a pmf has a zero
    end to trim.  The primal and dual smoothing terms agree, and each metric
    is symmetric, zero on (F, F) and obeys the triangle inequality.
    ``distances`` equals each metric's own formula bit for bit, and the
    metrics are ordered: dloc <= dtv, dk <= dtv and dk <= dw."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mass = st.floats(1e-300, 1e3)
    weights = st.one_of(
        st.lists(mass, min_size=1, max_size=1),  # point mass
        st.tuples(mass, st.integers(0, 8), mass).map(  # two points, any gap
            lambda t: [t[0]] + [0.0] * t[1] + [t[2]]
        ),
        st.lists(mass, min_size=1, max_size=15).map(  # one parity class
            lambda w: np.ravel(np.column_stack([w, np.zeros(len(w))]))
        ),
        st.lists(mass | st.just(0.0), min_size=1, max_size=30).filter(any),
    )
    laws = st.builds(dist_from_weights, st.integers(-20, 20), weights)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(F=laws, G=laws, H=laws)
    def check(F, G, H):
        for n in range(5):
            for m in (1, 2, 3):
                d = span_difference(F.pmf, n, m)
                assert len(d) == len(F.pmf) + n * m
                assert d[0] != 0.0 and d[-1] != 0.0
                if n >= 1:
                    assert math.isclose(
                        smoothing_term(F, n, m), smoothing_term_dual(F, n, m), rel_tol=1e-12
                    )
        gaps, gh, fh = distances(F, G), distances(G, H), distances(F, H)
        assert gaps == distances(G, F)
        assert distances(F, F) == dict.fromkeys(("dloc", "dtv", "dk", "dw"), 0.0)
        for key in gaps:
            assert fh[key] <= gaps[key] + gh[key] + 1e-12
            assert gaps[key] == per_metric_distance(F, G, key)
        for m in (2, 3):
            assert distance(F, G, m) == distance(G, F, m)
            assert distance(F, F, m) == 0.0
            assert distance(F, H, m) <= distance(F, G, m) + distance(G, H, m) + 1e-12
        assert gaps["dloc"] <= gaps["dtv"] + 1e-12
        assert gaps["dk"] <= gaps["dtv"] + 1e-12
        assert gaps["dk"] <= gaps["dw"]

    check()
