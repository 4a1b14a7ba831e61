import math

import numpy as np
import pytest

from lkllt.errors import InvalidDistribution, InvalidParameter
from lkllt.lattice import (
    LatticeDist,
    SignedSeq,
    convolve,
    difference,
    dist_from_weights,
    seq_norm,
    smooth_uniform,
    span_difference,
)

from helpers import binomial_dist, brute_convolve, random_dist


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
    d = difference(SignedSeq(0, np.array([1.0])), 1)
    assert d.offset == -1
    assert np.allclose(d.values, [1.0, -1.0])


def test_difference_identity():
    s = SignedSeq(3, np.array([0.25, -0.5, 1.5]))
    assert difference(s, 0) == s


def test_difference_uniform5():
    s = SignedSeq(0, np.full(5, 0.2))
    d = difference(s, 1)
    assert d.offset == -1
    assert np.allclose(d.values, [0.2, 0, 0, 0, 0, -0.2])


def test_span_difference_reduces_to_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = SignedSeq(int(rng.integers(-5, 5)), rng.normal(size=int(rng.integers(1, 12))))
        for n in (0, 1, 2, 3):
            assert span_difference(s, n, 1) == difference(s, n)


def test_span_difference_point_mass():
    d = span_difference(SignedSeq(0, np.array([1.0])), 1, 2)
    assert d.offset == -2
    assert np.allclose(d.values, [1.0, 0.0, -1.0])


def test_span_difference_identity_and_validation():
    s = SignedSeq(1, np.array([2.0, 3.0]))
    assert span_difference(s, 0, 3) == s
    with pytest.raises(InvalidParameter):
        span_difference(s, 1, 0)


def test_signed_seq_and_span_difference_reject_bad_shape_and_order():
    with pytest.raises(InvalidParameter, match="values must be a 1-d array"):
        SignedSeq(0, np.zeros((2, 2)))
    with pytest.raises(InvalidParameter, match="n must be nonnegative"):
        span_difference(SignedSeq(0, np.array([1.0])), -1, 1)


def test_seq_norms():
    s = SignedSeq(-1, np.array([1.0, -1.0]))
    assert seq_norm(s, 1) == 2.0
    assert seq_norm(s, math.inf) == 1.0
    assert seq_norm(s, 2) == pytest.approx(math.sqrt(2))
    assert seq_norm(dist_from_weights(0, [1, 1]).as_seq(), 1) == pytest.approx(1.0)
    assert seq_norm(SignedSeq(0, np.zeros(0)), 1) == 0.0
    with pytest.raises(InvalidParameter):
        seq_norm(s, 3)


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
            assert abs(difference(F.as_seq(), n).values.sum()) < 1e-12


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
        s = SignedSeq(int(rng.integers(-5, 5)), rng.normal(size=int(rng.integers(1, 10))))
        for a in (0, 1, 2):
            for b in (1, 2, 3):
                if a + b <= 5:
                    assert difference(s, a + b) == difference(difference(s, a), b)


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


def _signed_inputs():
    rng = np.random.default_rng(12)
    fixed = [[], [2.5], [-0.0], [1.0, -3.0, 0.5, -0.0, 4.0], [0.0, 1e-300, -1e300, 0.0]]
    return [np.array(v, dtype=float) for v in fixed] + [
        rng.standard_normal(int(k)) * 10.0 ** rng.integers(-5, 5) for k in rng.integers(1, 200, 8)
    ]


@pytest.mark.parametrize("values", _signed_inputs())
def test_diff_once_is_the_zero_padded_np_diff(values):
    # one span-m step is the zero-padded np.diff of every residue class mod m
    s = SignedSeq(3, values)
    for m in (1, 2, 3):
        want = np.zeros(len(s.values) + m)
        for r in range(m):
            want[r::m] = np.diff(s.values[r::m], prepend=0.0, append=0.0)
        want = SignedSeq(s.offset - m, want)
        got = span_difference(s, 1, m)
        assert got.offset == want.offset
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("values", _signed_inputs())
def test_difference_is_repeated_np_diff(values):
    s = SignedSeq(3, values)
    for n in range(5):
        want = s.values
        for _ in range(n):
            want = np.diff(want, prepend=0.0, append=0.0)
        want = SignedSeq(s.offset - n, want)
        got = difference(s, n)
        assert got.offset == want.offset
        assert got.values.tobytes() == want.values.tobytes()
