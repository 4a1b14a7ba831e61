import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import lkllt.tp
from lkllt.errors import InvalidParameter, TooLarge
from lkllt.lattice import LatticeDist
from lkllt.metrics import smoothing_term
from lkllt.tp import _EPS, _poisson_block, tp_dist, tp_normal_gaps

from helpers import poisson_block_indexed_recursion, tp_normal_gaps_whole_window, tp_shift_and_lam


def _tp_reference(mu, sigma2):
    """TP(mu, sigma2) from the reference shift, Poisson mean and recursion."""
    shift, lam = tp_shift_and_lam(mu, sigma2)
    lo, pm = poisson_block_indexed_recursion(lam, _EPS)
    return LatticeDist(shift + lo, pm / pm.sum())


def test_params_fractional():
    shift, lam = tp_shift_and_lam(5.3, 4.0)
    assert shift == 1
    assert lam == pytest.approx(4.3)
    assert tp_dist(5.3, 4.0) == _tp_reference(5.3, 4.0)


def test_params_integer_offset():
    assert tp_shift_and_lam(3, 2) == (1, 2)
    assert tp_dist(3, 2) == _tp_reference(3, 2)
    assert tp_shift_and_lam(0, 10) == (-10, 10)
    assert tp_dist(0, 10) == _tp_reference(0, 10)


def test_params_validation():
    sigma2_message = "sigma2 must be positive and finite"
    for sigma2 in (0.0, -2.0, math.inf, math.nan):
        for fn in (tp_dist, tp_normal_gaps):
            with pytest.raises(InvalidParameter, match=f"^{sigma2_message}$"):
                fn(1.0, sigma2)
            # sigma2 is checked before mu
            with pytest.raises(InvalidParameter, match=f"^{sigma2_message}$"):
                fn(1e300, sigma2)
    for fn in (tp_dist, tp_normal_gaps):
        with pytest.raises(InvalidParameter, match=r"^mu must be finite, with \|mu\| <= 2\^53$"):
            fn(1e300, 1.0)


def test_dist_mean_variance_small():
    d = tp_dist(3.0, 2.0)
    assert d.mean() == pytest.approx(3.0, abs=1e-9)
    assert 2.0 - 1e-6 <= d.variance() <= 3.0


def test_dist_point_mass_value():
    d = tp_dist(0.0, 1.0)
    assert d.pmf[-d.offset] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_dist_normalized():
    d = tp_dist(5.3, 4.0)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_shift_equivariance_exact():
    # dyadic parameters keep the float arithmetic exact, so equality is exact
    for mu, s2 in ((2.75, 5.5), (-1.0625, 3.25), (0.5, 12.0)):
        base = tp_dist(mu, s2)
        for j in (-3, 1, 11):
            shifted = tp_dist(mu + j, s2)
            assert shifted.offset == base.offset + j
            assert np.array_equal(shifted.pmf, base.pmf)


def test_mean_variance_contract_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = float(rng.uniform(-50, 50))
        s2 = float(rng.uniform(1, 1e4))
        d = tp_dist(mu, s2)
        assert abs(d.mean() - mu) <= 1e-8 * s2 + 1e-12
        assert s2 <= d.variance() <= s2 + 1


@pytest.mark.parametrize("lam", [100.3, 1e4 + 0.3, 1e6 + 0.5, 1e8 + 0.25])
def test_poisson_block_equals_the_indexed_recursion(lam):
    lo, pm = _poisson_block(lam, 1e-12)
    want_lo, want = poisson_block_indexed_recursion(lam, 1e-12)
    assert lo == want_lo
    assert pm.tolist() == want.tolist()


def test_normal_gaps_scaling():
    sigmas = np.array([10.0, 20.0, 40.0, 80.0])
    scaled_local, scaled_dk, dws = [], [], []
    for s in sigmas:
        local_gap, dk, dw = tp_normal_gaps(0.0, s * s)
        scaled_local.append(local_gap * s * s)
        scaled_dk.append(dk * s)
        dws.append(dw)
    assert max(scaled_local) <= 0.15
    assert max(scaled_dk) <= 0.40
    assert max(dws) <= 0.50
    # scaled sequences stay flat rather than growing
    assert scaled_local[-1] <= scaled_local[0] * 1.05
    assert scaled_dk[-1] <= scaled_dk[0] * 1.05
    assert dws[-1] <= dws[0] * 1.05


@pytest.mark.parametrize("k", [1, 2, 3])
def test_smoothing_decay_slope(k):
    sigmas = np.arange(10, 101, 10, dtype=float)
    vals = [smoothing_term(tp_dist(0.0, s * s), k, 1) for s in sigmas]
    slope = np.polyfit(np.log(sigmas), np.log(vals), 1)[0]
    assert -k - 0.2 <= slope <= -k + 0.2


def _gaps_by_intervals(mu, sigma2):
    """(local gap, dk, dw, crossings) of TP vs N(mu, sigma2), one Python float
    at a time: NormalDist for the density, the CDF and the crossing points,
    and a sign split of |c - Phi| on every [k, k+1), integrated with the
    antiderivative A(z) = z*Phi(z) + phi(z) of the standard CDF (math.erf)."""
    law = tp_dist(mu, sigma2)
    normal = NormalDist(mu, math.sqrt(sigma2))
    sigma = normal.stdev

    def std_cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def std_pdf(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def antideriv(x):
        z = (x - mu) / sigma
        return z * std_cdf(z) + std_pdf(z)

    local = dk = dw = 0.0
    c = 0.0
    crossings = 0
    for i, mass in enumerate(law.pmf.tolist()):
        k = law.offset + i
        c += mass
        local = max(local, abs(mass - normal.pdf(k)))
        lo, hi = normal.cdf(k), normal.cdf(k + 1)
        dk = max(dk, abs(c - lo), abs(c - hi))
        if lo < c < hi:
            crossings += 1
            x = normal.inv_cdf(c)
            dw += c * (x - k) - sigma * (antideriv(x) - antideriv(k))
            dw += sigma * (antideriv(k + 1) - antideriv(x)) - c * (k + 1 - x)
        elif lo == hi:  # Phi is flat to double precision: |c - Phi| is constant
            dw += abs(c - lo)
        elif c >= hi:  # Phi stays under c
            dw += c - sigma * (antideriv(k + 1) - antideriv(k))
        else:  # Phi stays over c
            dw += sigma * (antideriv(k + 1) - antideriv(k)) - c
    zb = (law.support_end - mu) / sigma
    dw += sigma * antideriv(law.offset)  # integral of Phi below the support
    dw += sigma * (std_pdf(zb) - zb * (1.0 - std_cdf(zb)))  # of 1 - Phi above it
    return local, dk, dw, crossings


# Each unit interval's area sigma * (A(z1) - A(z0)) carries a rounding error of
# about sigma * 1e-15 in any evaluation, so beyond a few thousand for sigma2 the
# two sums drift apart by more than 1e-12 without either being wrong.
@pytest.mark.parametrize("mu", [0.3, -17.625, 1234.7])
@pytest.mark.parametrize("sigma2", [0.8, 7.5, 333.3, 2000.0])
def test_normal_gaps_match_per_interval_integration(mu, sigma2):
    local, dk, dw, crossings = _gaps_by_intervals(mu, sigma2)
    assert crossings > 0
    got = tp_normal_gaps(mu, sigma2)
    for a, b in zip(got, (local, dk, dw)):
        assert abs(a - b) <= 1e-12


def test_streamed_gaps_equal_the_whole_window_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(mu=st.floats(-1e6, 1e6), sigma2=st.floats(0.5, 1e6))
    @hypothesis.example(mu=0.0, sigma2=1e6)  # a window of 24,061 points: three pieces
    @hypothesis.example(mu=-7.25, sigma2=0.5)
    def check(mu, sigma2):
        assert tp_normal_gaps(mu, sigma2) == tp_normal_gaps_whole_window(mu, sigma2)

    check()


@pytest.mark.parametrize("chunk", [1, 2, 7, "window - 1", "window", "window + 1"])
@pytest.mark.parametrize("mu, sigma2", [(0.3, 0.5), (-17.625, 7.5), (1234.7, 333.3)])
def test_gaps_do_not_depend_on_the_piece_size(chunk, mu, sigma2, monkeypatch):
    window = len(tp_dist(mu, sigma2).pmf)
    sizes = {"window - 1": window - 1, "window": window, "window + 1": window + 1}
    monkeypatch.setattr(lkllt.tp, "_CHUNK", sizes.get(chunk, chunk))
    assert tp_normal_gaps(mu, sigma2) == tp_normal_gaps_whole_window(mu, sigma2)


def test_tp_dist_equals_the_normalized_indexed_recursion():
    for mu, sigma2 in ((0.3, 0.5), (-17.625, 7.5), (0.0, 1e8)):
        assert tp_dist(mu, sigma2) == _tp_reference(mu, sigma2)


def test_gaps_memory_is_bounded_by_the_pmf_and_one_term_array():
    # whole-window arrays and Python lists held about 90 bytes per point:
    # 20.9 MB over the 240,061 points at sigma2 = 1e8
    tracemalloc.start()
    try:
        tp_normal_gaps(0.0, 1e8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_window_cap_raises_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="sigma2 must keep the TP window within 16777216"):
            tp_dist(0.0, 1e20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"
    # sigma2 = 4.8e11 still fits: 12 sigma on either side of the mode
    assert 2 * int(12 * math.sqrt(4.8e11) + 30) + 1 <= lkllt.tp._MAX_WINDOW


def test_window_cap_holds_for_the_growth_step(monkeypatch):
    # eps = 0 is never met, so the window grows by 1.5x until the cap stops it
    monkeypatch.setattr(lkllt.tp, "_MAX_WINDOW", 1000)
    with pytest.raises(TooLarge):
        _poisson_block(100.0, 0.0)
    lo, pm = _poisson_block(100.0, 1e-12)  # a first window of 251 points
    assert (lo, len(pm)) == (0, 251)
