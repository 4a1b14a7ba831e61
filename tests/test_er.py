import ast
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

import lkllt.er
from lkllt.er import (
    _CHUNK_CELLS,
    _ISO_POSITIONS,
    _SAMPLE_CELLS,
    _TWO_STEP_CELLS,
    ERPairModel,
    _chunk_counts,
    _gap_chunk,
    _geometric_gaps,
    _gnp_adjacency,
    _isolated_count_block,
    _iso_counts,
    _iso_q_from_counts,
    _low_table,
    _slot_bits,
    _slot_decoder,
    _tri_bound_columns,
    _tri_q_block,
    _triangle_count_block,
    enumerate_graphs_oracle,
    er_rate_experiment,
    iso_exact_pair_stats,
    iso_moments,
    iso_smoothing_bounds,
    tri_closed_forms,
)
from lkllt.errors import DegenerateChain, InvalidParameter, TooLarge
from lkllt.lattice import empirical_dist
from lkllt.metrics import smoothing_term
from lkllt.rngutil import block_rng
from lkllt.smoothing import pair_bound_d1, pair_bound_d2, pair_stats

from helpers import (
    adjacency,
    all_graph_masks,
    chain_step_probabilities,
    decode_pairs_by_searchsorted,
    enumerate_graphs_oracle_unchunked,
    enumerated_counts,
    graph_stats,
    iso_exact_pair_stats_per_graph,
    iso_q11_two_step,
    isolated_count,
    isolated_counts_per_replicate,
    tri_q_block_per_slot,
    triangle_count,
    two_step_probability,
)


def _edge_count(adj: np.ndarray) -> int:
    return int(np.count_nonzero(adj)) // 2


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_gnp_slots_bits_and_adjacency_agree(n, p):
    count = 9
    rng, bits_rng, one_rng = block_rng(12, n), block_rng(12, n), block_rng(12, n)
    adj = _gnp_adjacency(n, p, rng, count)
    bits = _slot_bits(n, p, bits_rng, count)
    ii, jj = np.triu_indices(n, 1)
    assert bits.shape == (count, comb(n, 2) + 1) and adj.shape == (count, n, n)
    assert np.array_equal(adj[:, ii, jj], bits[:, :-1]) and not bits[:, -1].any()
    assert np.array_equal(adj, adj.transpose(0, 2, 1))
    assert not adj[:, np.arange(n), np.arange(n)].any()
    # a block of graphs is the same graphs as that many one-graph blocks
    singles = [_gnp_adjacency(n, p, one_rng, 1) for _ in range(count)]
    assert np.array_equal(adj, np.concatenate(singles))
    assert rng.random() == bits_rng.random() == one_rng.random()


_ULP = 2.0 ** -53


def test_slot_bits_threshold_matches_the_uniform_comparison():
    """The raw-word threshold gives the bits of ``random() < p`` and leaves
    the stream where ``random`` leaves it.  ("word", i, side) puts p at the
    i-th drawn word's uniform m 2^-53, or at a float neighbour of it, so the
    threshold falls on a drawn value."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fixed = [0.0, 5e-324, _ULP, 1 / 3, 0.125, 1 - _ULP, 1.0]
    side = st.sampled_from([-1, 0, 1])

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(
        n=st.sampled_from([2, 3, 64, 65]), count=st.integers(1, 3), seed=st.integers(0, 2**64),
        p=st.sampled_from(fixed)
        | st.tuples(st.just("m"), st.integers(1, 2**53 - 1), side)
        | st.tuples(st.just("word"), st.integers(0, 10**6), side),
    )
    def check(n, count, seed, p):
        if isinstance(p, tuple):
            kind, m, step = p
            if kind == "word":
                words = block_rng(seed, n).bit_generator.random_raw(count * comb(n, 2))
                m = int(words[m % len(words)]) >> 11
            p = float(np.nextafter(m * _ULP, 2 if step > 0 else 0)) if step else m * _ULP
        bits_rng, uniform_rng = block_rng(seed, n), block_rng(seed, n)
        bits = _slot_bits(n, p, bits_rng, count)
        want = uniform_rng.random((count, comb(n, 2))) < p
        assert np.array_equal(bits[:, :-1], want) and not bits[:, -1].any()
        assert bits_rng.random() == uniform_rng.random()

    for n, p in itertools.product([2, 3, 64, 65], fixed):  # every fixed p at every n
        check = hypothesis.example(n=n, count=2, seed=7, p=p)(check)
    check()


def test_graph_bits_are_drawn_only_in_slot_bits():
    """In er.py only ``_slot_bits`` calls ``random_raw`` or ``.random``: the
    stride that lets map_blocks cut a block counts its draws alone."""
    callers = [
        getattr(top, "name", None)
        for top in ast.parse(Path(lkllt.er.__file__).read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("random_raw", "random")
    ]
    assert callers == ["_slot_bits"]


def test_gnp_extremes():
    assert _edge_count(_gnp_adjacency(5, 0.0, block_rng(1, 0), 1)) == 0
    assert _edge_count(_gnp_adjacency(5, 1.0, block_rng(1, 0), 1)) == comb(5, 2)
    with pytest.raises(InvalidParameter):
        er_rate_experiment("isolated", [(5, 1.5)], 10, 1)


def test_gnp_edge_count_concentration():
    n, p = 100, 0.5
    mean, sd = comb(n, 2) * p, math.sqrt(comb(n, 2) * p * (1 - p))
    for seed in range(100):
        count = _edge_count(_gnp_adjacency(n, p, block_rng(seed, 0), 1))
        assert abs(count - mean) <= 4 * sd


def test_graph_stats_examples():
    s = graph_stats(adjacency(3, []))
    assert (s.w_isolated, s.w1, s.e2, s.triangles) == (3, 0, 0, 0)
    s = graph_stats(adjacency(3, [(0, 1)]))
    assert (s.w_isolated, s.w1, s.e2, s.triangles) == (1, 2, 1, 0)
    k4 = adjacency(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    s = graph_stats(k4)
    assert (s.w_isolated, s.w1, s.e2, s.triangles) == (0, 0, 0, 4)


def test_iso_moments_small_examples():
    m = iso_moments(3, 0.5)
    assert m.e_w == pytest.approx(0.75)
    assert m.e_w2 == pytest.approx(1.5)
    assert m.e_w1 == pytest.approx(1.5)
    assert m.e_e2 == pytest.approx(0.375)
    m0 = iso_moments(7, 0.0)
    assert m0.e_w == 7.0
    assert m0.sigma2 == pytest.approx(0.0, abs=1e-14)


def test_iso_moments_match_oracle():
    for n in (3, 5):
        for p in (0.3, 0.5):
            _, oracle = enumerate_graphs_oracle(n, p, "isolated")
            formulas = iso_moments(n, p).as_dict()
            for key, want in oracle.items():
                assert formulas[key] == pytest.approx(want, abs=1e-12)


def test_oracle_pmf_examples():
    law, _ = enumerate_graphs_oracle(3, 0.5, "isolated")
    assert law.offset == 0
    assert np.allclose(law.pmf, [0.5, 0.375, 0.0, 0.125])
    tri, _ = enumerate_graphs_oracle(4, 1.0, "triangles")
    assert tri.offset == 4 and len(tri.pmf) == 1
    with pytest.raises(TooLarge):
        enumerate_graphs_oracle(8, 0.5, "isolated")


@pytest.mark.parametrize("statistic", ["isolated", "triangles"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_oracle_moments_equal_fsum_over_every_graph(n, statistic):
    # the oracle groups graphs by edge count; the sum over every graph's own
    # term must come out the same to the last bit
    counts = [c.astype(np.int64) for c in enumerated_counts(n, statistic)]
    if statistic == "isolated":
        w, w1, e2 = counts
        terms = {
            "e_w": w, "e_w2": w ** 2, "e_w3": w ** 3, "e_w4": w ** 4,
            "e_w1": w1, "e_e2": e2, "e_w1sq": w1 ** 2,
            "e_e2sq": e2 ** 2, "e_w1e2": w1 * e2,
        }
    else:
        (t,) = counts
        terms = {"e_t": t, "e_t2": t ** 2, "e_t3": t ** 3, "e_t4": t ** 4}
    for p in (0.1, 0.3, 0.5):
        _, _, prob = all_graph_masks(n, p)
        _, moments = enumerate_graphs_oracle(n, p, statistic)
        assert moments == {key: math.fsum((prob * x).tolist()) for key, x in terms.items()}


@pytest.mark.parametrize("statistic", ["isolated", "triangles"])
@pytest.mark.parametrize("n", range(1, 8))
def test_oracle_bytes_equal_the_unchunked_reference(n, statistic):
    for p in (0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0):
        law, moments = enumerate_graphs_oracle(n, p, statistic)
        want_law, want_moments = enumerate_graphs_oracle_unchunked(n, p, statistic)
        assert law.offset == want_law.offset, p
        assert law.pmf.tobytes() == want_law.pmf.tobytes(), p
        assert list(moments.items()) == list(want_moments.items()), p


@pytest.mark.parametrize("n", range(2, 8))
def test_enumerated_counts_equal_the_per_edge_reference(n):
    # every chunk of the kernel, in chunk order, against the per-edge and
    # per-triple counts of every mask
    for statistic in ("isolated", "triangles"):
        table = _low_table(n, statistic == "isolated")
        chunks = [_chunk_counts(table, h) for h in range(2 ** comb(n, 2) // len(table[0]))]
        want = enumerated_counts(n, statistic)
        for i, w in enumerate(want):
            got = np.concatenate([c[i] for c in chunks])
            # uint8 counts: the tally adds them as int64 and the moments
            # raise them to powers as Python ints, so no W^4 can wrap
            assert got.dtype == np.uint8
            assert np.array_equal(got, w), (statistic, i)
        # every key fits the uint16 keys of a chunk, and the tally is int64
        top = n if statistic == "isolated" else comb(n, 3)
        assert (comb(n, 2) + 1) * (top + 1) ** len(want) <= 2**16
        tally, _, _ = lkllt.er._enumeration_tally(n, 0.5, statistic == "isolated")
        assert tally.dtype == np.int64 and tally.sum() == 2 ** comb(n, 2)
    # the moments take powers of Python ints: 255^4 wraps in 32 bits
    tally = np.zeros((1, 256), dtype=np.int64)
    tally[0, 255] = 3
    assert lkllt.er._exact_means(tally, np.ones(1), {"m": (4,)}) == {"m": 3.0 * 255 ** 4}


def test_oracle_memory_is_bounded_by_mask_chunks():
    # all 2^21 graphs at n = 7 at once held about 150 MB of bit planes,
    # degrees and per-graph counts; the low table and one chunk's
    # temporaries take about 3 MB
    for statistic, support in (("isolated", 8), ("triangles", 36)):
        tracemalloc.start()
        try:
            law, _ = enumerate_graphs_oracle(7, 0.3, statistic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(law.pmf) == support
        assert peak < 8 * 2**20, f"{statistic}: peak {peak / 2**20:.1f} MB"


def _iso_q(adj: np.ndarray, p: float, m: int) -> tuple[float, ...]:
    """(Q(m), Q(-m), Q(m,m), Q(-m,-m)) of one (n, n) adjacency matrix."""
    return tuple(float(v[0]) for v in _iso_q_from_counts(len(adj), p, *_iso_counts(adj[None]), m))


def _tri_q(adj: np.ndarray, p: float) -> tuple[float, float]:
    """(Q(+1), Q(-1)) of one (n, n) adjacency matrix."""
    qp, qm, _, _ = _tri_q_block(adj[None], p)
    return float(qp[0]), float(qm[0])


def test_iso_q_examples():
    p = 0.5
    assert _iso_q(adjacency(3, []), p, 1)[1] == 0.0
    assert _iso_q(adjacency(3, []), p, 2)[1] == pytest.approx(0.5)
    assert _iso_q(adjacency(3, [(0, 1)]), p, 1)[0] == 0.0
    assert _iso_q(adjacency(3, [(0, 1)]), p, 2)[0] == pytest.approx(1 / 6)
    k4 = adjacency(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert _iso_q(k4, p, 1)[0] == _iso_q(k4, p, 2)[0] == 0.0


def test_tri_q_examples():
    path = adjacency(4, [(0, 1), (1, 2)])
    q1, qn1 = _tri_q(path, 0.5)
    assert q1 == pytest.approx(0.5 / 6)
    assert qn1 == 0.0
    triangle = adjacency(3, [(0, 1), (0, 2), (1, 2)])
    q1, qn1 = _tri_q(triangle, 0.5)
    assert q1 == 0.0
    assert qn1 == pytest.approx(0.5)
    assert _tri_q(adjacency(3, []), 0.5) == (0.0, 0.0)


def test_one_step_chain_equivalence():
    rng = block_rng(42, 0)
    for n in (4, 5, 6):
        for _ in range(12):
            p = float(rng.uniform(0.1, 0.9))
            (adj,) = _gnp_adjacency(n, p, rng, 1)
            iso_bf = chain_step_probabilities(adj, p, isolated_count)
            q1, q_neg1, _, _ = _iso_q(adj, p, 1)
            q2, q_neg2, _, _ = _iso_q(adj, p, 2)
            for jump, closed in ((1, q1), (-1, q_neg1), (2, q2), (-2, q_neg2)):
                assert closed == pytest.approx(iso_bf.get(jump, 0.0), abs=1e-14)
            tri_bf = chain_step_probabilities(adj, p, triangle_count)
            q1, qn1 = _tri_q(adj, p)
            assert q1 == pytest.approx(tri_bf.get(1, 0.0), abs=1e-14)
            assert qn1 == pytest.approx(tri_bf.get(-1, 0.0), abs=1e-14)


def test_iso_q11_closed_form_overcounts():
    # the (W1, E2)-based two-step product misses structure changes after the
    # first removal; the spec leaves the closed form in place and has the
    # enumeration adjudicate.  Lock in the canonical counterexample and report
    # the observed spread.
    path3 = adjacency(3, [(0, 1), (1, 2)])
    closed = _iso_q(path3, 0.5, 1)[2]
    truth = iso_q11_two_step(path3, 0.5)
    assert closed == pytest.approx(1 / 18)
    assert truth == 0.0
    rng = block_rng(7, 0)
    gaps = []
    for _ in range(100):
        n = int(rng.integers(4, 7))
        p = float(rng.uniform(0.2, 0.8))
        (adj,) = _gnp_adjacency(n, p, rng, 1)
        gaps.append(_iso_q(adj, p, 1)[2] - iso_q11_two_step(adj, p))
    warnings.warn(
        "isolated-vertex q11 closed form vs chain enumeration: "
        f"min gap {min(gaps):.3e}, max gap {max(gaps):.3e}"
    )


def test_tri_closed_forms_examples():
    f = tri_closed_forms(4, 0.5)
    assert f.q1 == pytest.approx(2 * 0.125 * 0.5 * 0.75)
    f3 = tri_closed_forms(3, 0.5)
    assert f3.sigma2 == pytest.approx(7 / 64)
    with pytest.raises(InvalidParameter):
        tri_closed_forms(2, 0.5)


@pytest.mark.parametrize("field", ["var_q1_bound", "var_qneg1_bound"])
def test_tri_bound_columns_are_undefined_for_a_negative_variance_bound(field):
    forms = tri_closed_forms(12, 0.25)
    assert all(math.isfinite(b) for b in _tri_bound_columns(forms))
    negative = dataclasses.replace(forms, **{field: -1e-18})
    assert all(math.isnan(b) for b in _tri_bound_columns(negative))


def test_tri_variance_bound_plus_side_mc():
    n, p = 8, 0.3
    stats = pair_stats(ERPairModel(n, p, "triangles"), 1, 20000, seed=11)
    f = tri_closed_forms(n, p)
    assert stats.q_m == pytest.approx(f.q1, abs=3 * stats.se_q_m)
    assert stats.var_q_plus <= f.var_q1_bound + 3 * stats.se_var_q_plus


def _tri_jump_counts(n: int):
    """Edge count and the numbers of absent and of present pairs with exactly
    one common neighbour, for every graph on n labelled vertices (graph k has
    pair t present when bit t of k is set)."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {e: t for t, e in enumerate(pairs)}
    present = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1 == 1
    up = np.zeros(len(present), dtype=np.int64)
    down = np.zeros(len(present), dtype=np.int64)
    for (i, j), t in bit.items():
        common = sum(
            present[:, bit[tuple(sorted((i, k)))]] & present[:, bit[tuple(sorted((j, k)))]]
            for k in range(n)
            if k not in (i, j)
        )
        one = common == 1
        up += one & ~present[:, t]
        down += one & present[:, t]
    return present.sum(axis=1), up, down


@pytest.mark.parametrize("n", [5, 6])
def test_tri_variance_bounds_dominate_exact_enumeration(n):
    # Exact Var Q(+1) and Var Q(-1) over all 2^C(n,2) graphs.  The closed
    # forms drop only non-positive covariance groups, so each must sit at or
    # above the exact variance.
    c2 = comb(n, 2)
    edges, up, down = _tri_jump_counts(n)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        w = p ** edges * (1 - p) ** (c2 - edges)
        f = tri_closed_forms(n, p)
        sides = ((p * up / c2, f.var_q1_bound), ((1 - p) * down / c2, f.var_qneg1_bound))
        for q, bound in sides:
            mean = w @ q
            assert mean == pytest.approx(f.q1, rel=1e-12)
            var = w @ (q - mean) ** 2
            assert var <= bound * (1 + 1e-12), f"n={n}, p={p}: {var:.4e} > {bound:.4e}"


def test_tri_two_step_matches_paper_identity_at_n8():
    n, p = 8, 0.3
    stats = pair_stats(ERPairModel(n, p, "triangles"), 1, 20000, seed=5)
    f = tri_closed_forms(n, p)
    closed = p * f.q1 / comb(n, 2)
    assert stats.ediff_plus == pytest.approx(closed, abs=3 * stats.se_ediff_plus)


@pytest.mark.xfail(
    reason="TriForms.ediff_plus/minus are p*q1/C(n,2) and (1-p)*q1/C(n,2), not "
    "E|Q(+-1,+-1) - Q(+-1)^2|; the Monte Carlo values sit 27 to 224 standard errors away",
    raises=AssertionError,
    strict=True,
)
@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("n,p", [(12, 0.25), (20, 0.3)])
def test_tri_closed_form_two_step_gap_matches_monte_carlo(n, p, sign):
    stats = pair_stats(ERPairModel(n, p, "triangles"), 1, 40000, seed=3)
    closed = getattr(tri_closed_forms(n, p), f"ediff_{sign}")
    got, se = getattr(stats, f"ediff_{sign}"), getattr(stats, f"se_ediff_{sign}")
    assert got == pytest.approx(closed, abs=3 * se)


@pytest.mark.parametrize("n,p,count", [(5, 0.5, 12), (6, 0.4, 12), (8, 0.3, 8), (17, 0.3, 1)])
def test_tri_two_step_matches_move_enumeration(n, p, count):
    # Q(1,1) and Q(-1,-1) against every first move of each graph followed by
    # the recounted one-step law, not by the common-neighbour gains
    adj = _gnp_adjacency(n, p, block_rng(41, n), count)
    _, _, qpp, qmm = _tri_q_block(adj, p)
    for t, g in enumerate(adj):
        for got, jump in ((qpp[t], 1), (qmm[t], -1)):
            want = two_step_probability(g, p, triangle_count, jump)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-18), f"graph {t}, jump {jump}"
    assert qpp.any() and qmm.any()  # not zeros only


def test_tri_two_step_probability_consistency():
    # two-step enumeration from the empty-ish graphs: adding any edge to an
    # empty graph creates no triangle, so both two-step rates vanish
    empty = np.zeros((1, 5, 5), dtype=bool)
    assert _tri_q_block(empty, 0.4)[2][0] == 0.0


def test_er_pair_model_rates_match_closed_forms():
    stats = pair_stats(ERPairModel(6, 0.5, "isolated"), 1, 30000, seed=13)
    mom = iso_moments(6, 0.5)
    want = (mom.e_w1 - 2 * mom.e_e2) * 0.5 / comb(6, 2)
    assert stats.q_m == pytest.approx(want, abs=3 * stats.se_q_m)
    tri_stats = pair_stats(ERPairModel(8, 0.3, "triangles"), 1, 20000, seed=14)
    assert tri_stats.q_m == pytest.approx(
        tri_closed_forms(8, 0.3).q1, abs=3 * tri_stats.se_q_m
    )


def test_exact_bounds_dominate_exact_law():
    law, _ = enumerate_graphs_oracle(5, 0.5, "isolated")
    st = iso_exact_pair_stats(5, 0.5, 1)
    assert pair_bound_d1(st) >= smoothing_term(law, 1, 1)
    assert pair_bound_d2(st) >= smoothing_term(law, 2, 1)


_PAIR_STATS_FIELDS = ("q_m", "var_q_plus", "var_q_minus", "ediff_plus", "ediff_minus")


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", range(2, 7))
def test_iso_exact_pair_stats_equal_fsum_over_every_graph(n, p, m):
    want = iso_exact_pair_stats_per_graph(n, p, m)
    if want.q_m == 0.0:  # n = 2 never jumps by one
        with pytest.raises(DegenerateChain):
            iso_exact_pair_stats(n, p, m)
        return
    got = iso_exact_pair_stats(n, p, m)
    assert (got.m, got.replicates) == (m, 0)
    for field in _PAIR_STATS_FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0), field


def test_iso_exact_pair_stats_memory_is_bounded_by_mask_chunks():
    # one float64 per graph over all 2^21 graphs at n = 7 alone would be 16 MB
    tracemalloc.start()
    try:
        iso_exact_pair_stats(7, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n,p,m,error", [
    (1, 0.5, 1, InvalidParameter),
    (0, 0.5, 1, InvalidParameter),
    (8, 0.5, 1, TooLarge),
    (4, -0.1, 1, InvalidParameter),
    (4, 1.1, 1, InvalidParameter),
    (3, math.nan, 1, InvalidParameter),
    (5, 0.5, 3, InvalidParameter),
    (5, 0.5, 0, InvalidParameter),
])
def test_iso_exact_pair_stats_rejects_bad_input_before_enumerating(monkeypatch, n, p, m, error):
    def enumerated(*args):
        raise AssertionError("enumerated before the inputs were checked")

    monkeypatch.setattr(lkllt.er, "_low_table", enumerated)
    with pytest.raises(error):
        iso_exact_pair_stats(n, p, m)


def test_iso_exact_pair_stats_bits_do_not_depend_on_the_openblas_thread_count():
    # OpenBLAS threads np.dot from about 10k terms on, and its sum then
    # depends on the thread count; a reduction over per-key terms stays short
    src = str(os.path.dirname(os.path.dirname(lkllt.er.__file__)))
    script = (
        "from lkllt.er import iso_exact_pair_stats\n"
        "for p in (0.1, 0.5, 0.9):\n"
        "    for m in (1, 2):\n"
        "        st = iso_exact_pair_stats(7, p, m)\n"
        f"        print(*(getattr(st, f).hex() for f in {_PAIR_STATS_FIELDS!r}))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=120,
        )
        outs.append(run.stdout)
    assert len(outs[0].splitlines()) == 6
    assert outs[0] == outs[1]


def test_iso_smoothing_bounds_scaling_dense_regime():
    # np -> 1 regime: first- and second-order bounds track 1/sigma and 1/sigma^2
    scaled1, scaled2 = [], []
    for n in (2**7, 2**8, 2**9, 2**10, 2**11, 2**12):
        p = 1.0 / n
        d1, d2, _, _ = iso_smoothing_bounds(n, p)
        sigma = math.sqrt(iso_moments(n, p).sigma2)
        scaled1.append(d1 * sigma)
        scaled2.append(d2 * sigma**2)
    assert max(scaled1) <= 3.0
    assert max(scaled2) <= 12.0
    assert scaled1[-1] <= scaled1[0] * 1.5
    assert scaled2[-1] <= scaled2[0] * 1.5


def test_iso_smoothing_bounds_sparse_regime_span2():
    scaled = []
    for n in (2**7, 2**9, 2**11):
        p = n**-1.5
        _, _, d12, _ = iso_smoothing_bounds(n, p)
        sigma = math.sqrt(iso_moments(n, p).sigma2)
        scaled.append(d12 * sigma)
    assert max(scaled) <= 6.0
    assert scaled[-1] <= scaled[0] * 1.5


@pytest.mark.parametrize("p", [0.7, 0.9])
def test_iso_smoothing_bounds_reject_an_underflowing_squared_rate(p):
    # at n = 200 the +-2 rate (p = 0.7) or also the +-1 rate (p = 0.9) is
    # positive, but its square is 0.0
    with pytest.raises(DegenerateChain):
        iso_smoothing_bounds(200, p)


def test_rate_experiment_isolated_dense():
    tab = er_rate_experiment("isolated", [(2000, 1 / 2000)], 100000, seed=2)
    row = dict(zip(tab.columns, tab.rows[0]))
    assert row["dloc"] < 2.0 / row["sigma"]
    assert row["dloc2"] <= row["dloc"] + 1e-12


def test_rate_experiment_sparse_parity_advantage():
    rows = [(n, n**-1.5) for n in (200, 400)]
    tab = er_rate_experiment("isolated", rows, 40000, seed=8)
    for r in tab.rows:
        d = dict(zip(tab.columns, r))
        assert d["dloc2"] <= d["dloc"]


def test_rate_experiment_triangles_tv_decreasing():
    rows = [(n, 1 / math.sqrt(n)) for n in (32, 64, 128)]
    tab = er_rate_experiment("triangles", rows, 64000, seed=3)
    dtv = tab.column("dtv")
    assert dtv[0] > dtv[1] > dtv[2]


def test_rate_experiment_mc_consistency():
    # same seed stream: the empirical-metric estimate settles as R grows
    row = [(200, 1 / 200)]
    d_small = dict(zip(*[er_rate_experiment("isolated", row, 1000, 5).columns,
                         er_rate_experiment("isolated", row, 1000, 5).rows[0]]))
    d_mid = dict(zip(*[er_rate_experiment("isolated", row, 10000, 5).columns,
                       er_rate_experiment("isolated", row, 10000, 5).rows[0]]))
    d_big = dict(zip(*[er_rate_experiment("isolated", row, 40000, 5).columns,
                       er_rate_experiment("isolated", row, 40000, 5).rows[0]]))
    assert abs(d_mid["dtv"] - d_big["dtv"]) < abs(d_small["dtv"] - d_big["dtv"])


def test_empirical_dist_keeps_interior_zeros():
    d = empirical_dist(np.array([3, 3, 6, 6, 6]))
    assert d.offset == 3
    assert len(d.pmf) == 4
    assert d.pmf[1] == d.pmf[2] == 0.0


def test_per_graph_eval_size_guard():
    with pytest.raises(TooLarge):
        ERPairModel(600, 0.5, "triangles")


# ---------------------------------------------------------------------------
# block evaluators


def _tri_counts_from_scratch(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numbers of absent and of present pairs with exactly one common
    neighbour, for each graph of a (count, n, n) stack, by integer products."""
    a = adj.astype(np.int64)
    one = np.triu(np.einsum("gik,gkj->gij", a, a) == 1, 1)
    return (one & ~adj).sum(axis=(1, 2)), (one & adj).sum(axis=(1, 2))


def _brute_tri_q(adj: np.ndarray, p: float) -> tuple[float, float, float, float]:
    """(Q(+1), Q(-1), Q(1,1), Q(-1,-1)) of one graph: toggle each pair with one
    common neighbour and recount every pair of the resulting graph.  The
    recounted moves of each sign are added as integers and multiplied once."""
    n = len(adj)
    c2 = comb(n, 2)
    (up,), (down,) = _tri_counts_from_scratch(adj[None])
    a = adj.astype(np.int64)
    common = a @ a
    cand = [(i, j) for i, j in itertools.combinations(range(n), 2) if common[i, j] == 1]
    nxt = np.repeat(adj[None], len(cand), axis=0)
    for k, (i, j) in enumerate(cand):
        nxt[k, i, j] = nxt[k, j, i] = not adj[i, j]
    up_next, down_next = _tri_counts_from_scratch(nxt)
    up_moves = down_moves = 0
    for k, (i, j) in enumerate(cand):
        if adj[i, j]:
            down_moves += int(down_next[k])
        else:
            up_moves += int(up_next[k])
    qpp = (p / c2) ** 2 * up_moves
    qmm = ((1 - p) / c2) ** 2 * down_moves
    return p * int(up) / c2, (1 - p) * int(down) / c2, qpp, qmm


def _assert_brute_force(adj: np.ndarray, p: float, got) -> None:
    for t, g in enumerate(adj):
        want = _brute_tri_q(g, p)
        assert tuple(float(v[t]) for v in got) == want, f"graph {t}"


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_tri_block_matches_brute_force_on_every_graph_n5(p):
    n = 5
    pairs = list(itertools.combinations(range(n), 2))
    adj = np.zeros((1 << len(pairs), n, n), dtype=bool)
    for t, (i, j) in enumerate(pairs):
        adj[:, i, j] = adj[:, j, i] = (np.arange(len(adj)) >> t) & 1 == 1
    got = _tri_q_block(adj, p)
    _assert_brute_force(adj, p, got)
    for k in (0, 7, 300, 1023):
        one = _tri_q_block(adj[k:k + 1], p)
        assert tuple(v[0] for v in one) == tuple(v[k] for v in got)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("count", [1, 7, 2200])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_tri_q_block_matches_brute_force_on_random_blocks(n, count, p):
    got = ERPairModel(n, p, "triangles").q_block(block_rng(21, n), count, 1)
    rng = block_rng(21, n)
    adj = np.concatenate([_gnp_adjacency(n, p, rng, 1) for _ in range(count)])
    _assert_brute_force(adj, p, got)


@pytest.mark.parametrize("m", [1, 2])
def test_iso_q_block_draws_match_per_graph_loop(m):
    n, p, count = 30, 0.05, 1000
    assert count > 2 * (_CHUNK_CELLS // n**2)  # spans several sub-chunks
    got = ERPairModel(n, p, "isolated").q_block(block_rng(5, 0), count, m)
    rng = block_rng(5, 0)
    want = np.empty((4, count))
    for t in range(count):
        s = graph_stats(_gnp_adjacency(n, p, rng, 1)[0])
        want[:, t] = _iso_q_from_counts(n, p, s.w_isolated, s.w1, s.e2, m)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_tri_q_block_draws_match_per_graph_loop():
    n, p, count = 40, 0.2, 500
    assert count > 2 * (_CHUNK_CELLS // n**2)
    qp, qm, qpp, qmm = ERPairModel(n, p, "triangles").q_block(block_rng(6, 0), count, 1)
    rng = block_rng(6, 0)
    want = np.array([_tri_q(_gnp_adjacency(n, p, rng, 1)[0], p) for _ in range(count)])
    assert np.array_equal(qp, want[:, 0]) and np.array_equal(qm, want[:, 1])
    adj = _gnp_adjacency(n, p, block_rng(6, 0), count)
    _, _, want_pp, want_mm = tri_q_block_per_slot(adj, p)
    assert np.array_equal(qpp, want_pp) and np.array_equal(qmm, want_mm)


def test_tri_q_block_memory_is_bounded_by_sub_chunks():
    # one block of 4096 graphs at n = 200 would hold 160 MB of adjacency alone
    model = ERPairModel(200, 0.3, "triangles")
    tracemalloc.start()
    try:
        qp, _, _, _ = model.q_block(block_rng(1, 0), 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(qp) == 4096
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _assert_same_bytes(got, want) -> None:
    assert len(got) == len(want) == 4
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f"array {k}"


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("n", [3, 4, 8, 12, 16, 17, 32, 64])
def test_tri_q_block_bytes_equal_the_per_slot_loop(n, p):
    adj = _gnp_adjacency(n, p, block_rng(31, n), 60 if n <= 16 else 12)
    want = tri_q_block_per_slot(adj, p)
    _assert_same_bytes(_tri_q_block(adj, p), want)
    # blocks of one graph too: a graph's values do not depend on its block
    for k in range(len(adj)):
        one = _tri_q_block(adj[k:k + 1], p)
        _assert_same_bytes(one, [w[k:k + 1] for w in want])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_tri_two_step_q_block_bytes_across_sub_chunks(n, offset):
    # one graph below, at and above a two-step sub-chunk boundary, then more
    # than two sub-chunks
    step = _TWO_STEP_CELLS // (n * n)
    for count in (step + offset, 2 * step + 3):
        got = ERPairModel(n, 0.3, "triangles").q_block(block_rng(4, n), count, 1)
        adj = _gnp_adjacency(n, 0.3, block_rng(4, n), count)
        _assert_same_bytes(got, tri_q_block_per_slot(adj, 0.3))


def test_tri_two_step_q_block_memory_is_bounded_by_sub_chunks():
    # the per-slot loop over sub-chunks of 1024 graphs peaked at 2.7 MB, and
    # the per-slot arrays summed in slot order at 1.74 MB
    model, rng = ERPairModel(16, 0.3, "triangles"), block_rng(1, 0)
    tracemalloc.start()
    try:
        _, _, qpp, _ = model.q_block(rng, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(qpp) == 4096
    assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_pair_model_validates_before_drawing():
    rng = block_rng(0, 0)
    ERPairModel(65, 0.3, "triangles")  # below the cap: allowed
    with pytest.raises(TooLarge):
        ERPairModel(513, 0.3, "triangles")
    with pytest.raises(InvalidParameter):
        ERPairModel(2, 0.3, "triangles")
    with pytest.raises(InvalidParameter):
        ERPairModel(1, 0.3, "isolated")
    with pytest.raises(InvalidParameter):
        ERPairModel(8, 0.3, "triangles").q_block(rng, 10, 2)
    with pytest.raises(InvalidParameter):
        ERPairModel(8, 0.3, "isolated").q_block(rng, 10, 3)
    assert rng.random() == block_rng(0, 0).random()  # no draw was consumed


@pytest.mark.parametrize("call", [
    lambda: ERPairModel(6, 0.5, "edges"),
    lambda: enumerate_graphs_oracle(4, 0.5, "edges"),
    lambda: er_rate_experiment("edges", [(10, 0.5)], 10, 1),
], ids=["pair-model", "oracle", "rate-experiment"])
def test_unknown_statistic_is_rejected(call):
    with pytest.raises(InvalidParameter, match="statistic must be 'isolated' or 'triangles'"):
        call()


def _triangle_counts_per_graph(n, p, rng, count):
    """Triangle counts of ``count`` one-graph draws, one graph at a time."""
    return np.array([triangle_count(_gnp_adjacency(n, p, rng, 1)[0]) for _ in range(count)])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
# 63, 64, 65, 128 and 129 put rows on both sides of each 64-bit word boundary
@pytest.mark.parametrize("n", [3, 5, 12, 32, 63, 64, 65, 128, 129])
def test_triangle_count_block_matches_per_graph_loop(n, p, offset):
    # counts one below, at and one above a sub-chunk boundary
    count = max(1, _SAMPLE_CELLS // (n * n) + offset)
    got = _triangle_count_block(n, p, block_rng(9, n), count)
    want = _triangle_counts_per_graph(n, p, block_rng(9, n), count)
    assert np.array_equal(got, want)
    if p == 1.0:
        assert np.all(got == comb(n, 3))


def test_triangle_count_block_memory_is_bounded_by_sub_chunks():
    # one block of 4096 graphs at n = 128 would hold 256 MB of uniforms alone
    tracemalloc.start()
    try:
        counts = _triangle_count_block(128, 0.3, block_rng(2, 0), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 4096
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


_ISO_CASES = [
    (50, 0.3), (10, 0.05), (200, 0.01), (2, 0.5), (3, 0.9), (5000, 1e-4),
    (7, 0.999), (33, 0.02), (65, 0.001), (12, 0.0), (12, 1.0),
    (40, float(np.nextafter(1 / 3, 0))), (40, 1 / 3),
]


@pytest.mark.parametrize("cap", [comb(2000, 2) + 1, 2**52])
@pytest.mark.parametrize(
    "p", [1e-300, 1e-17, 5e-4, 0.2, float(np.nextafter(1 / 3, 0)), 1 / 3, 0.5, 0.999]
)
def test_geometric_gaps_equal_numpy_geometric(p, cap):
    # numpy's own geometric is the reference: should a numpy release change
    # how it draws, this fails rather than a golden
    rng, ref_rng = block_rng(8, 0), block_rng(8, 0)
    got = _geometric_gaps(p, rng, (7, 1500), cap)
    want = np.minimum(ref_rng.geometric(p, (7, 1500)), cap)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.random() == ref_rng.random()  # the same draws were consumed


def _assert_same_iso_counts(n, p, seed, count) -> None:
    rng, ref_rng = block_rng(seed, n), block_rng(seed, n)
    got = _isolated_count_block(n, p, rng, count)
    want = isolated_counts_per_replicate(n, p, ref_rng, count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()  # the same draws were consumed


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("n, p", _ISO_CASES)
def test_isolated_count_block_bytes_equal_the_per_replicate_loop(n, p, offset):
    # counts one below, at and one above a sub-chunk boundary, and over several
    step = max(1, _ISO_POSITIONS // _gap_chunk(comb(n, 2), p))
    _assert_same_iso_counts(n, p, 3, max(1, step + offset))
    _assert_same_iso_counts(n, p, 4, 3 * step + offset + 1)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("n, p", [(10, 0.05), (33, 0.02), (65, 0.001), (50, 0.3), (2, 0.5)])
def test_isolated_count_block_replays_short_rows(monkeypatch, n, p, chunk):
    # with 1 to 3 gaps per draw most rows fall short of the last slot, the
    # first of a sub-chunk or a later one, and draw on alone
    monkeypatch.setattr(lkllt.er, "_gap_chunk", lambda slots, p: chunk)
    _assert_same_iso_counts(n, p, 5, 300)


def test_isolated_count_block_tiny_p_has_no_edges():
    # gaps of about 1/p overflowed the int64 sums (p = 1e-20); p = 1e-300,
    # whose gaps never passed the last slot, runs in a subprocess in test_cli.py
    for p in (1e-17, 1e-20):
        assert np.all(_isolated_count_block(10, p, block_rng(1, 0), 50) == 10)


@pytest.mark.parametrize("n", [*range(2, 101), 127, 128, 2000, 2048])
def test_slot_decoder_matches_searchsorted_on_every_slot(monkeypatch, n):
    N = comb(n, 2)
    e = np.arange(N)
    want_i, want_j = decode_pairs_by_searchsorted(n, e)
    past = np.array([N, N + 1, N + 31, N + 32, 10 * N + 64, 2**40])
    s, b, decode = _slot_decoder(n)
    c = np.concatenate([e, past]) + 1 + s
    # only the rows of fewer than 2^b slots may need more than the one step
    short_rows = comb(min(n, 1 << b), 2)
    real_searchsorted, handed = np.searchsorted, []
    monkeypatch.setattr(np, "searchsorted", lambda a, v, **kw: (
        handed.append(v), real_searchsorted(a, v, **kw))[1])
    i, j = decode(c[None, :])
    assert np.array_equal(i[0, :N], want_i) and np.array_equal(j[0, :N], want_j)
    assert np.all(i[0, N:] == n) and np.all(j[0, N:] == n + 1)
    assert all(np.all(v > N - short_rows + s) for v in handed)


def test_isolated_count_block_memory_is_bounded_by_sub_chunks():
    # 4096 replicates of about 1,300 gaps each at once would hold 43 MB of int64
    rng = block_rng(1, 0)
    tracemalloc.start()
    try:
        counts = _isolated_count_block(2000, 0.0005, rng, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 4096
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"
