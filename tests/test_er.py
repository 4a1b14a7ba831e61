import itertools
import math
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest

from lkllt.er import (
    _CHUNK_CELLS,
    _SAMPLE_CELLS,
    ERPairModel,
    GraphState,
    _enumerate_graphs,
    _enumerated_iso_counts,
    _enumerated_triangles,
    _gnp,
    _iso_q_from_counts,
    _tri_q_block,
    _triangle_count_block,
    _unpack,
    empirical_dist,
    enumerate_graphs_oracle,
    er_rate_experiment,
    gnp_sample,
    graph_from_edges,
    graph_stats,
    iso_exact_pair_stats,
    iso_moments,
    iso_q,
    iso_q11_two_step,
    iso_smoothing_bounds,
    tri_closed_forms,
    tri_q,
    tri_q11_two_step,
)
from lkllt.errors import InvalidParameter, TooLarge
from lkllt.metrics import smoothing_term
from lkllt.rngutil import block_rng
from lkllt.smoothing import pair_bound_d1, pair_bound_d2, pair_stats

from helpers import chain_step_probabilities, isolated_count, triangle_count


def test_gnp_extremes():
    assert gnp_sample(5, 0.0, 1).edge_count() == 0
    assert gnp_sample(5, 1.0, 1).edge_count() == comb(5, 2)
    with pytest.raises(InvalidParameter):
        gnp_sample(5, 1.5, 1)


def test_gnp_edge_count_concentration():
    n, p = 100, 0.5
    mean, sd = comb(n, 2) * p, math.sqrt(comb(n, 2) * p * (1 - p))
    for seed in range(100):
        count = gnp_sample(n, p, seed).edge_count()
        assert abs(count - mean) <= 4 * sd


def test_graph_stats_examples():
    s = graph_stats(graph_from_edges(3, []))
    assert (s.w_isolated, s.w1, s.e2, s.triangles) == (3, 0, 0, 0)
    s = graph_stats(graph_from_edges(3, [(0, 1)]))
    assert (s.w_isolated, s.w1, s.e2, s.triangles) == (1, 2, 1, 0)
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
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
    masks, _, _ = _enumerate_graphs(n, 0.5)
    if statistic == "isolated":
        w, w1, e2 = _enumerated_iso_counts(n, masks)
        terms = {
            "e_w": w, "e_w2": w ** 2, "e_w3": w ** 3, "e_w4": w ** 4,
            "e_w1": w1, "e_e2": e2, "e_w1sq": w1 ** 2,
            "e_e2sq": e2 ** 2, "e_w1e2": w1 * e2,
        }
    else:
        t = _enumerated_triangles(n, masks)
        terms = {"e_t": t, "e_t2": t ** 2, "e_t3": t ** 3, "e_t4": t ** 4}
    for p in (0.1, 0.3, 0.5):
        _, _, prob = _enumerate_graphs(n, p)
        _, moments = enumerate_graphs_oracle(n, p, statistic)
        assert moments == {key: math.fsum((prob * x).tolist()) for key, x in terms.items()}


def test_iso_q_examples():
    p = 0.5
    empty3 = graph_from_edges(3, [])
    v = iso_q(empty3, p)
    assert v.q_neg1 == 0.0
    assert v.q_neg2 == pytest.approx(0.5)
    edge3 = graph_from_edges(3, [(0, 1)])
    v = iso_q(edge3, p)
    assert v.q1 == 0.0
    assert v.q2 == pytest.approx(1 / 6)
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    v = iso_q(k4, p)
    assert v.q1 == v.q2 == 0.0


def test_tri_q_examples():
    path = graph_from_edges(4, [(0, 1), (1, 2)])
    q1, qn1 = tri_q(path, 0.5)
    assert q1 == pytest.approx(0.5 / 6)
    assert qn1 == 0.0
    triangle = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    q1, qn1 = tri_q(triangle, 0.5)
    assert q1 == 0.0
    assert qn1 == pytest.approx(0.5)
    assert tri_q(graph_from_edges(3, []), 0.5) == (0.0, 0.0)


def test_one_step_chain_equivalence():
    rng = block_rng(42, 0)
    for n in (4, 5, 6):
        for _ in range(12):
            p = float(rng.uniform(0.1, 0.9))
            G = _gnp(n, p, rng)
            iso_bf = chain_step_probabilities(G, p, isolated_count)
            v = iso_q(G, p)
            for jump, closed in (
                (1, v.q1), (-1, v.q_neg1), (2, v.q2), (-2, v.q_neg2)
            ):
                assert closed == pytest.approx(iso_bf.get(jump, 0.0), abs=1e-14)
            tri_bf = chain_step_probabilities(G, p, triangle_count)
            q1, qn1 = tri_q(G, p)
            assert q1 == pytest.approx(tri_bf.get(1, 0.0), abs=1e-14)
            assert qn1 == pytest.approx(tri_bf.get(-1, 0.0), abs=1e-14)


def test_iso_q11_closed_form_overcounts():
    # the (W1, E2)-based two-step product misses structure changes after the
    # first removal; the spec leaves the closed form in place and has the
    # enumeration adjudicate.  Lock in the canonical counterexample and report
    # the observed spread.
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    closed = iso_q(path3, 0.5).q11
    truth = iso_q11_two_step(path3, 0.5)
    assert closed == pytest.approx(1 / 18)
    assert truth == 0.0
    rng = block_rng(7, 0)
    gaps = []
    for _ in range(100):
        n = int(rng.integers(4, 7))
        p = float(rng.uniform(0.2, 0.8))
        G = _gnp(n, p, rng)
        gaps.append(iso_q(G, p).q11 - iso_q11_two_step(G, p))
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


def test_tri_variance_bound_plus_side_mc():
    n, p = 8, 0.3
    stats = pair_stats(ERPairModel(n, p, "triangles", two_step=False), 1, 20000, seed=11)
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
    stats = pair_stats(ERPairModel(n, p, "triangles", two_step=True), 1, 20000, seed=5)
    f = tri_closed_forms(n, p)
    closed = p * f.q1 / comb(n, 2)
    assert stats.ediff_plus == pytest.approx(closed, abs=3 * stats.se_ediff_plus)


def test_tri_two_step_probability_consistency():
    # two-step enumeration from the empty-ish graphs: adding any edge to an
    # empty graph creates no triangle, so both two-step rates vanish
    empty = graph_from_edges(5, [])
    assert tri_q11_two_step(empty, 0.4) == 0.0


def test_er_pair_model_rates_match_closed_forms():
    stats = pair_stats(ERPairModel(6, 0.5, "isolated"), 1, 30000, seed=13)
    mom = iso_moments(6, 0.5)
    want = (mom.e_w1 - 2 * mom.e_e2) * 0.5 / comb(6, 2)
    assert stats.q_m == pytest.approx(want, abs=3 * stats.se_q_m)
    tri_stats = pair_stats(
        ERPairModel(8, 0.3, "triangles", two_step=False), 1, 20000, seed=14
    )
    assert tri_stats.q_m == pytest.approx(
        tri_closed_forms(8, 0.3).q1, abs=3 * tri_stats.se_q_m
    )


def test_exact_bounds_dominate_exact_law():
    law, _ = enumerate_graphs_oracle(5, 0.5, "isolated")
    st = iso_exact_pair_stats(5, 0.5, 1)
    assert pair_bound_d1(st) >= smoothing_term(law, 1, 1)
    assert pair_bound_d2(st) >= smoothing_term(law, 2, 1)


def test_iso_smoothing_bounds_scaling_dense_regime():
    # np -> 1 regime: first- and second-order bounds track 1/sigma and 1/sigma^2
    scaled1, scaled2 = [], []
    for n in (2**7, 2**8, 2**9, 2**10, 2**11, 2**12):
        p = 1.0 / n
        b = iso_smoothing_bounds(n, p)
        sigma = math.sqrt(iso_moments(n, p).sigma2)
        scaled1.append(b.d1_bound * sigma)
        scaled2.append(b.d2_bound * sigma**2)
    assert max(scaled1) <= 3.0
    assert max(scaled2) <= 12.0
    assert scaled1[-1] <= scaled1[0] * 1.5
    assert scaled2[-1] <= scaled2[0] * 1.5


def test_iso_smoothing_bounds_sparse_regime_span2():
    scaled = []
    for n in (2**7, 2**9, 2**11):
        p = n**-1.5
        b = iso_smoothing_bounds(n, p)
        sigma = math.sqrt(iso_moments(n, p).sigma2)
        scaled.append(b.d12_bound * sigma)
    assert max(scaled) <= 6.0
    assert scaled[-1] <= scaled[0] * 1.5


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
    big = GraphState(600, np.zeros((600, 10), dtype=np.uint64))
    with pytest.raises(TooLarge):
        tri_q(big, 0.5)


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
    two-step terms are summed over the candidate pairs in (i, j) order."""
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
    qpp = qmm = 0.0
    for k, (i, j) in enumerate(cand):
        if adj[i, j]:
            qmm += (1 - p) / c2 * ((1 - p) * int(down_next[k]) / c2)
        else:
            qpp += p / c2 * (p * int(up_next[k]) / c2)
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
    got = _tri_q_block(adj, p, True)
    _assert_brute_force(adj, p, got)
    for k in (0, 7, 300, 1023):
        G = graph_from_edges(n, zip(*np.nonzero(np.triu(adj[k], 1))))
        assert tri_q(G, p) == (got[0][k], got[1][k])
        assert tri_q11_two_step(G, p) == got[2][k]


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("count", [1, 7, 2200])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_tri_q_block_matches_brute_force_on_random_blocks(n, count, p):
    got = ERPairModel(n, p, "triangles", two_step=True).q_block(block_rng(21, n), count, 1)
    rng = block_rng(21, n)
    adj = np.stack([_unpack(_gnp(n, p, rng)) for _ in range(count)])
    _assert_brute_force(adj, p, got)


@pytest.mark.parametrize("m", [1, 2])
def test_iso_q_block_draws_match_per_graph_loop(m):
    n, p, count = 30, 0.05, 1000
    assert count > 2 * (_CHUNK_CELLS // n**2)  # spans several sub-chunks
    got = ERPairModel(n, p, "isolated").q_block(block_rng(5, 0), count, m)
    rng = block_rng(5, 0)
    want = np.empty((4, count))
    for t in range(count):
        s = graph_stats(_gnp(n, p, rng))
        v = _iso_q_from_counts(n, p, s.w_isolated, s.w1, s.e2)
        want[:, t] = (v[0], v[1], v[4], v[5]) if m == 1 else (v[2], v[3], v[6], v[7])
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_tri_q_block_draws_match_per_graph_loop():
    n, p, count = 40, 0.2, 500
    assert count > 2 * (_CHUNK_CELLS // n**2)
    qp, qm, qpp, qmm = ERPairModel(n, p, "triangles").q_block(block_rng(6, 0), count, 1)
    assert qpp is None and qmm is None
    rng = block_rng(6, 0)
    want = np.array([tri_q(_gnp(n, p, rng), p) for _ in range(count)])
    assert np.array_equal(qp, want[:, 0]) and np.array_equal(qm, want[:, 1])


def test_tri_q_block_memory_is_bounded_by_sub_chunks():
    # one block of 4096 graphs at n = 200 would hold 160 MB of adjacency alone
    model = ERPairModel(200, 0.3, "triangles", two_step=False)
    tracemalloc.start()
    try:
        qp, _, _, _ = model.q_block(block_rng(1, 0), 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(qp) == 4096
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_pair_model_validates_before_drawing():
    rng = block_rng(0, 0)
    with pytest.raises(TooLarge):
        ERPairModel(65, 0.3, "triangles", two_step=True).q_block(rng, 10, 1)
    assert not ERPairModel(65, 0.3, "triangles").two_step  # one-step only: allowed
    with pytest.raises(TooLarge):
        ERPairModel(513, 0.3, "triangles", two_step=False)
    with pytest.raises(InvalidParameter):
        ERPairModel(2, 0.3, "triangles")
    with pytest.raises(InvalidParameter):
        ERPairModel(1, 0.3, "isolated")
    with pytest.raises(InvalidParameter):
        ERPairModel(8, 0.3, "triangles").q_block(rng, 10, 2)
    with pytest.raises(InvalidParameter):
        ERPairModel(8, 0.3, "isolated").q_block(rng, 10, 3)
    assert rng.random() == block_rng(0, 0).random()  # no draw was consumed


def _triangle_counts_per_graph(n, p, rng, count):
    """The per-graph loop that ``_triangle_count_block`` replaced."""
    out = np.empty(count, dtype=np.int64)
    for t in range(count):
        G = _gnp(n, p, rng)
        ii, jj = np.nonzero(np.triu(_unpack(G), 1))
        if len(ii) == 0:
            out[t] = 0
            continue
        common = np.bitwise_count(G.words[ii] & G.words[jj]).sum()
        out[t] = int(common) // 3
    return out


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("n", [3, 5, 12, 32, 64, 65, 128])
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
