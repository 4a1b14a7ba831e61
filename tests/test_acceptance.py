"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every criterion is expected to be green.  The criterion-8 `Var Q(-1)`
bound is also checked exactly, over every graph at n = 5 and 6, in
tests/test_er.py::test_tri_variance_bounds_dominate_exact_enumeration.
"""

import math
import time
from math import comb

import numpy as np
import pytest

from lkllt import cli
from lkllt.curie_weiss import CWPairModel, CWParams, cw_exact_pmf, cw_rate_experiment
from lkllt.er import (
    ERPairModel,
    _gnp_adjacency,
    _iso_counts,
    _iso_q_from_counts,
    _tri_q_block,
    enumerate_graphs_oracle,
    iso_moments,
    tri_closed_forms,
)
from lkllt.lk import KNOWN_CASES, SQRT2, lk_fuzz
from lkllt.metrics import smoothing_term, smoothing_term_dual
from lkllt.rgg import rgg_experiment, rgg_independence
from lkllt.rngutil import block_rng
from lkllt.smoothing import PairChainStats, pair_bound_d1, pair_bound_d2, pair_stats
from lkllt.tp import tp_dist, tp_params

from helpers import (
    chain_step_probabilities,
    isolated_count,
    random_dist,
    subset_max_independent,
    triangle_count,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_moment_formula_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        for p in (0.2, 0.5, 0.8):
            _, oracle = enumerate_graphs_oracle(n, p, "isolated")
            formulas = iso_moments(n, p).as_dict()
            for key, want in oracle.items():
                worst = max(worst, abs(formulas[key] - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30
    report(1, ok, f"nine-moment battery worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30


def test_criterion_2_q_function_equivalence():
    t0 = time.perf_counter()
    rng = block_rng(2024, 0)
    worst = 0.0
    for n in (4, 5, 6):
        for _ in range(20):
            p = float(rng.uniform(0.1, 0.9))
            adj = _gnp_adjacency(n, p, rng, 1)
            iso_bf = chain_step_probabilities(adj[0], p, isolated_count)
            for m in (1, 2):
                q, qn, _, _ = _iso_q_from_counts(n, p, *_iso_counts(adj), m)
                for jump, closed in ((m, q), (-m, qn)):
                    worst = max(worst, abs(float(closed[0]) - iso_bf.get(jump, 0.0)))
            tri_bf = chain_step_probabilities(adj[0], p, triangle_count)
            q1, qn1, _, _ = _tri_q_block(adj, p)
            worst = max(worst, abs(float(q1[0]) - tri_bf.get(1, 0.0)))
            worst = max(worst, abs(float(qn1[0]) - tri_bf.get(-1, 0.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 10
    report(2, ok, f"one-step chain equivalence worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-14
    assert elapsed < 10


def test_criterion_3_known_constants():
    t0 = time.perf_counter()
    worsts, _ = lk_fuzz(10000, seed=1, cases=tuple(sorted(KNOWN_CASES)))
    elapsed = time.perf_counter() - t0
    ok = all(w <= SQRT2 + 1e-12 for w in worsts.values()) and elapsed < 60
    report(3, ok, f"worst ratios {worsts}, {elapsed:.1f}s")
    for case, w in worsts.items():
        assert w <= SQRT2 + 1e-12, case
    assert elapsed < 60


def test_criterion_4_dual_smoothing_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        F = random_dist(rng, 40)
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                worst = max(
                    worst,
                    abs(smoothing_term(F, n, m) - smoothing_term_dual(F, n, m)),
                )
    ok = worst <= 1e-10
    report(4, ok, f"primal/dual worst gap {worst:.2e} over 1000 laws")
    assert worst <= 1e-10


def test_criterion_5_translated_poisson_contract():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        mu = float(rng.uniform(-100, 100))
        s2 = float(rng.uniform(1, 1e4))
        d = tp_dist(tp_params(mu, s2))
        ok = ok and abs(d.mean() - mu) <= 1e-8 * s2
        ok = ok and s2 <= d.variance() <= s2 + 1
    slopes = {}
    sigmas = np.arange(10, 101, 10, dtype=float)
    for k in (1, 2, 3):
        vals = [smoothing_term(tp_dist(tp_params(0.0, s * s)), k, 1) for s in sigmas]
        slope = float(np.polyfit(np.log(sigmas), np.log(vals), 1)[0])
        slopes[k] = slope
        ok = ok and (-k - 0.2 <= slope <= -k + 0.2)
    report(5, ok, f"moment contract on 100 draws, decay slopes {slopes}")
    assert ok


def _d1_slack(st: PairChainStats) -> float:
    grad = 0.0
    if st.var_q_plus > 0:
        grad += st.se_var_q_plus / (2 * math.sqrt(st.var_q_plus))
    if st.var_q_minus > 0:
        grad += st.se_var_q_minus / (2 * math.sqrt(st.var_q_minus))
    return grad / st.q_m + pair_bound_d1(st) * st.se_q_m / st.q_m


def _d2_slack(st: PairChainStats) -> float:
    grad = (
        2 * st.se_var_q_plus + st.se_ediff_plus
        + 2 * st.se_var_q_minus + st.se_ediff_minus
    )
    return grad / st.q_m**2 + 2 * pair_bound_d2(st) * st.se_q_m / st.q_m


def test_criterion_6_pair_bound_validity():
    t0 = time.perf_counter()
    reps = 100000
    ok = True
    worst_margin = math.inf
    for n in (20, 50, 100):
        for beta in (0.3, 0.5, 0.8):
            for h in (0.0, 0.2):
                params = CWParams(n, beta, h)
                law = cw_exact_pmf(params)
                st = pair_stats(CWPairModel(params), 2, reps, seed=6)
                d1, d2 = pair_bound_d1(st), pair_bound_d2(st)
                e1 = smoothing_term(law, 1, 2)
                e2 = smoothing_term(law, 2, 2)
                ok = ok and d1 >= e1 - 3 * _d1_slack(st)
                ok = ok and d2 >= e2 - 3 * _d2_slack(st)
                worst_margin = min(worst_margin, d1 / e1, d2 / e2)
    law, _ = enumerate_graphs_oracle(6, 0.5, "isolated")
    st = pair_stats(ERPairModel(6, 0.5, "isolated"), 1, reps, seed=6)
    d1, d2 = pair_bound_d1(st), pair_bound_d2(st)
    e1 = smoothing_term(law, 1, 1)
    e2 = smoothing_term(law, 2, 1)
    ok = ok and d1 >= e1 - 3 * _d1_slack(st)
    ok = ok and d2 >= e2 - 3 * _d2_slack(st)
    worst_margin = min(worst_margin, d1 / e1, d2 / e2)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    report(
        6,
        ok,
        f"18 magnetization cases + isolated vertices, worst bound/exact "
        f"margin {worst_margin:.2f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_magnetization_rates():
    t0 = time.perf_counter()
    grid = [2**k for k in range(6, 13)]
    tab = cw_rate_experiment(0.5, 0.0, grid)
    logs = np.log(np.array(grid, dtype=float))
    dloc_slope = float(np.polyfit(logs, np.log(tab.column("dloc")), 1)[0])
    dtv_slope = float(np.polyfit(logs, np.log(tab.column("dtv")), 1)[0])
    tab2 = cw_rate_experiment(0.5, 0.2, grid)
    scaled = np.array(tab2.column("dloc")) * np.sqrt(np.array(grid, dtype=float))
    decreasing = bool(np.all(np.diff(scaled) < 0))
    elapsed = time.perf_counter() - t0
    ok = dloc_slope <= -0.70 and dtv_slope <= -1 / 3 and decreasing and elapsed < 120
    report(
        7,
        ok,
        f"dloc slope {dloc_slope:.3f} (<= -0.70), dtv slope {dtv_slope:.3f} "
        f"(<= -1/3), field case decreasing={decreasing}, {elapsed:.1f}s",
    )
    assert ok


_TRI_CASES = ((8, 0.3), (12, 0.25))


@pytest.fixture(scope="module")
def tri_stats():
    return {
        (n, p): pair_stats(ERPairModel(n, p, "triangles"), 1, 100000, seed=8)
        for n, p in _TRI_CASES
    }


def test_criterion_8_jump_rate_and_upward_variance(tri_stats):
    ok = True
    details = []
    for n, p in _TRI_CASES:
        st = tri_stats[(n, p)]
        f = tri_closed_forms(n, p)
        rate_ok = abs(st.q_m - f.q1) <= 3 * st.se_q_m
        var_ok = st.var_q_plus <= f.var_q1_bound + 3 * st.se_var_q_plus
        ok = ok and rate_ok and var_ok
        details.append(f"(n={n},p={p}) rate_ok={rate_ok} var_q1_ok={var_ok}")
    report(8, ok, "jump-rate identity and Var Q(+1) bound: " + "; ".join(details))
    assert ok


def test_criterion_8_downward_variance_paper_bound(tri_stats):
    # Implemented exactly as stated.  The closed form is also checked against
    # the exact variance by enumerating every graph at n = 5 and 6
    # (tests/test_er.py::test_tri_variance_bounds_dominate_exact_enumeration).
    ok = True
    details = []
    for n, p in _TRI_CASES:
        st = tri_stats[(n, p)]
        f = tri_closed_forms(n, p)
        clause = st.var_q_minus <= f.var_qneg1_bound + 3 * st.se_var_q_minus
        ok = ok and clause
        details.append(
            f"(n={n},p={p}) var_qneg1 {st.var_q_minus:.3e} vs bound "
            f"{f.var_qneg1_bound:.3e} + 3se"
        )
    report(8, ok, "Var Q(-1) closed-form bound: " + "; ".join(details))
    assert ok, (
        "Var Q(-1) exceeds the closed-form bound tri_closed_forms(n, p)."
        "var_qneg1_bound; see test_tri_variance_bounds_dominate_exact_enumeration "
        "in tests/test_er.py for the exact check at n = 5 and 6"
    )


def test_criterion_9_two_step_mean_identity():
    t0 = time.perf_counter()
    n, p = 8, 0.3
    st = pair_stats(ERPairModel(n, p, "triangles"), 1, 50000, seed=9)
    closed = p * tri_closed_forms(n, p).q1 / comb(n, 2)
    gap = abs(st.ediff_plus - closed)
    ok = gap <= 3 * st.se_ediff_plus
    elapsed = time.perf_counter() - t0
    report(
        9,
        ok,
        f"|two-step mean - closed form| = {gap:.2e} vs 3se = "
        f"{3 * st.se_ediff_plus:.2e}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_geometric_graph_sanity():
    rng = block_rng(10, 0)
    all_equal = True
    for _ in range(100):
        n = int(rng.integers(1, 21))
        xs = rng.random((n, 1))
        r = float(rng.uniform(0.01, 0.4))
        all_equal = all_equal and (
            rgg_independence(xs, r) == subset_max_independent(xs, r)
        )
    tab = rgg_experiment(0.2, 1, [50, 100, 200], replicates=20000, seed=10)
    ratios = tab.column("var_w_over_lam")
    band = max(ratios) / min(ratios)
    ok = all_equal and band <= 3.0
    report(
        10,
        ok,
        f"greedy == subset brute force on 100 instances: {all_equal}, "
        f"Var W / lambda band factor {band:.3f} (<= 3)",
    )
    assert ok


def test_criterion_11_cli_byte_reproducibility(tmp_path):
    cases = [
        ["cw", "rate", "--beta", "0.5", "--h", "0", "--n-grid", "64:512:x2"],
        ["er", "iso", "--n", "80", "--p", "0.02", "--reps", "3000", "--seed", "3"],
        ["er", "tri", "--n", "16", "--p", "0.25", "--reps", "1500", "--seed", "4"],
        ["er", "oracle", "--n", "5", "--p", "0.3", "--stat", "triangles"],
        ["tp", "--mu", "2.5", "--sigma2-grid", "25:400:x4", "--format", "json"],
        ["rgg", "--lambda-grid", "40:80:x2", "--reps", "1200", "--seed", "5"],
        ["bounds", "--model", "er-iso", "--n", "6", "--p", "0.5", "--reps", "4000",
         "--seed", "6"],
        ["verify", "lk", "--trials", "300", "--seed", "7"],
    ]
    ok = True
    for i, args in enumerate(cases):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        ok = ok and cli.main(args + ["--out", str(a)]) == 0
        ok = ok and cli.main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(11, ok, f"{len(cases)} subcommand configurations byte-identical on rerun")
    assert ok
