"""Command-line front end: experiments, verification suites, report emission.

Every subcommand is deterministic: identical flags (including the seed)
produce byte-identical output.  The master seed fans out to fixed-size
replicate blocks keyed (seed, block index), so results do not depend on
thread count (LKLLT_THREADS) and growing the replicate count preserves the
draws of earlier replicates.  Wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import LklltError, NumericalFailure
from .lattice import LatticeDist
from .metrics import (
    KOLMOGOROV,
    LOCAL,
    TOTAL_VARIATION,
    WASSERSTEIN,
    distance,
    local_span,
    smoothing_term,
)
from .report import RateTable, fmt


def parse_grid(spec: str, integer: bool = True) -> list:
    """Geometric grid 'a:b:xk': from a to b inclusive, multiplying by k."""
    try:
        a_s, b_s, k_s = spec.split(":")
        if not k_s.startswith("x"):
            raise ValueError
        a, b, k = float(a_s), float(b_s), float(k_s[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} must look like a:b:xk (geometric, factor k)"
        )
    if a <= 0 or b < a or k <= 1:
        raise argparse.ArgumentTypeError(f"grid {spec!r} is empty or non-increasing")
    out = []
    x = a
    while x <= b * (1 + 1e-12):
        out.append(int(round(x)) if integer else x)
        x *= k
    return out


def _emit(table: RateTable, args) -> None:
    text = table.to_json() if args.format == "json" else table.to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _common_output(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _cmd_metrics(args) -> int:
    F = LatticeDist.from_json(Path(args.f).read_text())
    G = LatticeDist.from_json(Path(args.g).read_text())
    table = RateTable(
        ["quantity", "value"],
        metadata={"command": "metrics", "version": __version__, "m": args.m, "n": args.n},
    )
    table.add("dk", distance(F, G, KOLMOGOROV))
    table.add("dw", distance(F, G, WASSERSTEIN))
    table.add("dtv", distance(F, G, TOTAL_VARIATION))
    table.add("dloc", distance(F, G, LOCAL))
    if args.m > 1:
        table.add(f"dloc_m{args.m}", distance(F, G, local_span(args.m)))
    table.add(f"smooth_n{args.n}_m{args.m}_f", smoothing_term(F, args.n, args.m))
    table.add(f"smooth_n{args.n}_m{args.m}_g", smoothing_term(G, args.n, args.m))
    _emit(table, args)
    return 0


def _cmd_tp(args) -> int:
    from .tp import tp_normal_gaps, tp_params

    sigma2s = parse_grid(args.sigma2_grid, integer=False) if args.sigma2_grid else [args.sigma2]
    if sigma2s is None or sigma2s == [None]:
        raise LklltError("provide --sigma2 or --sigma2-grid")
    table = RateTable(
        ["mu", "sigma2", "local_gap", "dk", "dw"],
        metadata={"command": "tp", "version": __version__, "mu": args.mu},
    )
    for s2 in sigma2s:
        gaps = tp_normal_gaps(tp_params(args.mu, s2))
        table.add(args.mu, float(s2), *gaps)
    _emit(table, args)
    return 0


def _cmd_verify_lk(args) -> int:
    from .lk import KNOWN_CASES, lk_fuzz

    cases = sorted(KNOWN_CASES) if args.case == "all" else [args.case]
    rows: list = []
    table = RateTable(
        ["trial", "combo", "lhs", "rhs_core", "ratio"],
        metadata={
            "command": "verify_lk", "version": __version__,
            "trials": args.trials, "seed": args.seed,
        },
    )
    ok = True
    for case in cases:
        collected: list = []
        worst = lk_fuzz(args.trials, args.seed, case, collect_rows=collected)
        rows.extend(collected)
        holds = worst <= math.sqrt(2.0) + 1e-12
        ok = ok and holds
        sys.stdout.write(
            f"{case}: worst_ratio={fmt(worst)} C=sqrt(2) holds={holds}\n"
        )
    if args.out:
        for r in rows:
            table.add(*r)
        text = table.to_json() if args.format == "json" else table.to_csv()
        Path(args.out).write_text(text)
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    from .smoothing import pair_bound_d1, pair_bound_d2, pair_stats

    if args.model == "cw":
        from .curie_weiss import CWPairModel, CWParams

        model = CWPairModel(CWParams(args.n, args.beta, args.h))
        m = args.m or 2
    else:
        from .er import ERPairModel

        statistic = "isolated" if args.model == "er-iso" else "triangles"
        model = ERPairModel(args.n, args.p, statistic)
        m = args.m or 1
    stats = pair_stats(model, m, args.reps, args.seed)
    payload = {
        "model": args.model,
        "version": __version__,
        "m": m,
        "replicates": args.reps,
        "seed": args.seed,
        "stats": {
            "q_m": stats.q_m,
            "var_q_plus": stats.var_q_plus,
            "var_q_minus": stats.var_q_minus,
            "ediff_plus": stats.ediff_plus,
            "ediff_minus": stats.ediff_minus,
            "se_q_m": stats.se_q_m,
            "se_var_q_plus": stats.se_var_q_plus,
            "se_var_q_minus": stats.se_var_q_minus,
            "se_ediff_plus": stats.se_ediff_plus,
            "se_ediff_minus": stats.se_ediff_minus,
        },
        "d1_pair_bound": pair_bound_d1(stats),
        "d2_pair_bound": (
            pair_bound_d2(stats) if stats.ediff_plus is not None else None
        ),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cw_rate(args) -> int:
    from .curie_weiss import cw_rate_experiment

    table = cw_rate_experiment(args.beta, args.h, args.n_grid)
    table.metadata.update({"command": "cw_rate", "version": __version__})
    _emit(table, args)
    return 0


def _er_rows(args) -> list[tuple[int, float]]:
    ns = args.n_grid if args.n_grid else [args.n]
    if ns is None or ns == [None]:
        raise LklltError("provide --n or --n-grid")
    rows = []
    for n in ns:
        if args.p_mode == "const":
            p = args.p
        elif args.p_mode == "c-over-n":
            p = args.p_coeff / n
        else:  # power
            p = args.p_coeff * n ** (-args.p_alpha)
        if p is None:
            raise LklltError("provide --p for p-mode const")
        rows.append((int(n), float(p)))
    return rows


def _cmd_er(args) -> int:
    from .er import er_rate_experiment

    statistic = "isolated" if args.er_cmd == "iso" else "triangles"
    table = er_rate_experiment(statistic, _er_rows(args), args.reps, args.seed)
    table.metadata.update({"command": f"er_{args.er_cmd}", "version": __version__})
    _emit(table, args)
    return 0


def _cmd_er_oracle(args) -> int:
    from .er import enumerate_graphs_oracle

    law, moments = enumerate_graphs_oracle(args.n, args.p, args.stat)
    payload = {
        "command": "er_oracle",
        "version": __version__,
        "n": args.n,
        "p": args.p,
        "stat": args.stat,
        "offset": law.offset,
        "pmf": list(law.pmf),
        "moments": moments,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rgg(args) -> int:
    from .rgg import rgg_experiment

    table = rgg_experiment(args.b, args.d, args.lambda_grid, args.reps, args.seed)
    table.metadata.update({"command": "rgg", "version": __version__})
    _emit(table, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkllt",
        description="lattice metrics, smoothing bounds and local-limit rate experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("metrics", help="metrics between two stored distributions")
    s.add_argument("--f", required=True, help="JSON file {'offset': int, 'pmf': [...]}")
    s.add_argument("--g", required=True)
    s.add_argument("--m", type=int, default=1, help="block span for the local metric")
    s.add_argument("--n", type=int, default=1, help="order of the smoothing terms")
    _common_output(s)
    s.set_defaults(fn=_cmd_metrics)

    s = subs.add_parser("tp", help="translated-Poisson vs normal comparison gaps")
    s.add_argument("--mu", type=float, default=0.0)
    s.add_argument("--sigma2", type=float, default=None)
    s.add_argument("--sigma2-grid", default=None, help="geometric grid a:b:xk")
    _common_output(s)
    s.set_defaults(fn=_cmd_tp)

    s = subs.add_parser("verify", help="verification suites")
    vsubs = s.add_subparsers(dest="verify_cmd", required=True)
    v = vsubs.add_parser("lk", help="fuzz the known-constant interpolation inequalities")
    v.add_argument("--trials", type=int, default=10000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--case", default="all", choices=("all", "n2_p1q1r1", "n3_pinf_qinf_r1"))
    _common_output(v)
    v.set_defaults(fn=_cmd_verify_lk)

    s = subs.add_parser("bounds", help="pair-chain statistics and smoothness bounds")
    s.add_argument("--model", required=True, choices=("cw", "er-iso", "er-tri"))
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--beta", type=float, default=0.5)
    s.add_argument("--h", type=float, default=0.0)
    s.add_argument("--p", type=float, default=0.5)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--reps", type=int, default=10000)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_bounds)

    s = subs.add_parser("cw", help="mean-field magnetization experiments")
    csubs = s.add_subparsers(dest="cw_cmd", required=True)
    c = csubs.add_parser("rate", help="exact-law rates against the TP target")
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--h", type=float, default=0.0)
    c.add_argument("--n-grid", type=lambda s_: parse_grid(s_, True), required=True)
    _common_output(c)
    c.set_defaults(fn=_cmd_cw_rate)

    s = subs.add_parser("er", help="random graph experiments")
    esubs = s.add_subparsers(dest="er_cmd", required=True)
    for name, help_ in (("iso", "isolated-vertex counts"), ("tri", "triangle counts")):
        e = esubs.add_parser(name, help=help_)
        e.add_argument("--n", type=int, default=None)
        e.add_argument("--n-grid", type=lambda s_: parse_grid(s_, True), default=None)
        e.add_argument("--p", type=float, default=None)
        e.add_argument("--p-mode", choices=("const", "c-over-n", "power"), default="const")
        e.add_argument("--p-coeff", type=float, default=1.0)
        e.add_argument("--p-alpha", type=float, default=1.5)
        e.add_argument("--reps", type=int, required=True)
        e.add_argument("--seed", type=int, default=1)
        _common_output(e)
        e.set_defaults(fn=_cmd_er)
    e = esubs.add_parser("oracle", help="exhaustive small-graph enumeration")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--stat", choices=("isolated", "triangles"), required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_er_oracle)

    s = subs.add_parser("rgg", help="geometric-graph independence number experiment")
    s.add_argument("--b", type=float, default=0.2)
    s.add_argument("--d", type=int, default=1)
    s.add_argument("--lambda-grid", type=lambda s_: parse_grid(s_, False), required=True)
    s.add_argument("--reps", type=int, required=True)
    s.add_argument("--seed", type=int, default=1)
    _common_output(s)
    s.set_defaults(fn=_cmd_rgg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        status = args.fn(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (LklltError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[{args.command}] done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
