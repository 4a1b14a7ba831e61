"""Command-line front end: experiments, verification suites, report emission.

Every subcommand is deterministic: identical flags (including the seed)
produce byte-identical output.  The master seed fans out to fixed-size
replicate blocks keyed (seed, block index), so results do not depend on
thread count (LKLLT_THREADS) and growing the replicate count preserves the
draws of earlier replicates.  Wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import LklltError, NumericalFailure

_MAX_GRID_POINTS = 10_000  # longest grid parse_grid builds
_freeze_at_exit = False  # main has registered gc.freeze with atexit


def __getattr__(name: str):
    """``cli.json``, imported on first use (PEP 562): ``--version`` and the
    CSV commands never load it.  Once loaded it is a module global, which a
    tracer may wrap."""
    if name != "json":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global json
    import json

    return json


def parse_grid(spec: str, integer: bool = True) -> list:
    """Geometric grid 'a:b:xk': from a to b inclusive, multiplying by k.
    An integer grid rounds each point and drops a repeated one."""
    try:
        a_s, b_s, k_s = spec.split(":")
        if not k_s.startswith("x"):
            raise ValueError
        a, b, k = float(a_s), float(b_s), float(k_s[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} must look like a:b:xk (geometric, factor k)"
        )
    if not all(map(math.isfinite, (a, b, k))):
        raise argparse.ArgumentTypeError(f"grid {spec!r} has a non-finite entry")
    if a <= 0 or b < a or k <= 1:
        raise argparse.ArgumentTypeError(f"grid {spec!r} is empty or non-increasing")
    if math.floor((math.log(b) - math.log(a)) / math.log(k)) + 1 > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has more than {_MAX_GRID_POINTS} points"
        )
    out = []
    x = a
    while x <= b * (1 + 1e-12):
        point = int(round(x)) if integer else x
        if not out or point != out[-1]:
            out.append(point)
        x *= k
    return out


def _write(doc, args) -> None:
    """Stamp ``doc`` with the package version and write it to ``--out``, or
    to stdout when there is none.  A dict is written as JSON, a RateTable as
    CSV or, under ``--format json``, as JSON."""
    if isinstance(doc, dict):
        doc["version"] = __version__
        json = sys.modules[__name__].json  # imported here once, by __getattr__
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        doc.metadata["version"] = __version__
        text = doc.to_json() if args.format == "json" else doc.to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _common_output(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def _cmd_metrics(args) -> int:
    from .lattice import LatticeDist
    from .metrics import distance, distances, smoothing_term
    from .report import RateTable

    F = LatticeDist.from_json(Path(args.f).read_text())
    G = LatticeDist.from_json(Path(args.g).read_text())
    table = RateTable(
        ["quantity", "value"],
        metadata={"command": "metrics", "m": args.m, "n": args.n},
    )
    gaps = distances(F, G)
    for name in ("dk", "dw", "dtv", "dloc"):
        table.add(name, gaps[name])
    if args.m > 1:
        table.add(f"dloc_m{args.m}", distance(F, G, args.m))
    table.add(f"smooth_n{args.n}_m{args.m}_f", smoothing_term(F, args.n, args.m))
    table.add(f"smooth_n{args.n}_m{args.m}_g", smoothing_term(G, args.n, args.m))
    _write(table, args)
    return 0


def _cmd_tp(args) -> int:
    from .report import RateTable
    from .tp import tp_normal_gaps

    table = RateTable(
        ["mu", "sigma2", "local_gap", "dk", "dw"],
        metadata={"command": "tp", "mu": args.mu},
    )
    for s2 in args.sigma2_grid or [args.sigma2]:
        gaps = tp_normal_gaps(args.mu, s2)
        table.add(args.mu, float(s2), *gaps)
    _write(table, args)
    return 0


def _cmd_verify_lk(args) -> int:
    from .lk import KNOWN_CASES, SQRT2, lk_fuzz
    from .report import RateTable, fmt

    if args.format and not args.out:
        raise LklltError("--format is read only with --out, where verify lk writes its table")
    cases = tuple(sorted(KNOWN_CASES)) if args.case == "all" else (args.case,)
    worsts, rows = lk_fuzz(args.trials, args.seed, cases)
    table = RateTable(
        ["trial", "combo", "lhs", "rhs_core", "ratio"],
        rows,
        metadata={"command": "verify_lk", "trials": args.trials, "seed": args.seed},
    )
    ok = True
    for case, worst in worsts.items():
        holds = worst <= SQRT2 + 1e-12
        ok = ok and holds
        sys.stdout.write(f"{case}: worst_ratio={fmt(worst)} C=sqrt(2) holds={holds}\n")
    if args.out:
        _write(table, args)
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    from .smoothing import pair_bound_d1, pair_bound_d2, pair_stats

    for flag, models in (("beta", "cw"), ("h", "cw"), ("p", "er-iso or er-tri")):
        if getattr(args, flag) is not None and args.model not in models.split(" or "):
            raise LklltError(f"--{flag} is read only under --model {models}, not {args.model}")
    if args.model == "cw":
        from .curie_weiss import CWPairModel, CWParams

        beta = 0.5 if args.beta is None else args.beta
        model = CWPairModel(CWParams(args.n, beta, 0.0 if args.h is None else args.h))
        m = 2 if args.m is None else args.m
    else:
        from .er import ERPairModel

        statistic = "isolated" if args.model == "er-iso" else "triangles"
        model = ERPairModel(args.n, 0.5 if args.p is None else args.p, statistic)
        m = 1 if args.m is None else args.m
    stats = pair_stats(model, m, args.reps, args.seed)
    _write({
        "model": args.model,
        "m": m,
        "replicates": args.reps,
        "seed": args.seed,
        "stats": {k: v for k, v in vars(stats).items() if k not in ("m", "replicates")},
        "d1_pair_bound": pair_bound_d1(stats),
        "d2_pair_bound": pair_bound_d2(stats),
    }, args)
    return 0


def _cmd_cw_rate(args) -> int:
    from .curie_weiss import cw_rate_experiment

    table = cw_rate_experiment(args.beta, args.h, args.n_grid)
    table.metadata["command"] = "cw_rate"
    _write(table, args)
    return 0


def _er_rows(args) -> list[tuple[int, float]]:
    if args.p is not None and args.p_mode != "const":
        raise LklltError(f"--p is read only under --p-mode const, not {args.p_mode}")
    if args.p_coeff is not None and args.p_mode == "const":
        raise LklltError("--p-coeff is read only under --p-mode c-over-n or power, not const")
    if args.p_alpha is not None and args.p_mode != "power":
        raise LklltError(f"--p-alpha is read only under --p-mode power, not {args.p_mode}")
    coeff = 1.0 if args.p_coeff is None else args.p_coeff
    alpha = 1.5 if args.p_alpha is None else args.p_alpha
    rows = []
    for n in args.n_grid or [args.n]:
        if args.p_mode == "const":
            p = args.p
        elif args.p_mode == "c-over-n":
            p = coeff / n
        else:  # power
            p = coeff * n ** (-alpha)
        if p is None:
            raise LklltError("provide --p for p-mode const")
        rows.append((int(n), float(p)))
    return rows


def _cmd_er(args) -> int:
    from .er import er_rate_experiment

    statistic = "isolated" if args.er_cmd == "iso" else "triangles"
    table = er_rate_experiment(statistic, _er_rows(args), args.reps, args.seed)
    table.metadata["command"] = f"er_{args.er_cmd}"
    _write(table, args)
    return 0


def _cmd_er_oracle(args) -> int:
    from .er import enumerate_graphs_oracle

    law, moments = enumerate_graphs_oracle(args.n, args.p, args.stat)
    _write({
        "command": "er_oracle",
        "n": args.n,
        "p": args.p,
        "stat": args.stat,
        "offset": law.offset,
        "pmf": list(law.pmf),
        "moments": moments,
    }, args)
    return 0


def _cmd_rgg(args) -> int:
    from .rgg import rgg_experiment

    table = rgg_experiment(args.b, args.d, args.lambda_grid, args.reps, args.seed)
    table.metadata["command"] = "rgg"
    _write(table, args)
    return 0


def build_parser(argv=None) -> argparse.ArgumentParser:
    """Every subcommand with its help; arguments only for the one argv names, or all for None."""
    first = next((a for a in argv if not a.startswith("-")), None) if argv else None
    want = lambda name: argv is None or name == first
    parser = argparse.ArgumentParser(
        prog="lkllt",
        description="lattice metrics, smoothing bounds and local-limit rate experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("metrics", help="metrics between two stored distributions")
    if want("metrics"):
        s.add_argument("--f", required=True, help="JSON file {'offset': int, 'pmf': [...]}")
        s.add_argument("--g", required=True)
        s.add_argument("--m", type=int, default=1, help="block span for the local metric")
        s.add_argument("--n", type=int, default=1, help="order of the smoothing terms")
        _common_output(s)
        s.set_defaults(fn=_cmd_metrics)

    s = subs.add_parser("tp", help="translated-Poisson vs normal comparison gaps")
    if want("tp"):
        s.add_argument("--mu", type=float, default=0.0)
        sigma2 = s.add_mutually_exclusive_group(required=True)
        sigma2.add_argument("--sigma2", type=float, default=None)
        sigma2.add_argument(
            "--sigma2-grid", type=lambda s_: parse_grid(s_, False), default=None,
            help="geometric grid a:b:xk",
        )
        _common_output(s)
        s.set_defaults(fn=_cmd_tp)

    s = subs.add_parser("verify", help="verification suites")
    if want("verify"):
        vsubs = s.add_subparsers(dest="verify_cmd", required=True)
        v = vsubs.add_parser("lk", help="fuzz the known-constant interpolation inequalities")
        v.add_argument("--trials", type=int, default=10000)
        v.add_argument("--seed", type=int, default=1)
        v.add_argument("--case", default="all", choices=("all", "n2_p1q1r1", "n3_pinf_qinf_r1"))
        _common_output(v)
        v.set_defaults(fn=_cmd_verify_lk)

    s = subs.add_parser("bounds", help="pair-chain statistics and smoothness bounds")
    if want("bounds"):
        s.add_argument("--model", required=True, choices=("cw", "er-iso", "er-tri"))
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--beta", type=float, default=None)
        s.add_argument("--h", type=float, default=None)
        s.add_argument("--p", type=float, default=None)
        s.add_argument("--m", type=int, default=None)
        s.add_argument("--reps", type=int, default=10000)
        s.add_argument("--seed", type=int, default=1)
        s.add_argument("--out", default=None)
        s.set_defaults(fn=_cmd_bounds)

    s = subs.add_parser("cw", help="mean-field magnetization experiments")
    if want("cw"):
        csubs = s.add_subparsers(dest="cw_cmd", required=True)
        c = csubs.add_parser("rate", help="exact-law rates against the TP target")
        c.add_argument("--beta", type=float, required=True)
        c.add_argument("--h", type=float, default=0.0)
        c.add_argument("--n-grid", type=lambda s_: parse_grid(s_, True), required=True)
        _common_output(c)
        c.set_defaults(fn=_cmd_cw_rate)

    s = subs.add_parser("er", help="random graph experiments")
    if want("er"):
        esubs = s.add_subparsers(dest="er_cmd", required=True)
        for name, help_ in (("iso", "isolated-vertex counts"), ("tri", "triangle counts")):
            e = esubs.add_parser(name, help=help_)
            ns = e.add_mutually_exclusive_group(required=True)
            ns.add_argument("--n", type=int, default=None)
            ns.add_argument("--n-grid", type=lambda s_: parse_grid(s_, True), default=None)
            e.add_argument("--p", type=float, default=None)
            e.add_argument("--p-mode", choices=("const", "c-over-n", "power"), default="const")
            e.add_argument("--p-coeff", type=float, default=None)
            e.add_argument("--p-alpha", type=float, default=None)
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
    if want("rgg"):
        s.add_argument("--b", type=float, default=0.2)
        s.add_argument("--d", type=int, default=1)
        s.add_argument("--lambda-grid", type=lambda s_: parse_grid(s_, False), required=True)
        s.add_argument("--reps", type=int, required=True)
        s.add_argument("--seed", type=int, default=1)
        _common_output(s)
        s.set_defaults(fn=_cmd_rgg)

    return parser


def main(argv=None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # at exit every live object moves to the permanent generation, so the
        # interpreter's last collections skip numpy's and lkllt's objects
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    t0 = time.perf_counter()
    try:
        status = args.fn(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (LklltError, MemoryError, OSError, ValueError) as exc:
        # a MemoryError raised by the interpreter itself carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print(f"[{args.command}] done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
