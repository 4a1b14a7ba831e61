import ast
import atexit
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lkllt import __version__, cli, curie_weiss, er, report, rgg
from lkllt.errors import NumericalFailure
from lkllt.lattice import dist_from_weights
from lkllt.report import RateTable


def run_cli(args, capsys):
    status = cli.main(args)
    out = capsys.readouterr().out
    return status, out


def write_dists(tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(dist_from_weights(0, [1, 1]).to_json())
    g.write_text(dist_from_weights(0, [1]).to_json())
    return f, g


def test_grid_parse():
    assert cli.parse_grid("64:4096:x2") == [64, 128, 256, 512, 1024, 2048, 4096]
    assert cli.parse_grid("50:200:x2", integer=False) == [50.0, 100.0, 200.0]
    # rounded points that repeat the point before them are dropped
    assert cli.parse_grid("10:12:x1.05") == [10, 11, 12]
    assert cli.parse_grid("2:4:x1.2") == [2, 3]
    with pytest.raises(Exception):
        cli.parse_grid("64:32:x2")
    with pytest.raises(Exception):
        cli.parse_grid("64-128")


def test_grid_points_increase_strictly_within_the_bounds():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # integer endpoints serve both grid kinds, float endpoints float grids
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(a=st.integers(1, 10**6) | st.floats(1e-3, 1e6),
                      ratio=st.floats(1, 1e3), k=st.floats(1.01, 10))
    @hypothesis.example(a=1, ratio=3.0, k=1.5)  # rounds 1.5 and 2.25 both to 2
    def check(a, ratio, k):
        b = a * ratio if isinstance(a, float) else int(a * ratio)
        for integer in (True, False) if isinstance(a, int) else (False,):
            grid = cli.parse_grid(f"{a!r}:{b!r}:x{k!r}", integer)
            assert grid[0] == a
            assert all(x < y for x, y in zip(grid, grid[1:]))
            assert grid[-1] <= b * (1 + 1e-12)

    check()


@pytest.mark.parametrize(
    "command",
    [
        "cw rate --beta 0.5 --n-grid 64:inf:x2",  # was an OverflowError traceback
        "tp --sigma2-grid 1:inf:x2",  # appended inf forever
        "tp --sigma2-grid nan:10:x2",  # printed a header-only table with exit 0
        "rgg --lambda-grid 10:20:xinf --reps 10",
        "er iso --n-grid 10:20:xnan --reps 10",
    ],
)
def test_non_finite_grids_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert exc.value.code == 2
    assert "non-finite" in capsys.readouterr().err


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == __version__


def test_readme_imports_resolve():
    # a stale API example in the README fails here
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    found = re.findall(r"from (lkllt[\w.]*) import ([\w, ]+)", readme)
    assert found
    for module, names in found:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), (module, name)


def test_metrics_subcommand(tmp_path, capsys):
    f, g = write_dists(tmp_path)
    status, out = run_cli(["metrics", "--f", str(f), "--g", str(g), "--m", "2"], capsys)
    assert status == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    values = dict(l.split(",") for l in lines[1:])
    assert float(values["dk"]) == 0.5
    assert float(values["dloc_m2"]) == 0.25


def test_cw_rate_row_count(tmp_path, capsys):
    status, out = run_cli(
        ["cw", "rate", "--beta", "0.5", "--h", "0", "--n-grid", "64:4096:x2"], capsys
    )
    assert status == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 7


def test_er_oracle_pmf_normalized(capsys):
    status, out = run_cli(
        ["er", "oracle", "--n", "5", "--p", "0.5", "--stat", "isolated"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-12)


def test_verify_lk_smoke(capsys):
    status, out = run_cli(["verify", "lk", "--trials", "300", "--seed", "1"], capsys)
    assert status == 0
    assert out.count("holds=True") == 2


@pytest.mark.parametrize(
    "command",
    [
        "bounds --model er-iso --n 6 --p 0.5 --reps 2000 --seed 1",
        "er oracle --n 5 --p 0.5 --stat isolated",
        "tp --mu 0 --sigma2-grid 100:400:x2",
    ],
)
def test_out_file_holds_the_stdout_bytes(command, tmp_path, capsys):
    status, out = run_cli(command.split(), capsys)
    assert status == 0
    path = tmp_path / "out"
    status, rest = run_cli(command.split() + ["--out", str(path)], capsys)
    assert status == 0
    assert rest == ""
    assert path.read_bytes() == out.encode()


# SHA-256 of the ``--out`` CSV of ``verify lk --trials 500 --seed 1``: every trial's lhs,
# rhs_core and ratio, the lattice layer's differences, trims and normalizations to the last bit.
VERIFY_LK_CSV_SHA256 = "839aa5dde59bfa1345d8cd2058ae3fc4a50c3c99a57b2413a064ecbc3cc387f6"


def test_verify_lk_out_writes_the_table_and_keeps_the_summary(tmp_path, capsys):
    command = ["verify", "lk", "--trials", "500", "--seed", "1"]
    status, out = run_cli(command, capsys)
    assert status == 0
    path = tmp_path / "lk.csv"
    status, rest = run_cli(command + ["--out", str(path)], capsys)
    assert status == 0
    assert rest == out
    assert out.count("holds=True") == 2
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_LK_CSV_SHA256
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "trial,combo,lhs,rhs_core,ratio"
    assert {l.split(",")[1] for l in lines[1:]} == {"n2_p1q1r1", "n3_pinf_qinf_r1"}


# The one table of the benchmark commands' stdout hashes; only perfbench/run.py --pin writes it.
BENCHMARK_SHA256 = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "goldens.json").read_text())["sha256"]

# Commands the program has moved past (`bounds`: one weighted pair_stats reduction; `er tri`:
# exact two-step move counts). The next change to the benchmark re-pins them and drops this map.
MOVED_PAST_BENCHMARK = {
    "bounds --model cw --n 100000 --beta 0.5 --reps 1400000 --seed 1":
        "7f4e0c841dd3b09fb1ddc219612cf852be76f275de1911d231b435e6c8627a7b",
    "bounds --model er-iso --n 6 --p 0.5 --reps 22000 --seed 1":
        "75a0058100f3f7b4a9a33e2a6cfeda341892fda46cf0870d3227eb474b0e563c",
    "bounds --model er-tri --n 12 --p 0.25 --reps 2200 --seed 1":
        "1253db575ca0d5edba951ed71b63e48e6ae9092effa457dcb92a2004f345ffe6",
    "er tri --n 64 --p 0.125 --reps 6000 --seed 1":
        "5e48452e715ac55970f98d025a5c993c2e241319e631c9eeb3c4e5dccc9172b4",
}
PINNED_SHA256 = {**BENCHMARK_SHA256, **MOVED_PAST_BENCHMARK}


def test_each_pin_has_one_copy():
    assert all(BENCHMARK_SHA256[c] != h for c, h in MOVED_PAST_BENCHMARK.items())
    # a second copy of a pin in the tests would drift from the table as outputs move
    pins = set(BENCHMARK_SHA256.values())
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        assert not pins & set(re.findall(r"\b[0-9a-f]{64}\b", path.read_text())), path.name


# every thread count must reproduce a seeded command's bytes
@pytest.mark.parametrize("command, threads", [
    (c, t) for c in sorted(PINNED_SHA256) for t in (("1", "2") if "--seed" in c else (None,))
])
def test_output_pins(command, threads, capsys, monkeypatch):
    if threads:
        monkeypatch.setenv("LKLLT_THREADS", threads)
    status, out = run_cli(command.split(), capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[command]


def test_verify_lk_output_and_table_match_goldens(tmp_path, capsys):
    command = ["verify", "lk", "--trials", "500", "--seed", "1"]
    status, out = run_cli(command, capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_SHA256[" ".join(command)]
    path = tmp_path / "lk.csv"
    status, _ = run_cli(command + ["--out", str(path)], capsys)
    assert status == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_LK_CSV_SHA256


# SHA-256 of the stdout of table commands that no benchmark pin covers,
# pinned before ``cli._write`` became the only writer; ``metrics`` reads the
# two laws of ``write_dists``.
TABLE_SHA256 = {
    "metrics --m 2 --n 2":
        "efd718dc30322f452e7d182ac0c7c2ba773a490563e43e4e4e20f1f6ba3157c6",
    "metrics --m 2 --n 2 --format json":
        "d66a6d5563469203aff8c2137fc24a9b3b0b6cba2ee0b0f9b790e2838d7f6377",
    "tp --mu 0 --sigma2-grid 100:400:x2 --format json":
        "587dad870f48b3609808560cc45929332054d8f26f139cc8b094da39951d1d81",
}


@pytest.mark.parametrize("command", sorted(TABLE_SHA256))
def test_table_outputs_match_pins(command, tmp_path, capsys):
    args = command.split()
    if args[0] == "metrics":
        f, g = write_dists(tmp_path)
        args[1:1] = ["--f", str(f), "--g", str(g)]
    status, out = run_cli(args, capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[command]


def test_every_document_goes_through_one_writer():
    """json.dumps, write_text, to_csv, to_json and __version__ appear in
    cli.py only in _write, apart from the import and the --version action;
    sys.stdout.write only in _write and in verify lk's summary line."""
    tree = ast.parse(Path(cli.__file__).read_text())
    uses: dict = {}
    for fn in tree.body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "__version__":
                name = "__version__"
            elif isinstance(node, ast.Attribute):
                name = ast.unparse(node)
                if node.attr in ("write_text", "to_csv", "to_json"):
                    name = node.attr
            else:
                continue
            uses.setdefault(name, []).append(getattr(fn, "name", None))
    assert uses["json.dumps"] == ["_write"]
    assert uses["write_text"] == ["_write"]
    assert sorted(uses["to_csv"]) == sorted(uses["to_json"]) == ["_write"]
    assert sorted(uses["__version__"]) == ["_write", "_write", "build_parser"]
    assert sorted(uses["sys.stdout.write"]) == ["_cmd_verify_lk", "_write"]
    assert not hasattr(cli, "_emit")


def test_rate_rows_are_built_only_in_rate_table():
    """The rate experiments call no TP target or distance function and loop
    over no argument: each hands its grid and per-point function to
    report.rate_table, the one place a rate row's target and distance
    columns are built."""
    built_there = {"tp_dist", "tp_params", "distance", "distances"}

    def calls(node) -> list[str]:  # called names, without any module prefix
        return [
            ast.unparse(n.func).rsplit(".", 1)[-1] for n in ast.walk(node) if isinstance(n, ast.Call)
        ]

    assert built_there <= set(calls(ast.parse(Path(report.__file__).read_text())))
    for module, name in (
        (curie_weiss, "cw_rate_experiment"), (er, "er_rate_experiment"), (rgg, "rgg_experiment"),
    ):
        tree = ast.parse(Path(module.__file__).read_text())
        assert not built_there & set(calls(tree)), module.__name__
        fn = next(n for n in tree.body if getattr(n, "name", None) == name)
        args = {a.arg for a in fn.args.args}
        assert not [n for n in ast.walk(fn) if isinstance(n, ast.For) and ast.unparse(n.iter) in args]
        assert calls(fn).count("rate_table") == 1, name


@pytest.mark.parametrize(
    "command",
    [
        "bounds --model cw --n 30 --beta 0.4 --reps 30000 --seed 6",
        # 17,107 states: long enough that np.dot would hand them to threaded BLAS
        "bounds --model cw --n 100000 --beta 0.5 --reps 200000 --seed 6",
        # per-replicate values: 22,000 terms to each variance, 44,000 to q_m
        "bounds --model er-iso --n 6 --p 0.5 --reps 22000 --seed 1",
        "bounds --model er-tri --n 12 --p 0.25 --reps 22000 --seed 1",
        # float32 np.matmul over 64 x 64 adjacency blocks, large enough for threaded BLAS
        "bounds --model er-tri --n 64 --p 0.125 --reps 300 --seed 1",
    ],
)
def test_openblas_thread_count_does_not_change_bytes(command):
    outs = [
        _fresh(["-m", "lkllt.cli", *command.split()], check=True, OPENBLAS_NUM_THREADS=threads).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]



_BLAS_CALLS = ("dot", "einsum", "inner", "matmul", "tensordot", "vdot")


def _blas_reductions(source: str, filename: str) -> list[tuple[str, int, str]]:
    """(enclosing top-level definition, line, form) of every np.dot, np.inner,
    np.vdot, np.einsum, np.tensordot, np.matmul, ``.dot(`` call and ``@``
    operator in a module's source, in line order."""
    found = []
    for top in ast.parse(source, filename).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                func.attr == "dot"
                or func.attr in _BLAS_CALLS and getattr(func.value, "id", None) == "np"
            ):
                form = func.attr
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                form = "@"
            else:
                continue
            found.append((getattr(top, "name", "<module>"), node.lineno, form))
    return sorted(found)


def test_blas_reductions_are_left_only_in_exact_pair_stats():
    # OpenBLAS sums a long dot product in an order that depends on its thread
    # count, so every other reduction is numpy's own pairwise sum; np.matmul
    # is left only to _tri_q_block, which multiplies 0/1 float32 matrices
    # exactly
    assert _blas_reductions(
        "import numpy as np\n"
        "def f(a):\n"
        "    b = np.dot(a, a) + a.dot(a) + np.inner(a, a) + np.vdot(a, a)\n"
        "    b = b + np.einsum('ij,jk', a, a)\n"
        "    b = b + np.tensordot(a, a)\n"
        "    b = b + np.matmul(a, a)\n"
        "    b = b + a @ a\n"
        "    b @= a\n"
        "    return np.add.reduce(b)\n",
        "<probe>",
    ) == [
        ("f", 3, "dot"), ("f", 3, "dot"), ("f", 3, "inner"), ("f", 3, "vdot"),
        ("f", 4, "einsum"), ("f", 5, "tensordot"), ("f", 6, "matmul"),
        ("f", 7, "@"), ("f", 8, "@"),
    ]
    allowed = {
        ("lkllt/smoothing.py", "exact_pair_stats", "dot"),
        ("lkllt/er.py", "_tri_q_block", "matmul"),
    }
    src = Path(cli.__file__).resolve().parents[1]
    outside = [
        (str(path.relative_to(src)), *call)
        for path in sorted(src.rglob("*.py"))
        for call in _blas_reductions(path.read_text(), str(path))
        if (str(path.relative_to(src)), call[0], call[2]) not in allowed
    ]
    assert outside == []

def test_deep_independent_set_search_exits_cleanly(capsys):
    # 1500 points at b = 0.05 make a take branch deeper than the recursion limit
    args = "rgg --d 2 --lambda-grid 1500:1500:x2 --reps 2 --b 0.05 --seed 1".split()
    status = cli.main(args)
    assert status in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_byte_determinism(tmp_path):
    cases = [
        ["cw", "rate", "--beta", "0.5", "--h", "0.2", "--n-grid", "64:256:x2"],
        ["er", "iso", "--n", "60", "--p", "0.02", "--reps", "2000", "--seed", "3"],
        ["er", "tri", "--n", "16", "--p", "0.25", "--reps", "1000", "--seed", "4"],
        ["tp", "--mu", "0", "--sigma2-grid", "100:400:x2"],
        ["rgg", "--lambda-grid", "40:80:x2", "--reps", "1500", "--seed", "5"],
        ["bounds", "--model", "cw", "--n", "30", "--beta", "0.4", "--reps", "3000",
         "--seed", "6"],
        ["verify", "lk", "--trials", "200", "--seed", "7"],
    ]
    for i, args in enumerate(cases):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


TRIANGLE_BOUNDS_N20 = "bounds --model er-tri --n 20 --p 0.3 --reps 4097 --seed 2"


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    commands = [
        "er iso --n 60 --p 0.02 --reps 9000 --seed 3",
        # replicate counts that cut a 4096-replicate block mid-way
        "er tri --n 16 --p 0.25 --reps 9001 --seed 3",
        "bounds --model er-tri --n 12 --p 0.25 --reps 2200 --seed 1",
        TRIANGLE_BOUNDS_N20,
        "bounds --model er-iso --n 20 --p 0.05 --reps 4097 --seed 2",
        "bounds --model cw --n 100 --beta 0.5 --reps 9001 --seed 4",
    ]
    for command in commands:
        outs = []
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("LKLLT_THREADS", threads)
            out = tmp_path / f"threads{threads}.txt"
            assert cli.main(command.split() + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[1:] == outs[:1] * 3, command


def test_triangle_bounds_fill_the_two_step_fields_beyond_n16(capsys):
    # above n = 16, where the two-step fields are numbers too; the one-step
    # fields are also pinned by value, so the two-step path cannot move them
    status, out = run_cli(TRIANGLE_BOUNDS_N20.split(), capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ff85f927434d48ab421ae8d7b37101689a230d36788bc1cd69fa2f3d54759ecb"
    )
    payload = json.loads(out)
    stats = payload["stats"]
    assert stats["q_m"] == 0.06830993152884651
    assert stats["var_q_plus"] == 0.0002773232794978333
    assert stats["var_q_minus"] == 0.00025574783597425896
    assert stats["se_q_m"] == 0.00018035451660086292
    assert stats["se_var_q_plus"] == 5.718199545076157e-06
    assert stats["se_var_q_minus"] == 5.543538006178374e-06
    assert payload["d1_pair_bound"] == 0.4778974790113493
    assert stats["ediff_plus"] == 0.00022302157446466136
    assert stats["ediff_minus"] == 0.00021588906685994762
    assert stats["se_ediff_plus"] == 1.6193986675849678e-06
    assert stats["se_ediff_minus"] == 1.9830709898286593e-06
    assert payload["d2_pair_bound"] == 0.32254035295670186


def _er_p_column(command: str, capsys) -> list[float]:
    status, out = run_cli(command.split() + ["--format", "json"], capsys)
    assert status == 0
    return json.loads(out)["columns"]["p"]


def test_er_p_modes_scale_p_with_n(capsys):
    assert _er_p_column(
        "er iso --n-grid 10:20:x2 --p-mode c-over-n --p-coeff 2 --reps 50 --seed 1", capsys
    ) == [0.2, 0.1]
    assert _er_p_column(
        "er tri --n-grid 8:16:x2 --p-mode power --p-coeff 1 --p-alpha 0.5 --reps 50 --seed 1",
        capsys,
    ) == [8 ** -0.5, 0.25]


def test_er_const_p_mode_without_p_exits_2(capsys):
    status = cli.main("er tri --n-grid 8:16:x2 --reps 50 --seed 1".split())
    assert status == 2
    assert "provide --p for p-mode const" in capsys.readouterr().err


@pytest.mark.parametrize("path", [
    "", "metrics", "tp", "verify", "verify lk", "bounds", "cw", "cw rate",
    "er", "er iso", "er tri", "er oracle", "rgg",
])
def test_lazy_parser_help_matches_the_full_parser(path, capsys):
    argv = path.split()
    help_ = []
    for parser in (cli.build_parser(), cli.build_parser([*argv, "--help"])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "--help"])
        assert exc.value.code == 0
        help_.append(capsys.readouterr().out)
    assert help_[0] == help_[1] and help_[0].startswith("usage: lkllt")


def test_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(
        ["tp", "--mu", "1.5", "--sigma2", "50", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"]["sigma2"] == [50.0]


def test_validation_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2
    # domain validation surfaces as exit 2
    assert cli.main(["cw", "rate", "--beta", "1.5", "--n-grid", "64:128:x2"]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["metrics", "--f", str(missing), "--g", str(missing)]) == 2
    capsys.readouterr()
    # out-of-range parameters are named in the message, not left to numpy
    for command, name in (
        ("rgg --d 0 --lambda-grid 10:10:x2 --reps 10", "d"),
        ("rgg --d -1 --lambda-grid 10:10:x2 --reps 10", "d"),
        ("er oracle --n 4 --p 1.5 --stat isolated", "p"),
        ("er oracle --n 4 --p nan --stat isolated", "p"),
        ("er iso --n 10 --p nan --reps 10", "p"),
        ("er tri --n 10 --p -0.5 --reps 10", "p"),
        ("bounds --model cw --n 10 --beta nan --reps 10", "beta"),
        ("bounds --model cw --n 10 --beta inf --reps 10", "beta"),
        ("bounds --model cw --n 10 --h nan --reps 10", "h"),
        ("cw rate --beta 0.5 --h nan --n-grid 64:128:x2", "h"),
        # past these the log weights overflow float64
        ("cw rate --beta 0.5 --h 1e308 --n-grid 4:8:x2", "h"),
        ("bounds --model cw --n 10 --beta 1e308 --reps 10", "beta"),
        ("tp --sigma2 inf", "sigma2"),
        ("tp --mu 0 --sigma2 nan", "sigma2"),
        ("tp --mu 1e300 --sigma2 1", "mu"),
        ("tp --mu nan --sigma2 1", "mu"),
        ("tp --mu=-inf --sigma2 1", "mu"),
        # the TP window would hold 2.4e11 points: refused before it is sized
        ("tp --sigma2 1e20", "sigma2"),
        ("bounds --model er-iso --n 6 --m 0 --reps 100", "m"),
        ("bounds --model cw --n 10 --m 0 --reps 100", "m"),
        # n is checked by the closed forms before any replicate is drawn
        ("er tri --n 0 --p 0.5 --reps 10", "n"),
        ("er iso --n 0 --p 0.5 --reps 10", "n"),
        ("er iso --n 1 --p 0.5 --reps 10", "n"),
        ("er tri --n 2 --p 0.5 --reps 10", "n"),
    ):
        assert cli.main(command.split()) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must"), (command, err)
        assert "Traceback" not in err
    # a pair of flags where one would be dropped exits 2 and names both
    for command, flags in (
        ("er iso --n 100 --p 0.3 --p-mode c-over-n --reps 10", ("--p ", "--p-mode")),
        ("er tri --n 100 --p 0.3 --p-mode power --reps 10", ("--p ", "--p-mode")),
        ("er iso --n 100 --p 0.3 --p-coeff 2 --reps 10", ("--p-coeff", "not const")),
        ("er tri --n 100 --p 0.3 --p-alpha 2 --reps 10", ("--p-alpha", "not const")),
        ("er iso --n 100 --p-mode c-over-n --p-alpha 2 --reps 10", ("--p-alpha", "not c-over-n")),
    ):
        assert cli.main(command.split()) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(f in err for f in flags), (command, err)
    # from |h| = 20 on, tanh rounds the fixed point m0 to +-1: either sign
    # exits 2 with one message, not 3 with a residual or with sigma2 named
    errors = set()
    for h in ("-30", "-20", "20", "30"):
        assert cli.main(["cw", "rate", "--beta", "0.5", "--h", h, "--n-grid", "4:4:x2"]) == 2, h
        errors.add(capsys.readouterr().err)
    assert errors == {
        "error: h must leave the fixed point m0 inside (-1, 1): at this h it is "
        "+-1 in float64, so the target has no spread\n"
    }


@pytest.mark.parametrize("command, message", [
    # argparse names both flags of an exclusive pair
    ("tp --mu 0", "lkllt tp: error: one of the arguments --sigma2 --sigma2-grid is required"),
    ("er iso --p 0.1 --reps 10",
     "lkllt er iso: error: one of the arguments --n --n-grid is required"),
    ("tp --sigma2 5 --sigma2-grid 100:1000:x10",
     "lkllt tp: error: argument --sigma2-grid: not allowed with argument --sigma2"),
    ("er iso --n 50 --n-grid 100:200:x2 --p 0.1 --reps 10",
     "lkllt er iso: error: argument --n-grid: not allowed with argument --n"),
    ("er tri --n 50 --n-grid 100:200:x2 --p-mode power --reps 10",
     "lkllt er tri: error: argument --n-grid: not allowed with argument --n"),
    ("bounds --model cw --n 0 --reps 10", "n must be a positive integer"),
    ("bounds --model cw --n 10 --m 1 --reps 10", "the magnetization chain jumps by +-2 only"),
    ("er tri --n 10 --p 1 --reps 10", "p must lie in (0, 1)"),
    ("bounds --model er-iso --n 6 --p 1.5 --reps 10", "p must lie in [0, 1]"),
    ("er iso --n 5 --p 0.5 --reps 1", "replicates must be >= 2"),
    ("bounds --model er-tri --n 12 --beta 0.9 --reps 10",
     "--beta is read only under --model cw, not er-tri"),
    ("bounds --model er-iso --n 6 --h 0.1 --reps 10",
     "--h is read only under --model cw, not er-iso"),
    ("bounds --model cw --n 10 --p 0.9 --reps 10",
     "--p is read only under --model er-iso or er-tri, not cw"),
    ("verify lk --trials 5 --format csv",
     "--format is read only with --out, where verify lk writes its table"),
])
def test_validation_messages(command, message, capsys):
    try:
        assert cli.main(command.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    except SystemExit as exc:  # argparse's own error, after its usage lines
        assert exc.code == 2 and message.startswith("lkllt ")
        assert capsys.readouterr().err.endswith(f"\n{message}\n")


def _run_capped(command: str, cap: int) -> subprocess.CompletedProcess:
    """Run the CLI in a child process with a 10 s time bound and an
    address-space bound of ``cap`` bytes."""
    resource = pytest.importorskip("resource")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from lkllt.cli import main; sys.exit(main(sys.argv[1:]))",
         *command.split()],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize("command", [
    "tp --sigma2-grid 1:2:x1.0000000000000002",
    "cw rate --beta 0.5 --n-grid 64:128:x1.0000000000000002",
    "rgg --lambda-grid 1e-300:1e300:x1.001 --reps 10",
])
def test_grid_with_too_many_points_exits_2(command):
    # a factor just above 1 once looped about 3e15 times, growing its list:
    # a child process with a time and an address-space bound keeps that out
    run = _run_capped(command, 1 << 29)
    assert run.returncode == 2, run.stderr
    assert f"has more than {cli._MAX_GRID_POINTS} points" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", [
    "bounds --model er-iso --n 100000 --reps 2",
    "er tri --n 100000 --p 1e-9 --reps 2",
    "rgg --d 2 --lambda-grid 100000:100000:x2 --reps 2",
    "rgg --d 1 --lambda-grid 1e9:1e9:x2 --reps 2",
])
def test_out_of_memory_exits_2(command):
    # each asks numpy for gigabytes at once: under the cap that allocation
    # raises MemoryError, without it the host itself may run out of memory
    run = _run_capped(command, 1 << 31)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: "), run.stderr
    assert "Traceback" not in run.stderr


def test_grid_without_a_factor_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main("tp --sigma2-grid 1:2:3".split())
    assert exc.value.code == 2
    assert "grid '1:2:3' must look like a:b:xk" in capsys.readouterr().err


@pytest.mark.parametrize("pmf, message", [
    ([], "pmf must be a nonempty 1-d array"),
    ([0.5, -0.5, 1.0], "pmf entries must be finite and nonnegative"),
    ([0.0, 0.0], "pmf has no positive mass"),
    # a whole document, whose offset is not a JSON integer
    ({"offset": 1.5, "pmf": [1.0]}, "offset must be an integer, not 1.5"),
    ({"offset": True, "pmf": [1.0]}, "offset must be an integer, not True"),
    ({"offset": "1", "pmf": [1.0]}, "offset must be an integer, not '1'"),
    # valid JSON of the wrong shape: a TypeError or KeyError traceback before
    ("[0, [1.0]]", "a distribution must be a JSON object with 'offset' and 'pmf'"),
    ({"pmf": [1.0]}, "a distribution must be a JSON object with 'offset' and 'pmf'"),
    ({"offset": 0}, "a distribution must be a JSON object with 'offset' and 'pmf'"),
    ({"offset": 0, "pmf": {"0": 1.0}}, "pmf must be a list of numbers"),
])
def test_metrics_rejects_a_bad_pmf_file(pmf, message, tmp_path, capsys):
    _, g = write_dists(tmp_path)
    bad = tmp_path / "bad.json"
    if isinstance(pmf, list):
        pmf = {"offset": 0, "pmf": pmf}
    bad.write_text(pmf if isinstance(pmf, str) else json.dumps(pmf))
    assert cli.main(["metrics", "--f", str(bad), "--g", str(g)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    "rgg --b 50 --d 2 --lambda-grid 10:10:x2 --reps 5 --seed 1",
    "rgg --b 50 --d 1 --lambda-grid 10:10:x2 --reps 5 --seed 1",
    "rgg --d 2 --lambda-grid 0.001:0.001:x2 --reps 5",
])
def test_rgg_law_without_spread_names_the_cause(command, capsys):
    # the radius covers the cube, or the cube holds no point: no TP target
    assert cli.main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every replicate at lambda=")
    assert "same independence number" in err and "sigma2" not in err


def test_rate_table_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        RateTable(["quantity", "value"]).add("dk")


def test_underflowing_squared_jump_rates(capsys):
    # the isolated-vertex bounds need every rate squared: exit 2, as for a
    # vanishing rate
    assert cli.main("er iso --n 200 --p 0.9 --reps 4 --seed 1".split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: jump rate") and "Traceback" not in err
    # the triangle q1 is positive but q1 ** 2 is 0.0: d2 is undefined, d1 is not
    assert cli.main("er tri --n 400 --p 0.9 --reps 4 --seed 1 --format json".split()) == 0
    cols = json.loads(capsys.readouterr().out)["columns"]
    assert math.isfinite(cols["d1_bound"][0])
    assert math.isnan(cols["d2_bound"][0])


@pytest.mark.parametrize("args", [
    "er iso --n 10 --p 1e-20 --reps 3 --seed 1",  # the int64 gap sums wrapped: IndexError
    "er iso --n 10 --p 1e-300 --reps 2 --seed 1",  # gaps of INT64_MAX never passed the last slot
])
def test_tiny_p_isolated_counts_end_cleanly(args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lkllt.cli import main; sys.exit(main(sys.argv[1:]))",
         *args.split()],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr
    if run.returncode == 2:
        assert run.stderr.startswith("error: jump rate for +-1 moves vanishes")


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(args):
        raise NumericalFailure("did not converge")

    parser = cli.build_parser()
    real_parse = parser.parse_args

    def parse(argv=None):
        args = real_parse(argv)
        args.fn = boom
        return args

    monkeypatch.setattr(cli, "build_parser", lambda argv=None: parser)
    monkeypatch.setattr(parser, "parse_args", parse)
    assert cli.main(["tp", "--mu", "0", "--sigma2", "4"]) == 3
    capsys.readouterr()


def test_replicate_prefix_stability():
    from lkllt.er import ERPairModel
    from lkllt.rngutil import map_blocks

    model = ERPairModel(6, 0.5, "isolated")
    short = np.concatenate(
        [p[0] for p in map_blocks(lambda s, c, r: model.q_block(r, c, 1), 7, 5000)]
    )
    long = np.concatenate(
        [p[0] for p in map_blocks(lambda s, c, r: model.q_block(r, c, 1), 7, 9000)]
    )
    assert np.array_equal(short, long[:5000])


def _fresh(args, check=False, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports lkllt from this
    checkout, with ``env`` added to the environment."""
    env = dict(os.environ, **env)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=check, timeout=120
    )


_ON_USE = ("concurrent.futures", "statistics", "fractions", "json", "numpy")


def _modules_after(commands, threads):
    """Which of ``_ON_USE`` and of the lkllt submodules a fresh process has
    loaded after importing ``lkllt.cli`` and running ``commands`` through
    ``cli.main`` at ``LKLLT_THREADS=threads``."""
    script = (
        "import sys, io, contextlib; from lkllt.cli import main\n"
        f"for c in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            status = main(c.split())\n"
        "        except SystemExit as exc:  # argparse ends --version this way\n"
        "            status = exc.code\n"
        "    assert status == 0, c\n"
        f"print(' '.join(m for m in sys.modules if m in {_ON_USE!r} or m.startswith('lkllt.')))\n"
    )
    return set(_fresh(["-c", script], check=True, LKLLT_THREADS=threads).stdout.decode().split())


def test_samplers_import_no_module_they_do_not_use():
    commands = [
        "er iso --n 30 --p 0.05 --reps 200 --seed 1",
        "er tri --n 12 --p 0.25 --reps 200 --seed 1",
        "rgg --b 0.2 --d 1 --lambda-grid 20:20:x2 --reps 100 --seed 1",
        "bounds --model er-tri --n 8 --p 0.25 --reps 200 --seed 1",
    ]
    unused = {"concurrent.futures", "statistics", "fractions"}
    assert unused.isdisjoint(_modules_after(commands, "1"))
    # the pool runs on plain threads: two blocks and a cut block at two threads
    commands = ["er iso --n 30 --p 0.05 --reps 5000 --seed 1", commands[3]]
    assert unused.isdisjoint(_modules_after(commands, "2"))


@pytest.mark.parametrize(
    "command,module,used",
    [
        pytest.param("tp --mu 0 --sigma2 50", "statistics", True,
                     id="tp --mu 0 --sigma2 50-statistics"),
        # the oracle sums its moments as integers, without Fraction
        pytest.param("er oracle --n 4 --p 0.5 --stat isolated", "fractions", False,
                     id="er oracle --n 4 --p 0.5 --stat isolated-fractions"),
    ],
)
def test_modules_are_imported_where_they_are_used(command, module, used):
    assert (module in _modules_after([command], "1")) == used


@pytest.mark.parametrize(
    "command,loaded",
    [
        ("--version", {"lkllt.cli", "lkllt.errors"}),
        (
            "tp --mu 0 --sigma2 50",
            # statistics imports fractions
            {"lkllt.cli", "lkllt.errors", "lkllt.lattice", "lkllt.report", "lkllt.tp",
             "numpy", "statistics", "fractions"},
        ),
        # no rate-experiment module: tp, report, metrics, lattice; json for the document
        (
            "bounds --model er-iso --n 6 --p 0.5 --reps 2200 --seed 1",
            {"lkllt.cli", "lkllt.errors", "lkllt.er", "lkllt.rngutil", "lkllt.smoothing", "numpy",
             "json"},
        ),
        # the exact law is a LatticeDist; the rate experiment's modules stay out
        (
            "bounds --model cw --n 1000 --beta 0.5 --reps 2200 --seed 1",
            {"lkllt.cli", "lkllt.errors", "lkllt.curie_weiss", "lkllt.lattice", "lkllt.rngutil",
             "lkllt.smoothing", "numpy", "json"},
        ),
    ],
)
def test_commands_load_only_the_modules_they_run(command, loaded):
    assert _modules_after([command], "1") == loaded


# A success, a domain error (exit 2) and an argparse rejection (SystemExit(2)).
_EXITS = [
    ("er oracle --n 4 --p 0.5 --stat isolated", 0),
    ("bounds --model cw --n 10 --p 0.5", 2),
    ("tp --mu 0", 2),
]


@pytest.mark.parametrize("command,status", _EXITS)
def test_main_leaves_the_collector_as_it_found_it(command, status, capsys):
    """The exit hook acts only at interpreter exit: during and after main the
    collector runs and nothing is frozen; main registers the hook once."""
    before = gc.isenabled(), gc.get_freeze_count()
    callbacks = atexit._ncallbacks()
    for _ in range(2):
        try:
            assert cli.main(command.split()) == status
        except SystemExit as exc:
            assert exc.code == status
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert atexit._ncallbacks() <= callbacks + 1
    capsys.readouterr()


@pytest.mark.parametrize("command,status", [("--version", 0), *_EXITS])
def test_objects_are_frozen_at_exit(command, status):
    """An exit handler registered before main runs after main's own, and by
    then every object sits in the permanent generation."""
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count(), file=sys.stderr))\n"
        "from lkllt.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run = _fresh(["-c", probe, *command.split()])
    assert run.returncode == status
    *_, name, count = run.stderr.decode().split()
    assert name == "exit" and int(count) > 0


def test_fresh_processes_write_the_pinned_bytes(tmp_path):
    """Each output is written before the exit hook runs: in a process of
    its own, a JSON and a CSV command print their pinned bytes, and the CSV
    command's --out file holds its stdout."""
    csv = "tp --mu 0 --sigma2-grid 100:100000000:x10"
    for command in ("er oracle --n 7 --p 0.5 --stat isolated", csv):
        out = _fresh(["-m", "lkllt.cli", *command.split()], check=True).stdout
        assert hashlib.sha256(out).hexdigest() == BENCHMARK_SHA256[command]
    path = tmp_path / "tp.csv"
    assert _fresh(["-m", "lkllt.cli", *csv.split(), "--out", str(path)], check=True).stdout == b""
    assert path.read_bytes() == out
