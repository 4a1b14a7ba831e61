"""The benchmark under perfbench/ imports lkllt names inside its functions,
and its own tests are not collected here, so deleting a library name that it
uses would break the benchmark while this suite stayed green.  Its per-layer
work counts name lkllt functions by span and read their arguments by
position and name; a renamed function or argument would silently read 0."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lkllt_imports() -> list[tuple[str, str, str]]:
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "lkllt"
            ):
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


IMPORTS = _lkllt_imports()


def test_benchmark_imports_are_found():
    assert ("checks.py", "lkllt.er", "iso_moments") in IMPORTS


@pytest.mark.parametrize("where,module,name", IMPORTS)
def test_benchmark_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, or ModuleNotFoundError


def _work_counters() -> list[tuple[str, list[tuple[int, str]]]]:
    """(span, [(position, name) of every argument it reads]) for each key of
    ``layers.WORK``, read from the source without importing it."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    work = next(
        n.value for n in tree.body if isinstance(n, ast.AnnAssign) and n.target.id == "WORK"
    )
    counters = []
    for key, counter in zip(work.keys, work.values):
        if isinstance(counter, ast.Name):
            counter = functions[counter.id]
        reads = [
            (call.args[2].value, call.args[3].value)
            for call in ast.walk(counter)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
        ]
        counters.append((key.value, reads))
    return counters


WORK_COUNTERS = _work_counters()


def test_work_counters_are_found():
    assert ("curie_weiss.cw_exact_pmf", [(0, "params")]) in WORK_COUNTERS
    assert ("er.enumerate_graphs_oracle", [(0, "n")]) in WORK_COUNTERS
    assert len(WORK_COUNTERS) == 11


@pytest.mark.parametrize("span,reads", WORK_COUNTERS, ids=[s for s, _ in WORK_COUNTERS])
def test_work_counter_reads_the_arguments_of_its_function(span, reads):
    module, *attrs = span.split(".")
    target = importlib.import_module(f"lkllt.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    params = list(inspect.signature(target).parameters)
    for position, name in reads:
        assert name in params, (span, name)
        assert params.index(name) == position, (span, name)


def _layer_spans() -> list[str]:
    """Every span name that ``layers.py`` reads: the string arguments of its
    ``idx.*`` calls, the strings of its ``ER_*`` and ``SERIALIZERS`` tuples
    and the keys of ``WORK``, read from the source without importing it.  A
    name ending in "." is a module prefix."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    roots = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            t.id.startswith("ER_") or t.id == "SERIALIZERS" for t in node.targets
        ):
            roots.append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.target.id == "WORK":
            roots.extend(node.value.keys)
    roots.extend(
        arg
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and getattr(call.func.value, "id", None) == "idx"
        for arg in (*call.args, *(k.value for k in call.keywords))
    )
    names = {
        c.value
        for root in roots
        for c in ast.walk(root)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }
    # rngutil.block is the span of each map_blocks block, numpy.* wrap numpy
    return sorted(n for n in names if n != "rngutil.block" and not n.startswith("numpy."))


LAYER_SPANS = _layer_spans()

# Functions deleted from lkllt that layers.py still names; their metrics read
# 0.  Strict, so the marker has to go once layers.py names live functions.
STALE_SPANS = {
    "er._gnp", "er.iso_q", "er.tri_q", "er.iso_q11_two_step", "er.tri_q11_two_step",
    "er._tri_qm1m1_two_step", "curie_weiss.cw_q", "rgg._greedy_line", "rgg._annulus_diagnostic",
}


def test_layer_spans_are_found():
    for span in ("lk.random_dist", "lk.lk_sides", "smoothing.", "cli.json.dumps",
                 "er.ERPairModel.q_block", "tp.tp_normal_gaps"):
        assert span in LAYER_SPANS
    assert STALE_SPANS <= set(LAYER_SPANS)


@pytest.mark.parametrize(
    "span",
    [
        pytest.param(
            s,
            marks=pytest.mark.xfail(strict=True, raises=AttributeError, reason="deleted from lkllt"),
        )
        if s in STALE_SPANS
        else s
        for s in LAYER_SPANS
    ],
)
def test_layer_span_resolves(span):
    module, *attrs = span.rstrip(".").split(".")
    target = importlib.import_module(f"lkllt.{module}")
    for attr in attrs:
        target = getattr(target, attr)


def _map_blocks_calls() -> list[tuple[str, int, int, int]]:
    """(file, line, positional count, keyword count) of every call to
    ``map_blocks`` under src/, read from the source."""
    src = BENCH.parent / "src"
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "map_blocks"
                or getattr(node.func, "attr", None) == "map_blocks"
            ):
                rel = str(path.relative_to(src))
                calls.append((rel, node.lineno, len(node.args), len(node.keywords)))
    return calls


def test_map_blocks_calls_fit_the_traced_wrapper():
    # layers.py traces map_blocks through a wrapper that takes exactly
    # (fn, master_seed, replicates); anything a sampler needs beyond that
    # rides on fn, as its ``stride`` attribute does
    calls = _map_blocks_calls()
    assert {"lkllt/er.py", "lkllt/rgg.py", "lkllt/smoothing.py"} <= {where for where, *_ in calls}
    assert [c for c in calls if c[2:] != (3, 0)] == []
