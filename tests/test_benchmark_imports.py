"""The benchmark under perfbench/ imports lkllt names inside its functions,
and its own tests are not collected here, so deleting a library name that it
uses would break the benchmark while this suite stayed green."""

import ast
import importlib
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
