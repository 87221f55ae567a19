"""The demos' package imports resolve, checked without running the demos."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) for every ``from platoonmpc... import name`` in a file,
    and (module, None) for every ``import platoonmpc...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "platoonmpc":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "platoonmpc")


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    found = list(package_imports(path))
    assert found, "demo imports nothing from the package"
    for module, name in found:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module} has no {name}"
