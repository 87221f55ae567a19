"""The package imports of the demos and of the README's Python examples
resolve, checked without running them."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def python_source(path):
    """A script's text, or the ```python blocks of a Markdown file."""
    text = path.read_text()
    if path.suffix != ".md":
        return text
    return "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))


def package_imports(path):
    """(module, name) for every ``from platoonmpc... import name`` in a file,
    and (module, None) for every ``import platoonmpc...``."""
    for node in ast.walk(ast.parse(python_source(path), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "platoonmpc":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "platoonmpc")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_demo_imports_resolve(path):
    found = list(package_imports(path))
    assert found, f"{path.name} imports nothing from the package"
    for module, name in found:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module} has no {name}"
