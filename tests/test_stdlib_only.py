"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossfield"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path: Path):
    """Top-level names of every absolute import in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_sources_found():
    assert PACKAGE / "coeff.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    allowed = sys.stdlib_module_names | {"crossfield"}
    foreign = sorted(set(absolute_imports(path)) - allowed)
    assert not foreign, f"{path.name} imports {foreign}"
