"""The runtime imports nothing outside the standard library."""

import ast
import importlib
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    # a name dropped from a module but left in its __all__ fails here
    module = importlib.import_module(
        "crossfield" if path.stem == "__init__" else f"crossfield.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} exports missing names {missing}"


# Each module's module-level imports of the package reach only lower layers.
# Function-level imports are exempt (GaussianRational.from_string reads
# through parsing that way), and so is the __init__ facade.
LAYERS = {
    "coeff": 0,
    "series": 1,
    "lie": 2,
    "resonance": 2,
    "parsing": 3,
    "normalform": 3,
    "holonomy": 3,
    "cli": 4,
}


def module_level_package_imports(source: str):
    """Package modules imported outside any function body of one source."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            # "from .coeff import x" names coeff, "from . import coeff" too
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module.removeprefix("crossfield.")]
        elif isinstance(node, ast.Import):
            names = [a.name.removeprefix("crossfield.") for a in node.names]
        else:
            continue
        yield from (name.partition(".")[0] for name in names)


def layer_violations(module: str, source: str):
    return sorted(
        target
        for target in set(module_level_package_imports(source))
        if LAYERS.get(target, -1) >= LAYERS[module]
    )


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.name)
def test_imports_reach_only_lower_layers(path):
    source = path.read_text(encoding="utf-8")
    assert not layer_violations(path.stem, source), f"{path.name} imports upward"


def test_layer_guard_catches_a_cycle():
    # coeff importing parsing at module level would be an import cycle
    assert layer_violations("coeff", "from .parsing import parse_field\n") == ["parsing"]
    assert layer_violations("coeff", "import crossfield.parsing\n") == ["parsing"]
    assert layer_violations("lie", "from . import resonance\n") == ["resonance"]
    assert layer_violations("coeff", "def f():\n    from .parsing import x\n") == []
    assert layer_violations("cli", "from .parsing import parse_field\n") == []
