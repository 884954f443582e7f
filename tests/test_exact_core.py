"""Floats enter only at the holonomy boundary.

An AST scan of the exact modules: none of them calls ``complex`` or ``float``
or touches an ``as_complex`` attribute, except ``coeff.py`` inside the two
boundary methods ``GaussianRational.as_complex`` and ``LaurentPoly.evaluate``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossfield"
EXACT_MODULES = ["series.py", "lie.py", "normalform.py", "resonance.py", "parsing.py"]
BOUNDARY = {"coeff.py": {("GaussianRational", "as_complex"), ("LaurentPoly", "evaluate")}}


def float_uses(source: str):
    """(class, function, line) of each float entry point in the source.

    Entry points are calls of the builtins ``complex`` and ``float`` and any
    ``.as_complex`` attribute; class and function name the innermost
    enclosing definitions (None at module level).
    """
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("complex", "float")
            ) or (isinstance(child, ast.Attribute) and child.attr == "as_complex"):
                found.append((cls, fn, child.lineno))
            visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return found


@pytest.mark.parametrize("name", EXACT_MODULES + sorted(BOUNDARY))
def test_floats_only_at_the_holonomy_boundary(name):
    uses = float_uses((PACKAGE / name).read_text(encoding="utf-8"))
    allowed = BOUNDARY.get(name, set())
    stray = [(cls, fn, line) for cls, fn, line in uses if (cls, fn) not in allowed]
    assert not stray, f"{name} converts to floats at {stray}"


def test_scan_sees_every_kind_of_use():
    source = (
        "class A:\n"
        "    def f(self, v):\n"
        "        return complex(v) + float(v)\n"
        "def g(c):\n"
        "    return c.as_complex\n"
    )
    assert float_uses(source) == [("A", "f", 3), ("A", "f", 3), (None, "g", 5)]


def test_boundary_methods_exist():
    uses = float_uses((PACKAGE / "coeff.py").read_text(encoding="utf-8"))
    assert {(cls, fn) for cls, fn, _ in uses} == BOUNDARY["coeff.py"]
