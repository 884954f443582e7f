"""Floats enter only at the holonomy boundary, and so does generated code.

An AST scan of the exact modules: none of them calls ``complex`` or ``float``
or touches an ``as_complex`` attribute, except ``coeff.py`` inside the two
boundary methods ``GaussianRational.as_complex`` and ``LaurentPoly.evaluate``.
A second scan of every module: only ``holonomy.py``, which compiles its jet
kernels, calls ``exec`` or ``compile``, and no module calls ``eval``.
A third check resolves every name ``perfbench/spans.py`` wraps, so a refactor
that moves a traced method fails here, not only in a traced benchmark run.
A fourth scan keeps one fold from Lie factors to images: in every module,
only ``lie._from_factors`` and ``lie.exp_ad`` call ``_exp_series``.
A fifth keeps the sweep on the slots that are present: ``normalize`` does
not walk ``iter_l_indices``.
A sixth keeps JSON on the CLI's writer: no module calls ``json.dumps`` with
``indent``, which runs json's pure-Python encoder.
A seventh keeps the x-window in the product kernel: ``lie._exp_series`` and
``normalform._intertwines`` call neither ``truncate_x`` nor ``_in_window``,
so they form no term above the window only to drop it.
An eighth keeps every public name read: each public def and public method
is read, as a name or an attribute, by the package outside the def itself,
by ``perfbench/*.py`` or by README's quick start, or it sits on a short
list with its reason.
A ninth keeps the printers on the integers: ``coeff.format_term``,
``GaussianRational.__str__`` and ``series._terms_text`` read no ``.re`` or
``.im``, each of which builds a reduced ``Fraction``.
A tenth keeps the sweep to one slot walk: in ``normalform`` only
``_sweep_level`` calls ``exp_ad``, so ``normalize``'s own body takes no
step, and the module defines no ``_next_slot``, the rescan of the second
walk.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossfield"
EXACT_MODULES = ["series.py", "lie.py", "normalform.py", "resonance.py", "parsing.py"]
BOUNDARY = {"coeff.py": {("GaussianRational", "as_complex"), ("LaurentPoly", "evaluate")}}


def enclosed_hits(source: str, hit):
    """(class, function, line) of each node of the source for which hit(node)
    holds; class and function name the innermost enclosing definitions
    (None at module level)."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if hit(child):
                found.append((cls, fn, child.lineno))
            visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return found


def float_uses(source: str):
    """(class, function, line) of each float entry point in the source:
    calls of the builtins ``complex`` and ``float`` and any ``.as_complex``
    attribute."""
    return enclosed_hits(source, lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("complex", "float")
    ) or (isinstance(node, ast.Attribute) and node.attr == "as_complex"))


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


GENERATED_CODE = {"holonomy.py": {"exec", "compile"}}


def dynamic_code_calls(source: str):
    """(builtin, line) of each call of ``exec``, ``eval`` or ``compile``."""
    return [
        (node.func.id, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_generated_code_only_in_holonomy(path):
    calls = dynamic_code_calls(path.read_text(encoding="utf-8"))
    allowed = GENERATED_CODE.get(path.name, set())
    stray = [(name, line) for name, line in calls if name not in allowed]
    assert not stray, f"{path.name} runs generated code at {stray}"


def test_code_scan_sees_every_call():
    source = "exec(compile(s, 'k', 'exec'), ns)\nre.compile(p)\neval(e)\n"
    assert sorted(dynamic_code_calls(source)) == [("compile", 1), ("eval", 3), ("exec", 1)]
    holonomy = (PACKAGE / "holonomy.py").read_text(encoding="utf-8")
    assert {name for name, _ in dynamic_code_calls(holonomy)} == GENERATED_CODE["holonomy.py"]


def load_spans():
    """perfbench/spans.py, loaded by path: the benchmark is not a package."""
    import importlib.util

    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist():
    # every name the traced benchmark wraps resolves where its installer
    # looks it up: the class __dict__ for a method, the module's vars for a
    # function, so moving or removing one fails here and not only under
    # --trace 1
    import importlib

    import crossfield

    spans = load_spans()
    tables = list(spans.SPANNED.items()) + list(spans.COUNTED.items())
    assert len(tables) == len(spans.SPANNED) + len(spans.COUNTED) > 0
    for name, (mod, owner, attrs) in tables:
        importlib.import_module(f"crossfield.{mod}")
        module = getattr(crossfield, mod)
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        for attr in attrs:
            assert attr in namespace, f"{name}: crossfield.{mod}.{owner or ''} has no {attr}"
            assert callable(namespace[attr]), f"{name}: {attr} is not callable"


LIE_SERIES_CALLERS = {("lie.py", "_from_factors"), ("lie.py", "exp_ad")}


def callers_of(source: str, name: str):
    """(enclosing function, line) of each call of ``name`` or ``<obj>.name``;
    the function is the innermost enclosing definition (None at module level)."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                    isinstance(func, ast.Attribute) and func.attr == name
                ):
                    found.append((fn, child.lineno))
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_one_fold_runs_the_lie_series():
    calls = {
        (path.name, fn)
        for path in PACKAGE.glob("*.py")
        for fn, _ in callers_of(path.read_text(encoding="utf-8"), "_exp_series")
    }
    assert calls == LIE_SERIES_CALLERS


def test_one_module_picks_the_diagonal_closed_form():
    calls = {
        name: {
            (path.name, fn)
            for path in PACKAGE.glob("*.py")
            for fn, _ in callers_of(path.read_text(encoding="utf-8"), name)
        }
        for name in ("_diagonal", "_exp_multiples", "_times_exp")
    }
    assert calls["_diagonal"] == {("lie.py", "_from_factors"), ("lie.py", "exp_ad")}
    assert {module for name in ("_exp_multiples", "_times_exp") for module, _ in calls[name]} == {"lie.py"}


def test_caller_scan_sees_every_call():
    source = (
        "_exp_series(a)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return lie._exp_series(b)\n"
        "def g():\n"
        "    def h():\n"
        "        return [_exp_series(s) for s in c]\n"
        "    return _exp_series\n"
    )
    assert callers_of(source, "_exp_series") == [(None, 1), ("f", 4), ("h", 7)]


def test_sweep_does_not_walk_every_slot():
    source = (PACKAGE / "normalform.py").read_text(encoding="utf-8")
    walkers = {fn for fn, _ in callers_of(source, "iter_l_indices")}
    assert "normalize" not in walkers
    assert "centralizer_solve" in walkers  # the scan sees this module's calls


def test_slot_scan_sees_a_full_walk():
    source = (
        "def normalize(X, mu):\n"
        "    for idx in iter_l_indices(X.n, 0, X.cap - 1):\n"
        "        pass\n"
        "    return series.iter_l_indices(1, 0, 2)\n"
    )
    assert callers_of(source, "iter_l_indices") == [("normalize", 2), ("normalize", 4)]


def module_defs(source: str):
    """The names of the module-level functions of the source."""
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_sweep_has_one_walker():
    source = (PACKAGE / "normalform.py").read_text(encoding="utf-8")
    assert {fn for fn, _ in callers_of(source, "exp_ad")} == {"_sweep_level"}
    assert "_next_slot" not in module_defs(source)
    assert "normalize" in module_defs(source)  # the scan sees this module's defs


def test_walker_scan_sees_a_second_walk():
    source = (
        "def normalize(X, mu):\n"
        "    while (key := _next_slot(field, key, top)) is not None:\n"
        "        field = exp_ad(W, field, x_window=window)\n"
        "    return lie.exp_ad(W, field)\n"
        "class A:\n"
        "    def _next_slot(self):\n"
        "        pass\n"
        "def _next_slot(field, after, top):\n"
        "    pass\n"
    )
    assert callers_of(source, "exp_ad") == [("normalize", 3), ("normalize", 4)]
    assert module_defs(source) == {"normalize", "_next_slot"}


WINDOWED = {"lie.py": "_exp_series", "normalform.py": "_intertwines"}
# the kernel route each windowed function takes: a Lie series term's raw
# accumulators, and the certificate's accumulation of both sides
KERNEL_CALLS = {"_exp_series": "_ad_accumulators", "_intertwines": "_apply_into"}
POST_TRUNCATIONS = ("truncate_x", "_in_window")


def post_truncations(source: str, functions):
    """(function, line) of each truncate_x or _in_window call inside one of
    the named functions."""
    return sorted(
        (fn, line)
        for name in POST_TRUNCATIONS
        for fn, line in callers_of(source, name)
        if fn in functions
    )


@pytest.mark.parametrize("module,function", sorted(WINDOWED.items()))
def test_window_stays_in_the_kernel(module, function):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert post_truncations(source, {function}) == []
    assert any(fn == function for fn, _ in callers_of(source, KERNEL_CALLS[function]))


# what the certificate must not call: it reads the numerators of one raw
# accumulator, so it builds neither side as a series (apply) and makes no
# cell canonical, and it stays independent of the sweep's brackets and
# adjoint series
NOT_IN_CERTIFICATE = ("apply", "finish_products", "exp_ad", "bracket", "_exp_series", "finish_items")


def test_certificate_forms_no_series():
    source = (PACKAGE / "normalform.py").read_text(encoding="utf-8")
    assert [
        name for name in NOT_IN_CERTIFICATE
        if any(fn == "_intertwines" for fn, _ in callers_of(source, name))
    ] == []
    # the scan sees this module's calls
    assert any(fn == "_sweep_level" for fn, _ in callers_of(source, "bracket"))


def test_certificate_scan_sees_a_forbidden_call():
    source = (
        "def _intertwines(phi, X, Y, window):\n"
        "    data = {}\n"
        "    Y._apply_into(data, X.a, -1, window)\n"
        "    return _ts_raw(1, 2, finish_products(data)).is_zero() and not X.bracket(Y)\n"
        "def _from_factors(W, s, w):\n"
        "    return W.apply(s, w)\n"
    )
    assert [(name, fn) for name in NOT_IN_CERTIFICATE for fn, _ in callers_of(source, name)] == [
        ("apply", "_from_factors"), ("finish_products", "_intertwines"), ("bracket", "_intertwines")
    ]


def test_truncation_scan_sees_a_post_truncation():
    source = (
        "def _exp_series(W, starts, t, x_window):\n"
        "    term = _in_window(step(starts), x_window)\n"
        "    return term.truncate_x(x_window)\n"
        "def _from_factors(images, w):\n"
        "    return [s.truncate_x(w) for s in images]\n"
    )
    assert post_truncations(source, {"_exp_series"}) == [("_exp_series", 2), ("_exp_series", 3)]
    assert post_truncations(source, {"_intertwines"}) == []


def call_name(node):
    """The name a call calls, ``f`` or ``<obj>.f``; None for other calls."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def round_trips(source: str):
    """(function, line) of each ``_series_cells(finish_products(...))`` call:
    finished terms converted straight back to kernel items."""
    return [(fn, line) for _, fn, line in enclosed_hits(source, lambda node: (
        isinstance(node, ast.Call) and call_name(node) == "_series_cells"
        and bool(node.args) and isinstance(node.args[0], ast.Call)
        and call_name(node.args[0]) == "finish_products"
    ))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_finished_terms_go_back_to_items(path):
    # finish_items makes a raw accumulator into items with no object built
    assert round_trips(path.read_text(encoding="utf-8")) == []


def test_round_trip_scan_sees_a_round_trip():
    source = (
        "def _product(f, g):\n"
        "    return _series_cells(finish_products(data))\n"
        "def layer(data):\n"
        "    items = series._series_cells(series.finish_products(data))\n"
        "    return _series_cells(s._terms), finish_items(data)\n"
    )
    assert round_trips(source) == [("_product", 2), ("layer", 4)]


def dumps_calls(source: str):
    """(line, passes indent) of each call of ``dumps`` or ``<obj>.dumps``."""
    return [
        (node.lineno, any(k.arg == "indent" for k in node.keywords))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "dumps" or getattr(node.func, "attr", None) == "dumps")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    indented = [line for line, indent in dumps_calls(path.read_text(encoding="utf-8")) if indent]
    assert not indented, f"{path.name} calls json.dumps with indent at lines {indented}"


def test_dumps_scan_sees_an_indented_call():
    source = (
        "json.dumps(report, indent=2)\n"
        "def emit(v):\n"
        "    return dumps(v, sort_keys=True, indent=None) + json.dumps(v)\n"
    )
    assert sorted(dumps_calls(source)) == [(1, True), (3, False), (3, True)]
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert dumps_calls(cli)  # the scan sees the writer's scalar call


# public names that no program code reads yet, each with its reason
UNREAD_ALLOWED = {
    ("cli.py", None, "build_parser"),  # tests build a fresh parser with it
    ("holonomy.py", None, "transport_conjugacy"),  # ROADMAP's leafwise check will read it
    ("lie.py", "VectorField", "semisimple"),  # the tests' reference field
}


def public_defs(source: str):
    """(class, name, first line, last line) of each public module-level def
    and each public method of a public module-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [
                (node.name, item.name, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            found.append((None, node.name, node.lineno, node.end_lineno))
    return found


def name_reads(source: str, strings: bool = False):
    """(name, line) of each loaded name and attribute, and with ``strings``
    of each string constant that is an identifier.  An import binds a name
    and ``__all__`` lists it as a string, so neither reads it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.value, node.lineno))
    return found


def unread_defs(sources: dict, outside: set):
    """(module, class, name) of each public def in ``sources`` (module ->
    source) that no module reads outside the def's own lines and that is not
    in ``outside``, the names read beyond the package."""
    reads = {module: name_reads(source) for module, source in sources.items()}
    return {
        (module, cls, name)
        for module, source in sources.items()
        for cls, name, first, last in public_defs(source)
        if name not in outside
        and not any(
            read == name and not (other == module and first <= line <= last)
            for other, found in reads.items()
            for read, line in found
        )
    }


def test_every_public_name_has_a_reader():
    root = PACKAGE.parent.parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    # perfbench names the methods it wraps as strings
    outside = {
        name
        for p in (root / "perfbench").glob("*.py")
        for name, _ in name_reads(p.read_text(encoding="utf-8"), strings=True)
    }
    (block,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(encoding="utf-8"), re.S)
    outside |= {name for name, _ in name_reads(block)}
    assert unread_defs(sources, outside) == UNREAD_ALLOWED


def test_reader_scan_flags_an_unread_def():
    sources = {
        "a.py": (
            "__all__ = ['used', 'unused']\n"
            "def used():\n"
            "    return C().m()\n"
            "def unused(k):\n"
            "    return unused(k - 1)\n"
            "class C:\n"
            "    def m(self):\n"
            "        return self._p()\n"
            "    def _p(self):\n"
            "        return 'gone'\n"
            "    def wrapped(self):\n"
            "        return 0\n"
            "    def gone(self):\n"
            "        return 0\n"
        ),
        "b.py": "from a import unused, used\nused()\n",
    }
    assert unread_defs(sources, {"wrapped"}) == {("a.py", None, "unused"), ("a.py", "C", "gone")}


PRINTERS = {
    "coeff.py": {("GaussianRational", "__str__"), (None, "format_term")},
    "series.py": {(None, "_terms_text")},
}


def part_reads(source: str):
    """(class, function, line) of each read of a ``.re`` or ``.im`` attribute."""
    return enclosed_hits(source, lambda node: (
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ("re", "im")
    ))


@pytest.mark.parametrize("module", sorted(PRINTERS))
def test_printers_read_no_fraction_parts(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    reads = [(cls, fn, line) for cls, fn, line in part_reads(source) if (cls, fn) in PRINTERS[module]]
    assert not reads, f"{module} prints from Fraction parts at {reads}"
    returns = {(cls, fn) for cls, fn, _ in enclosed_hits(source, lambda node: isinstance(node, ast.Return))}
    assert PRINTERS[module] <= returns  # the scan sees each printer's body


def test_part_scan_sees_every_read():
    source = (
        "class GaussianRational:\n"
        "    def __str__(self):\n"
        "        return f'{self.re}+{self.im}*i'\n"
        "def format_term(coeff, var):\n"
        "    coeff.re = 0\n"
        "    return abs(coeff.im) < 0\n"
    )
    assert part_reads(source) == [("GaussianRational", "__str__", 3), ("GaussianRational", "__str__", 3),
                                  (None, "format_term", 6)]
