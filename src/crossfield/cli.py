"""Command-line front end.

Fields travel in small UTF-8 documents (key: value header, then the field
expression), automorphisms in map documents; commands dispatch onto the
library and print either aligned text or versioned JSON ("schema": 1).
Reports are byte-deterministic for identical inputs: keys are emitted in a
fixed order, all algebraic values are exact canonical strings, and the only
floats (holonomy, conjugacy residuals) are formatted to 12 significant
digits.

Exit codes: 0 success, 1 a mathematical finding flagged as a failure (a
noncommuting pair under check-commute, a centralizer monomial violating the
no-negative-resonance expectation, a conjugacy residual over the bound), 2
usage errors including syntax errors with positions and sizes above the
MAX_* bounds below.

One table, _COMMANDS, gives each command its help text, its flags (keys
into the ordered _FLAGS table) and its handler; build_parser() and main()
both read it.  Both document kinds go through one header reader,
_read_header, and every report through one envelope, _emit, which puts
"schema" and "command" in front.

main() builds its argparse tree on its first call and reuses it for every
later call in the process; the tree holds no per-call state, so repeated
calls behave exactly like calls on a fresh build_parser().
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .coeff import CoefficientSyntaxError, GaussianRational
from .holonomy import (
    IntegrationError,
    LeafEscapeError,
    conjugacy_residual,
    holonomy_jet,
)
from .lie import Automorphism, VectorField, exp, log
from .normalform import centralizer_check, normalize
from .parsing import parse_field, parse_series
from .resonance import (
    classify_dim2,
    classify_dim3,
    decide_ntnr,
    enumerate_resonances,
)
from .series import TransverseSeries, grlex_key

__all__ = ["main", "FieldDocument", "MapDocument", "DocumentError"]

# Size bounds on document headers and flags.  The work grows with the number
# n*C(n+d, n) of monomial slots z^K dz_j of degree <= d in n variables, so
# unbounded values run for minutes (or trip exp's iteration guard); larger
# values exit 2, and so do values below the lower bounds (a degree 0 map
# sends z to 0, and a negative x-cap drops every Taylor term).  Bounding each
# value alone is not enough (a 16-term field at n = 6, degree 12, 111,384
# slots, ran past 60 s), so MAX_MONOMIALS bounds the slot count too.  Inside
# it an exact field with every slot filled normalizes in under 8 s on a
# 2-core x86 machine; the x-cap window is not counted.
MAX_N = 6  # the 'n' header, and the number of --mu values
MAX_DEGREE = 12  # the 'degree' header and --degree
MAX_X_CAP = 64  # the 'x-cap' header and --x-cap
MAX_MONOMIALS = 640  # n*C(n+d, n) of a document, or of its n with --degree
_HEADER_BOUNDS = {"n": (1, MAX_N), "degree": (1, MAX_DEGREE), "x-cap": (0, MAX_X_CAP)}


class DocumentError(ValueError):
    """Malformed field or map document."""


class Finding(Exception):
    """A mathematical result flagged as a failure (exit code 1)."""


def _fmt_float(v: float) -> str:
    return format(float(v), ".12g")


def _fmt_complex(v: complex) -> dict:
    return {"re": _fmt_float(v.real), "im": _fmt_float(v.imag)}


class FieldDocument:
    """n / degree / optional x-cap, mu, name, plus the field expression."""

    def __init__(self, n, degree, field_text, field_line, x_cap=None, mu=None, name=None):
        self.n = n
        self.degree = degree
        self.field_text = field_text
        self.field_line = field_line
        self.x_cap = x_cap
        self.mu = mu
        self.name = name

    @classmethod
    def parse(cls, text: str, source: str = "<document>") -> "FieldDocument":
        lines = text.splitlines()
        header, n, degree = _read_header(lines, source, last="field")
        value, field_line = header["field"]
        field_text = "\n".join([value] + lines[field_line:])
        x_cap = _int_header(header, "x-cap", source) if "x-cap" in header else None
        mu = None
        if "mu" in header:
            raw, lineno = header["mu"]
            try:
                mu = tuple(
                    GaussianRational.from_string(part) for part in raw.split(",")
                )
            except CoefficientSyntaxError as e:
                raise DocumentError(f"{source}:{lineno}: bad mu value: {e}")
            if len(mu) != n:
                raise DocumentError(
                    f"{source}:{lineno}: mu lists {len(mu)} values for n = {n}"
                )
        name = header.get("name", (None, 0))[0]
        return cls(n, degree, field_text, field_line, x_cap=x_cap, mu=mu, name=name)

    def field(self, degree=None) -> VectorField:
        cap = degree if degree is not None else self.degree
        raw_col = len("field:") + 1
        return parse_field(
            self.field_text,
            self.n,
            cap,
            line_offset=self.field_line - 1,
            col_offset=raw_col,
        )


def _read_header(lines, source, last=None):
    """(header, n, degree) of a document's lines.

    Blank and '#' lines are skipped; every other line reads 'key: value' and
    goes into header as key -> (value, line number).  The entry keyed `last`,
    when given, is required and ends the header; the lines after it are the
    caller's.  n and degree are required and bounded.
    """
    header = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DocumentError(
                f"{source}:{lineno}: expected 'key: value', found {raw!r}"
            )
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key.startswith("map "):  # 'map  z1' is 'map z1'
            key = "map " + key[4:].strip()
        header[key] = (value.strip(), lineno)
        if key == last:
            break
    for key in ((last,) if last else ()) + ("n", "degree"):
        if key not in header:
            raise DocumentError(f"{source}: missing '{key}:' entry")
    n = _int_header(header, "n", source)
    degree = _int_header(header, "degree", source)
    _check_slot_budget(n, degree, source)
    return header, n, degree


def _int_header(header, key, source):
    raw, lineno = header[key]
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError(f"{source}:{lineno}: '{key}' must be an integer, got {raw!r}")
    lo, hi = _HEADER_BOUNDS[key]
    _check_range(f"{source}:{lineno}: '{key}'", value, lo, hi)
    return value


def _check_range(what: str, value: int, lo: int, hi: int) -> None:
    if value < lo:
        raise DocumentError(f"{what} must be at least {lo}, got {value}")
    if value > hi:
        raise DocumentError(f"{what} must be at most {hi}, got {value}")


def _check_slot_budget(n: int, degree: int, source: str) -> None:
    count = n * math.comb(n + degree, n)
    if count > MAX_MONOMIALS:
        raise DocumentError(
            f"{source}: n = {n} at degree {degree} spans {count} monomial slots "
            f"n*C(n+d, n), at most {MAX_MONOMIALS}"
        )


def _check_flags(args) -> None:
    for dest, value in vars(args).items():
        # argparse before Python 3.13 parses "--opt=--" to an empty list
        if value == []:
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise DocumentError(f"{flag} expects one value, got '--'")
    for key in ("degree", "x-cap"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            _check_range("--" + key, value, *_HEADER_BOUNDS[key])


class MapDocument:
    """n / degree header plus 'map z<k>: expression' lines (and 'map x: x')."""

    def __init__(self, n, degree, images):
        self.n = n
        self.degree = degree
        self.images = images

    @classmethod
    def parse(cls, text: str, source: str = "<map>") -> "MapDocument":
        header, n, degree = _read_header(text.splitlines(), source)
        maps = {key[4:]: entry for key, entry in header.items() if key.startswith("map ")}
        images = {}
        for var, (expr, lineno) in maps.items():
            if var == "x":
                if expr.replace(" ", "") != "x":
                    raise DocumentError(
                        f"{source}:{lineno}: only 'map x: x' is supported"
                    )
                continue
            if not (var.startswith("z") and var[1:].isdigit()):
                raise DocumentError(f"{source}:{lineno}: unknown map target {var!r}")
            idx = int(var[1:])
            if not 1 <= idx <= n:
                raise DocumentError(
                    f"{source}:{lineno}: map target {var!r} out of range (n = {n})"
                )
            images[idx] = parse_series(expr, n, degree, line_offset=lineno - 1,
                                       col_offset=len(f"map {var}:") + 1)
        for idx in range(1, n + 1):
            if idx not in images:
                raise DocumentError(f"{source}: missing 'map z{idx}:' entry")
        return cls(n, degree, images)

    def automorphism(self) -> Automorphism:
        return Automorphism(
            TransverseSeries.x_series(self.n, self.degree),
            [self.images[i] for i in range(1, self.n + 1)],
        )


# --- rendering ---------------------------------------------------------------


def _emit(args, report: dict) -> None:
    """Print a command's report, behind "schema" and "command"."""
    report = {"schema": 1, "command": args.command, **report}
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    for key, value in report.items():
        if key == "schema":
            continue
        sys.stdout.write(_text_block(key, value))


def _text_block(key, value, indent="") -> str:
    if isinstance(value, dict):
        out = f"{indent}{key}:\n"
        for k, v in value.items():
            out += _text_block(k, v, indent + "  ")
        return out
    if isinstance(value, list):
        if not value:
            return f"{indent}{key}: (none)\n"
        out = f"{indent}{key}:\n"
        for item in value:
            if isinstance(item, dict):
                flat = ", ".join(f"{k}={_flat(v)}" for k, v in item.items())
                out += f"{indent}  - {flat}\n"
            else:
                out += f"{indent}  - {_flat(item)}\n"
        return out
    return f"{indent}{key}: {_flat(value)}\n"


def _flat(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}={_flat(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_flat(x) for x in v) + "]"
    return str(v)


# --- command helpers -----------------------------------------------------------


def _load(cls, path, flag, command="this command"):
    """cls.parse of the document at `path`, which came with `flag`."""
    if path is None:
        raise DocumentError(f"{command} requires {flag} <path>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")
    return cls.parse(text, source=path)


def _load_field(args, use_degree_flag=False):
    doc = _load(FieldDocument, args.field, "--field")
    cap = None
    if use_degree_flag and getattr(args, "degree", None) is not None:
        cap = args.degree
        _check_slot_budget(doc.n, cap, "--degree")
    X = doc.field(cap)
    if getattr(args, "require_x_normalized", False) and not X.is_x_normalized():
        raise DocumentError(
            "field rejected by --require-x-normalized (need x*dx, z-components "
            "in m with a constant z-linear part)"
        )
    return doc, X


def _mu_from(args, doc=None):
    if getattr(args, "mu", None):
        parts = args.mu.split(",")
        if len(parts) > MAX_N:
            raise DocumentError(f"--mu lists {len(parts)} values, at most {MAX_N}")
        try:
            return tuple(GaussianRational.from_string(part) for part in parts)
        except CoefficientSyntaxError as e:
            raise DocumentError(f"bad --mu value: {e}")
    if doc is not None and doc.mu is not None:
        return doc.mu
    raise DocumentError("eigenvalues required: pass --mu or declare mu in the document")


def _coeff_arg(value: str, flag: str) -> GaussianRational:
    try:
        return GaussianRational.from_string(value)
    except CoefficientSyntaxError as e:
        raise DocumentError(f"bad {flag} value: {e}")


def _window_arg(raw: str):
    try:
        lo, hi = raw.split(",")
        return int(lo), int(hi)
    except ValueError:
        raise DocumentError(f"--x-window expects 'lo,hi', got {raw!r}")


def _validate_declared_mu(doc, X):
    if doc.mu is None:
        return
    diag = X.constant_linear_matrix()
    if diag is None:
        return
    for i, m in enumerate(doc.mu):
        if diag[i][i] != m:
            raise DocumentError(
                f"declared mu[{i+1}] = {m} does not match the linear part "
                f"diagonal {diag[i][i]}"
            )


# --- commands ------------------------------------------------------------------


def _cmd_normalize(args):
    doc, X = _load_field(args, use_degree_flag=True)
    mu = _mu_from(args, doc) if (args.mu or doc.mu) else _diagonal_mu(X)
    _validate_declared_mu(doc, X)
    x_cap = args.x_cap if args.x_cap is not None else doc.x_cap
    result = normalize(X, mu, x_cap=x_cap)
    report = {
        "n": X.n,
        "degree": X.cap,
        "mu": [str(m) for m in result.mu],
        "x_window": result.x_window,
        "linear": [
            [str(p) for p in row] for row in result.normal_field.z_linear_matrix()
        ],
        "eps": list(result.eps),
        "resonant": result.resonant_json(),
        "normal_field": str(result.normal_field),
        "normalizer": {
            "x": str(result.normalizer.img_x),
            "z": [str(c) for c in result.normalizer.img_z],
        },
        "steps": [{"K": list(i.K), "j": i.j} for i in result.steps],
        "certified": result.certified,
    }
    _emit(args, report)


def _diagonal_mu(X: VectorField):
    diag = X.constant_linear_matrix()
    if diag is None:
        raise DocumentError(
            "cannot infer eigenvalues from an x-dependent linear part; "
            "declare mu in the document or pass --mu"
        )
    return tuple(diag[i][i] for i in range(X.n))


def _cmd_resonances(args):
    doc = _load(FieldDocument, args.field, "--field") if args.field else None
    mu = _mu_from(args, doc)
    degree = args.degree if args.degree is not None else 8
    report_obj = enumerate_resonances(mu, degree)
    ntnr = decide_ntnr(mu)
    witness = ntnr.witness or report_obj.witness()
    report = {
        "mu": [str(m) for m in mu],
        "bound": degree,
        "resonant": [r.to_json() for r in report_obj.resonant],
        "negative": [w.to_json() for w in report_obj.negative],
        "ntnr": ntnr.holds,
        "exact": ntnr.exact,
        "witness": witness.to_json() if witness else None,
    }
    _emit(args, report)


def _cmd_classify2(args):
    lam = _coeff_arg(args.lam, "--lambda")
    report = {
        "lambda": str(lam),
        "case": classify_dim2(lam),
    }
    _emit(args, report)


def _cmd_classify3(args):
    lam = _coeff_arg(args.lam, "--lambda")
    mu = _coeff_arg(args.mu, "--mu")
    c = classify_dim3(lam, mu)
    report = {
        "lambda": str(lam),
        "mu": str(mu),
        "siegel": c.siegel,
        "case": c.case,
        "witness": c.witness,
    }
    _emit(args, report)


def _cmd_centralizer(args):
    doc = _load(FieldDocument, args.field, "--field") if args.field else None
    mu = _mu_from(args, doc)
    window = _window_arg(args.x_window)
    degree = args.degree if args.degree is not None else (doc.degree if doc else 6)
    check = centralizer_check(mu, window, degree)
    report = {
        "mu": [str(m) for m in mu],
        "x_window": list(window),
        "degree": degree,
        "ntnr": check.ntnr.holds,
        "ntnr_exact": check.ntnr.exact,
        "basis": [e.to_json() for e in check.result.elements],
        "negative": [e.to_json() for e in check.offenders],
        "taylor_centralizer_ok": check.ok,
    }
    _emit(args, report)
    if not check.ok:
        raise Finding("no-negative-resonance holds but the centralizer has negative x-exponents")


def _cmd_check_commute(args):
    doc, X = _load_field(args)
    doc2 = _load(FieldDocument, args.field2, "--field2", args.command)
    if doc2.n != doc.n:
        raise DocumentError("the two fields have different n")
    Y = doc2.field(X.cap)
    br = X.bracket(Y)
    commute = br.is_zero()
    report = {
        "commute": commute,
        "bracket": str(br),
    }
    _emit(args, report)
    if not commute:
        raise Finding("fields do not commute")


def _cmd_exp(args):
    doc, X = _load_field(args, use_degree_flag=True)
    t = _coeff_arg(args.time, "--time")
    x_cap = args.x_cap if args.x_cap is not None else doc.x_cap
    phi = exp(X, t, x_window=x_cap)
    report = {
        "time": str(t),
        "x_window": x_cap,
        "x": str(phi.img_x),
        "z": [str(c) for c in phi.img_z],
    }
    _emit(args, report)


def _cmd_log(args):
    phi = _load(MapDocument, args.map, "--map").automorphism()
    X = log(phi)
    report = {
        "field": str(X),
        "one_flat": X.is_k_flat(1),
    }
    _emit(args, report)


def _cmd_holonomy(args):
    doc, X = _load_field(args)
    if not X.is_x_normalized():
        raise DocumentError("holonomy requires an x-normalized field")
    degree = args.degree if args.degree is not None else 2
    if degree > X.cap:
        raise DocumentError(
            f"jet degree {degree} exceeds the document's truncation degree {X.cap}"
        )
    jet = holonomy_jet(X, degree, tol=args.tol, windings=args.windings)
    coeffs = {}
    for i in range(1, jet.n + 1):
        entries = []
        for K in sorted(jet.coeffs.get(i, {}), key=grlex_key):
            entries.append({"K": list(K), **_fmt_complex(jet.coeffs[i][K])})
        coeffs[f"z{i}"] = entries
    report = {
        "degree": degree,
        "tol": _fmt_float(args.tol),
        "windings": args.windings,
        "base_point": "1",
        "jet": coeffs,
    }
    _emit(args, report)


def _cmd_conjugacy_check(args):
    doc, X = _load_field(args)
    psi = _load(MapDocument, args.map, "--map").automorphism()
    degree = args.degree if args.degree is not None else 2
    if psi.cap != X.cap:
        raise DocumentError(
            f"map degree {psi.cap} does not match field degree {X.cap}"
        )
    residual = conjugacy_residual(X, psi, degree, tol=args.tol)
    ok = args.max_residual is None or residual <= args.max_residual
    report = {
        "degree": degree,
        "tol": _fmt_float(args.tol),
        "residual": _fmt_float(residual),
        "max_residual": _fmt_float(args.max_residual) if args.max_residual is not None else None,
        "ok": ok,
    }
    _emit(args, report)
    if not ok:
        raise Finding(f"conjugacy residual {residual:.3g} exceeds the bound")


# Every flag a command can take, in the order each subparser adds them:
# (key, option, add_argument keywords).  A command names the keys it takes.
_FLAGS = (
    ("json", "--json", dict(action="store_true", help="machine-readable output")),
    ("field", "--field", dict(metavar="PATH", help="field document")),
    ("field", "--require-x-normalized",
     dict(action="store_true", help="reject fields that are not x-normalized")),
    ("field2", "--field2", dict(metavar="PATH", help="second field document")),
    ("map", "--map", dict(metavar="PATH", help="automorphism map document")),
    ("mu", "--mu", dict(metavar="COEFFS", help="comma-separated eigenvalues")),
    ("lambda", "--lambda", dict(dest="lam", metavar="COEFF", required=True)),
    ("degree", "--degree", dict(type=int, metavar="D")),
    ("x-cap", "--x-cap", dict(type=int, metavar="M")),
    ("x-window", "--x-window", dict(default="-6,6", metavar="LO,HI")),
    ("tol", "--tol", dict(type=float, default=1e-10, metavar="TOL")),
    ("time", "--time", dict(default="1", metavar="COEFF")),
    ("windings", "--windings", dict(type=int, default=1, metavar="W")),
    ("max-residual", "--max-residual", dict(type=float, metavar="R")),
    ("mu1", "--mu", dict(metavar="COEFF", required=True)),  # classify3's one mu
)

# name -> (help, flag keys besides json, handler)
_COMMANDS = {
    "normalize": ("eliminate nonresonant terms and certify the conjugation",
                  "field mu degree x-cap", _cmd_normalize),
    "resonances": ("resonant monomials and the negative-resonance decision",
                   "field mu degree", _cmd_resonances),
    "classify2": ("two-variable classification by the transverse eigenvalue",
                  "lambda", _cmd_classify2),
    "classify3": ("three-variable classification of (1, lambda, mu)",
                  "lambda mu1", _cmd_classify3),
    "centralizer": ("basis of fields commuting with the semisimple part",
                    "field mu degree x-window", _cmd_centralizer),
    "check-commute": ("bracket of two fields", "field field2", _cmd_check_commute),
    "exp": ("time-t exponential of a nilpotent field",
            "field time x-cap degree", _cmd_exp),
    "log": ("logarithm of a tangent-to-identity map document", "map", _cmd_log),
    "holonomy": ("jet of the return map around the separatrix",
                 "field degree tol windings", _cmd_holonomy),
    "conjugacy-check": ("holonomy conjugation residual for a map document",
                        "field map degree tol max-residual", _cmd_conjugacy_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfield",
        description="Exact normal forms, resonance classification and numeric "
        "holonomy for crossing-type vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        taken = {"json", *keys.split()}
        for key, option, kwargs in _FLAGS:
            if key in taken:
                p.add_argument(option, **kwargs)
    return parser


_PARSER = None  # built by the first main() call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_flags(args)
        _COMMANDS[args.command][2](args)
        return 0
    except Finding as e:
        sys.stderr.write(f"finding: {e}\n")
        return 1
    except (ValueError, IntegrationError, LeafEscapeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
