"""Seeded job corpora for the four benchmark workloads, with their checks.

Corpus entry ``i`` of a workload is built from its own stream
``random.Random(f"{workload}:{i}")``, so a job depends on its index alone and
``refs/`` holds a reference for every entry.  Entries cycle through strata,
fixed combinations of the input properties the cost depends on, so the
corpus holds the same number of each.  A run's seed sets the order in which
the corpus is visited, in rounds of one entry per stratum.  Runs time whole
passes over the corpus: with costs that span three decades inside a
workload, a seed-dependent sample of a few hundred jobs moves the mean by
more than any bound worth setting, while whole passes give every run the
same jobs.  Nothing is filtered by run time.

A job is ``run()`` (the timed call into crossfield) plus ``check()``, which
judges the output it returned.  CLI jobs hand crossfield only the documents
written here; identity jobs hand it only the series and fields built here.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

TWO_PI_I = 2j * math.pi
# conjugacy_residual's docstring: below about 1e4 * tol for O(1) data.
RESIDUAL_BOUND = 1e-6
# criterion 6's tolerance on the resonant example's c2 = 2 pi i.
C2_TOL = 1e-7
# linear holonomy coefficients against exp(2 pi i w mu), at tol 1e-10.
LINEAR_TOL = 1e-7


@dataclass
class Job:
    key: str
    props: dict
    run: Callable[[], tuple]  # -> (exit code, output text)
    check: Callable[[int, str], str | None]  # -> failure reason or None
    exact: bool = True  # output compared byte for byte with refs/
    argv: list = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --- exact coefficient text in the document grammar ------------------------


def _q(rng, span, den, nonzero=False):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if v or not nonzero:
            return v


def coef_text(re: Fraction, im: Fraction = Fraction(0)) -> str:
    parts = []
    if re:
        parts.append(str(re))
    if im:
        mag = abs(im)
        body = "i" if mag == 1 else f"{mag}*i"
        if parts:
            parts.append(("+" if im > 0 else "-") + body)
        else:
            parts.append(body if im > 0 else "-" + body)
    return "(" + ("".join(parts) or "0") + ")"


def _mono_text(x_exp, K, dvar):
    parts = []
    if x_exp:
        parts.append("x" if x_exp == 1 else f"x^{x_exp}")
    for i, k in enumerate(K, start=1):
        if k:
            parts.append(f"z{i}" if k == 1 else f"z{i}^{k}")
    if dvar:
        parts.append(dvar)
    return "*".join(parts)


def _rand_K(rng, n, lo, hi):
    """Uniform total degree in [lo, hi], then a uniform composition."""
    d = rng.randint(lo, hi)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    bounds = [0] + cuts + [d]
    return tuple(bounds[i + 1] - bounds[i] for i in range(n))


def _rand_terms(rng, n, degree, count, exps, x_lo, x_hi, dvars):
    """`count` random higher-order monomials coef*x^e*z^K*dvar."""
    out = []
    for _ in range(count):
        K = _rand_K(rng, n, 2, degree)
        dvar = rng.choice(dvars)
        for e in rng.sample(range(x_lo, x_hi + 1), exps):
            c = coef_text(_q(rng, 3, 3, nonzero=True), _q(rng, 2, 3) if rng.random() < 0.4 else 0)
            out.append(c + "*" + _mono_text(e, K, dvar))
    return out


def _doc(header: dict, terms) -> str:
    lines = [f"{k}: {v}" for k, v in header.items()]
    return "\n".join(lines) + "\nfield: " + " + ".join(terms) + "\n"


def _mu_text(mu):
    return ",".join(coef_text(m.real, m.imag).strip("()") for m in mu)


class _QI:
    """Minimal exact Q[i] value for eigenvalue bookkeeping inside the harness."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=Fraction(0)):
        self.real, self.imag = Fraction(real), Fraction(imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))


def props(n, degree, mode, terms=None, max_im_den=None, jet_state=None, **extra):
    """A job's input properties, recorded in the traced output; None where
    a property does not apply to the job."""
    return {"n": n, "degree": degree, "mode": mode, "terms": terms,
            "max_im_den": max_im_den, "jet_state": jet_state, **extra}


# --- CLI plumbing ----------------------------------------------------------


def cli_call(argv) -> tuple:
    """crossfield.cli.main(argv) in-process, stdout captured; looked up at
    call time so the traced run's wrapper on ``cli.main`` is the one called."""
    from crossfield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _cli_json(rc, text):
    """(report, None) for a JSON report with exit code 0, else (None, reason)."""
    try:
        doc = json.loads(text) if rc == 0 else None
    except ValueError:
        doc = None
    return (doc, None) if doc is not None else (None, f"exit {rc}: {text.strip()[-200:]}")


class Corpus:
    """Base: strata, entry construction and the seed's visiting order."""

    name = ""
    strata: tuple = ()
    size = 0  # corpus entries, a multiple of len(strata)
    fixed: tuple = ()  # keys of fixed members, run at the start of every pass

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def rng(self, key):
        return random.Random(f"{self.name}:{key}")

    def stratum_of(self, i: int):
        return self.strata[i % len(self.strata)]

    def order(self, seed: int, rounds: int | None = None) -> list:
        """The seed's order of corpus indices, in rounds that take one entry
        from every stratum, so a prefix of whole rounds keeps them balanced."""
        rng = random.Random(f"{self.name}/seed:{seed}")
        s = len(self.strata)
        members = [rng.sample(range(r, self.size, s), self.size // s) for r in range(s)]
        order = []
        for k in range(self.size // s if rounds is None else rounds):
            batch = [m[k] for m in members]
            rng.shuffle(batch)
            order.extend(batch)
        return order

    def job(self, key) -> Job:
        raise NotImplementedError

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# --- sweep: crossfield normalize --json ------------------------------------

FIELD_A = (
    "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + z1^2*dz1 + x*z1*z2*dz2 + z2^2*dz1 + z1^3*dz2"
)
FIELD_B = (
    "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + i*z3*dz3 + z1^2*dz1 + x*z1*z2*dz2"
    " + z2^2*dz3 + z1*z3*dz2"
)
_RESONANT_MU = [Fraction(v) for v in (-1, -2, -3, 2, 1)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 3), Fraction(3, 2)
]


class Sweep(Corpus):
    name = "sweep"
    strata = tuple(
        (n, eig, mode)
        for n in (1, 2, 3)
        for eig in ("generic", "resonant")
        for mode in ("exact", "xcap")
    )
    size = 12 * 10
    fixed = ("A", "B")

    def job(self, key) -> Job:
        if key == "A":
            text = f"name: field-A\nn: 2\ndegree: 8\nfield: {FIELD_A}\n"
            info = props(2, 8, "exact", terms=7, max_im_den=1, eig="resonant")
        elif key == "B":
            text = f"name: field-B\nn: 3\ndegree: 7\nfield: {FIELD_B}\n"
            info = props(3, 7, "exact", terms=8, max_im_den=1, eig="mixed")
        else:
            text, info = self._document(key)
        path = self.write(f"sweep-{key}.vf", text)
        argv = ["normalize", "--field", path, "--json"]
        return Job(f"sweep:{key}", info, lambda: cli_call(argv), _check_sweep, argv=argv)

    def _document(self, i):
        n, eig, mode = self.stratum_of(i)
        rng = self.rng(i)
        degree = rng.randint(4, 8)
        if eig == "resonant":
            mu = [_QI(rng.choice(_RESONANT_MU)) for _ in range(n)]
        else:
            mu = [_QI(_q(rng, 3, 3), _q(rng, 2, 5, nonzero=True)) for _ in range(n)]
        terms = ["x*dx"] + [
            coef_text(m.real, m.imag) + f"*z{j}*dz{j}" for j, m in enumerate(mu, start=1)
        ]
        header = {"name": f"sweep-{i}", "n": n, "degree": degree}
        dvars = [f"dz{j}" for j in range(1, n + 1)]
        count = rng.randint(1, 3)
        if mode == "xcap":
            j = rng.randint(1, n)
            terms.append(coef_text(_q(rng, 2, 2, nonzero=True)) + f"*x*z{j}*dz{j}")
            terms += _rand_terms(rng, n, degree, count, 1, 0, 2, dvars)
            header["x-cap"] = rng.randint(3, 6)
            header["mu"] = _mu_text(mu)
        else:
            terms += _rand_terms(rng, n, degree, count, rng.randint(1, 2), -2, 2, dvars)
        info = props(n, degree, mode, terms=len(terms),
                     max_im_den=max(m.imag.denominator for m in mu), eig=eig)
        return _doc(header, terms), info


def _check_sweep(rc, text):
    doc, failure = _cli_json(rc, text)
    if failure:
        return failure
    if doc.get("certified") is not True:
        return "normalize returned an uncertified result"
    return None


# --- identities: library calls on n = 2, cap 5-6 ---------------------------

def _rand_series(rng, cap, terms, min_deg=0, min_exp=0, max_exp=2):
    from crossfield import LaurentPoly, TransverseSeries
    from crossfield.coeff import GaussianRational as G

    data = {}
    for _ in range(terms):
        K = _rand_K(rng, 2, min_deg, cap)
        c = G(_q(rng, 3, 3), _q(rng, 3, 3) if rng.random() < 0.5 else 0)
        data[K] = LaurentPoly({rng.randint(min_exp, max_exp): c})
    return TransverseSeries(2, cap, data)


def _rand_field(rng, cap, terms=2, min_deg=0, z_min_deg=1):
    """m-preserving derivation (z-components in m), d/dx component free."""
    from crossfield import VectorField

    return VectorField(
        _rand_series(rng, cap, terms, min_deg),
        [_rand_series(rng, cap, terms, max(min_deg, z_min_deg)) for _ in range(2)],
    )


def _rand_one_flat(rng, cap, terms=2):
    """a in m, b_i in m^2: 1-flat, hence nilpotent at the cap."""
    from crossfield import VectorField

    return VectorField(
        _rand_series(rng, cap, terms, 1),
        [_rand_series(rng, cap, terms, 2) for _ in range(2)],
    )


def _rand_invertible(rng):
    while True:
        M = [[_q(rng, 2, 2) for _ in range(2)] for _ in range(2)]
        if M[0][0] * M[1][1] - M[0][1] * M[1][0]:
            return M


def _obj_coeffs(v):
    """The Q[i] coefficients of a series, field or automorphism input."""
    from crossfield import TransverseSeries, VectorField

    if isinstance(v, TransverseSeries):
        return [c for _, p in v.terms() for _, c in p.terms()]
    if isinstance(v, VectorField):
        return [c for comp in (v.a,) + tuple(v.b) for c in _obj_coeffs(comp)]
    return []


def _rand_one_flat_z(rng, cap):
    from crossfield import TransverseSeries, VectorField

    return VectorField(
        TransverseSeries.zero(2, cap), [_rand_series(rng, cap, 2, 2, max_exp=1) for _ in range(2)]
    )


def _id_ring(f, g, h):
    fg = f * g
    ok = (
        (f + g) + h == f + (g + h)
        and fg == g * f
        and fg * h == f * (g * h)
        and f * (g + h) == fg + f * h
    )
    return ok, str(fg * h)


def _id_leibniz(X, f, g):
    lhs = X.apply(f * g)
    return lhs == X.apply(f) * g + f * X.apply(g), str(lhs)


def _id_jacobi(X, Y, Z):
    YZ = Y.bracket(Z)
    total = X.bracket(YZ) + Y.bracket(Z.bracket(X)) + Z.bracket(X.bracket(Y))
    return total.is_zero(), str(YZ)


def _id_naturality(V, Z, W):
    from crossfield import lie

    phi = lie.exp(V)
    lhs = phi.pushforward(Z.bracket(W))
    return lhs == phi.pushforward(Z).bracket(phi.pushforward(W)), str(lhs)


def _id_exp_log(X):
    from crossfield import lie

    phi = lie.exp(X)
    ok = lie.log(phi) == X and lie.exp(lie.log(phi)) == phi
    return ok, str(phi)


def _id_exp_ad(X, Z, t):
    from crossfield import lie

    lhs = lie.exp_ad(X.scale(t), Z)
    return lhs == lie.exp(X, t).pushforward(Z), str(lhs)


def _id_composed(M, V, Z):
    from crossfield import lie

    # built here: an Automorphism caches powers of its images across calls
    lin = lie.Automorphism.linear(M, V.cap)
    step = lie.exp(V)
    phi = lin.compose(step)
    lhs = phi.pushforward(Z)
    return lhs == lin.pushforward(step.pushforward(Z)), str(lhs)


# family -> (inputs from a stream and a cap, the identity: (holds, text))
IDENTITIES = {
    "ring": (
        lambda rng, cap: {k: _rand_series(rng, cap, 3, min_exp=-2) for k in ("f", "g", "h")},
        _id_ring,
    ),
    "leibniz": (
        lambda rng, cap: {
            "X": _rand_field(rng, cap),
            "f": _rand_series(rng, cap, 2),
            "g": _rand_series(rng, cap, 2),
        },
        _id_leibniz,
    ),
    "jacobi": (lambda rng, cap: {k: _rand_field(rng, cap) for k in ("X", "Y", "Z")}, _id_jacobi),
    "naturality": (
        lambda rng, cap: {
            "V": _rand_one_flat(rng, cap, 1),
            "Z": _rand_field(rng, cap),
            "W": _rand_field(rng, cap),
        },
        _id_naturality,
    ),
    "exp_log": (lambda rng, cap: {"X": _rand_one_flat(rng, cap)}, _id_exp_log),
    "exp_ad": (
        lambda rng, cap: {
            "X": _rand_one_flat(rng, cap),
            "Z": _rand_field(rng, cap),
            "t": rng.choice([1, 2, -1]),
        },
        _id_exp_ad,
    ),
    # x-normalized map A o exp(V) with A linear: it has no inverse known by
    # construction, so pushforward runs the general inversion on a composition
    "composed_pushforward": (
        lambda rng, cap: {
            "M": _rand_invertible(rng),
            "V": _rand_one_flat_z(rng, cap),
            "Z": _rand_field(rng, cap),
        },
        _id_composed,
    ),
}
class Identities(Corpus):
    name = "identities"
    strata = tuple((fam, cap) for fam in IDENTITIES for cap in (5, 6))
    size = 14 * 8

    def job(self, key) -> Job:
        fam, cap = self.stratum_of(key)
        build, holds = IDENTITIES[fam]
        inputs = build(self.rng(key), cap)
        coeffs = [c for v in inputs.values() for c in _obj_coeffs(v)]
        info = props(2, cap, fam, terms=len(coeffs),
                     max_im_den=max((c.im.denominator for c in coeffs if c.im), default=1))
        return Job(f"identities:{key}", info, lambda: _run_identity(holds, inputs), _check_identity)


def _run_identity(identity, inputs):
    holds, text = identity(**inputs)
    return (0 if holds else 1), text


def _check_identity(rc, text):
    return None if rc == 0 else "identity does not hold exactly"


# --- holonomy: holonomy and conjugacy-check jobs ---------------------------


class Holonomy(Corpus):
    name = "holonomy"
    # conjugacy-check runs two jets and a general inversion: at n = 2 it
    # stays at degree 2, where one job costs about as much as a degree-5 jet
    strata = tuple(("holonomy", n, d) for n in (1, 2) for d in (2, 3, 4, 5)) + (
        ("conjugacy", 1, 2), ("conjugacy", 1, 3), ("conjugacy", 2, 2),
    )
    size = 11 * 4
    fixed = ("resonant",)

    def job(self, key) -> Job:
        if key == "resonant":
            text = (
                "name: resonant-example\nn: 1\ndegree: 4\nx-cap: 8\nmu: -1\n"
                "field: x*dx - z1*dz1 + x*z1^2*dz1\n"
            )
            path = self.write("holonomy-resonant.vf", text)
            argv = ["holonomy", "--field", path, "--degree", "2", "--tol", "1e-10", "--json"]
            info = props(1, 2, "holonomy", terms=3, max_im_den=1, jet_state=jet_state_size(1, 2))
            return Job("holonomy:resonant", info, lambda: cli_call(argv),
                       lambda rc, out: _check_holonomy(rc, out, [_QI(-1)], 1, c2=True),
                       exact=False, argv=argv)
        kind, n, degree = self.stratum_of(key)
        rng = self.rng(key)
        # |e^{2 pi i mu}| = e^{-2 pi Im mu} stays O(1) only for small Im mu
        mu = [_QI(_q(rng, 2, 2), Fraction(rng.choice([-1, 0, 0, 1]), 4)) for _ in range(n)]
        dvars = [f"dz{j}" for j in range(1, n + 1)]
        terms = ["x*dx"] + [coef_text(m.real, m.imag) + f"*z{j}*dz{j}" for j, m in enumerate(mu, 1)]
        terms += _rand_terms(rng, n, degree, rng.randint(1, 3), 1, 0, 1, dvars)
        doc = _doc({"name": f"holonomy-{key}", "n": n, "degree": degree}, terms)
        path = self.write(f"holonomy-{key}.vf", doc)
        info = props(n, degree, kind, terms=len(terms),
                     max_im_den=max(m.imag.denominator for m in mu),
                     jet_state=jet_state_size(n, degree))
        if kind == "holonomy":
            windings = rng.randint(1, 2)
            info["windings"] = windings
            argv = ["holonomy", "--field", path, "--degree", str(degree), "--tol", "1e-10",
                    "--windings", str(windings), "--json"]
            return Job(f"holonomy:{key}", info, lambda: cli_call(argv),
                       lambda rc, out: _check_holonomy(rc, out, mu, windings),
                       exact=False, argv=argv)
        mpath = self.write(f"holonomy-{key}.map", _map_doc(rng, n, degree))
        argv = ["conjugacy-check", "--field", path, "--map", mpath, "--degree", str(degree),
                "--tol", "1e-10", "--max-residual", repr(RESIDUAL_BOUND), "--json"]
        return Job(f"holonomy:{key}", info, lambda: cli_call(argv), _check_conjugacy,
                   exact=False, argv=argv)


def jet_state_size(n, degree):
    """Complex entries of the transported jet: n times the monomials of
    degree 1..degree in n variables."""
    return n * (math.comb(n + degree, n) - 1)


def _map_doc(rng, n, degree):
    """x-normalized map: invertible constant linear part plus m^2 terms."""
    while True:
        M = [[_q(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        det = M[0][0] if n == 1 else M[0][0] * M[1][1] - M[0][1] * M[1][0]
        if det:
            break
    lines = [f"n: {n}", f"degree: {degree}", "map x: x"]
    for i in range(n):
        parts = [coef_text(M[i][j]) + f"*z{j + 1}" for j in range(n) if M[i][j]]
        parts += _rand_terms(rng, n, degree, rng.randint(1, 2), 1, 0, 1, [""])
        lines.append(f"map z{i + 1}: " + " + ".join(parts))
    return "\n".join(lines) + "\n"


def _complex(entry):
    return complex(float(entry["re"]), float(entry["im"]))


def _check_holonomy(rc, text, mu, windings, c2=False):
    doc, failure = _cli_json(rc, text)
    if failure:
        return failure
    n = len(mu)
    for i in range(1, n + 1):
        coeffs = {tuple(e["K"]): _complex(e) for e in doc["jet"][f"z{i}"]}
        for j in range(1, n + 1):
            K = tuple(1 if p == j - 1 else 0 for p in range(n))
            want = cmath.exp(TWO_PI_I * windings * complex(mu[i - 1])) if i == j else 0
            got = coeffs.get(K, 0j)
            if abs(got - want) > LINEAR_TOL * max(1.0, abs(want)):
                return f"linear coefficient z{i}{list(K)} = {got}, oracle {want}"
        if c2 and abs(coeffs.get((2,), 0j) - TWO_PI_I) > C2_TOL:
            return f"c2 = {coeffs.get((2,))}, oracle 2*pi*i"
    return None


def _check_conjugacy(rc, text):
    doc, failure = _cli_json(rc, text)
    if failure:
        return failure
    if not float(doc["residual"]) <= RESIDUAL_BOUND:
        return f"conjugacy residual {doc['residual']} over {RESIDUAL_BOUND}"
    return None


# --- resonance: resonances / classify2 / classify3 / centralizer -----------


class Resonance(Corpus):
    name = "resonance"
    strata = (
        ("resonances", 1), ("resonances", 2), ("resonances", 3),
        ("centralizer", 1), ("centralizer", 2), ("centralizer", 3),
        ("classify2", 1), ("classify3", 2),
    )
    size = 8 * 30

    def job(self, key) -> Job:
        cmd, n = self.stratum_of(key)
        rng = self.rng(key)
        mu = [self._eigenvalue(rng) for _ in range(n)]
        texts = [coef_text(m.real, m.imag).strip("()") for m in mu]
        if cmd == "resonances":
            argv = ["resonances", f"--mu={','.join(texts)}", "--degree", str(rng.randint(3, 6)), "--json"]
        elif cmd == "centralizer":
            argv = ["centralizer", f"--mu={','.join(texts)}", "--degree", str(rng.randint(3, 5)),
                    "--x-window=-6,6", "--json"]
        elif cmd == "classify2":
            argv = ["classify2", f"--lambda={texts[0]}", "--json"]
        else:
            argv = ["classify3", f"--lambda={texts[0]}", f"--mu={texts[1]}", "--json"]
        degree = int(argv[argv.index("--degree") + 1]) if "--degree" in argv else None
        info = props(n, degree, cmd, max_im_den=max(m.imag.denominator for m in mu))
        return Job(f"resonance:{key}", info, lambda: cli_call(argv),
                   lambda rc, out: _check_resonance(rc, out, mu), argv=argv)

    @staticmethod
    def _eigenvalue(rng):
        """Real part a/b, |a| <= 3, b <= 3; imaginary part zero (a quarter
        of the time) or +-1/b with b up to 7."""
        re = _q(rng, 3, 3)
        im = Fraction(0) if rng.random() < 0.25 else Fraction(rng.choice((-1, 1)), rng.randint(1, 7))
        return _QI(re, im)


def _check_resonance(rc, text, mu):
    doc, failure = _cli_json(rc, text)
    if failure:
        return failure
    if doc["command"] == "centralizer" and doc["taylor_centralizer_ok"] is not True:
        return "centralizer check failed"
    w = doc.get("witness") if doc["command"] == "resonances" else None
    if w is not None:
        # <mu, K> recomputed here must be the witness's integer q >= 1
        re = sum((m.real * k for m, k in zip(mu, w["K"])), Fraction(0))
        im = sum((m.imag * k for m, k in zip(mu, w["K"])), Fraction(0))
        if im or re.denominator != 1 or re < 1 or re != w["q"]:
            return f"witness K={w['K']} pairs to {re}+{im}i, not q={w['q']}"
    return None


WORKLOADS = {c.name: c for c in (Sweep, Identities, Holonomy, Resonance)}
