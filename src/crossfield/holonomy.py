"""Numeric holonomy: jet transport around the separatrix and leaf lifting.

The x-axis {z = 0} is invariant for an x-normalized field, and lifting the
unit circle through the leaves induces the return map of the transversal at
(1, 0).  Writing the field as x d/dx + B(x, z) d/dz, a path gamma(t) in the
punctured x-plane lifts by

    dz/dt = (gamma'(t)/gamma(t)) * B(gamma(t), z),

and every path lifted here is x(t) = x0 e^{rate t} for t in [0, 1], on
which the factor gamma'/gamma is the constant rate.  For the base loop,
x0 = 1 and rate = 2 pi i.  holonomy_jet() integrates this system on the
truncated jet space (coefficients of the map zeta -> z(theta) through
total degree d), so the theta = 1 state is the holonomy's polynomial jet;
for w windings it integrates one turn and composes that jet with itself
|w| times.  path_lift() integrates the plain pointwise system, and
transport_conjugacy() lifts one such path each way.  Everything here is
floating point: exact fields are converted at entry, and tolerances are
explicit: every entry point rejects a tol that is not finite and positive
with ValueError.

A jet is one packed complex vector (_jet_layout): block i holds the
coefficients of z_i on the monomials of degree 1..d in grlex order.  A
HolonomyJet wraps that full vector, and the composition kernel reads and
writes it as it is; only a {i: {K: c}} input is converted, once, when the
jet is built.  Most entries of a holonomy jet are zero by construction:
block i can only reach the identity's e_i and the support of the field's
monomials z^M in direction i.  _jet_support closes that set, and the
integrator's state is the subvector on it; holonomy_jet scatters the
final state back into the full vector.  The jet right-hand side
(_jet_rhs) and the substitution behind HolonomyJet.after (_composer) are
compiled kernels: _jet_kernel writes straight-line Python for one field
or one jet, with the state unpacked into locals, every power
z_j^k = z_j^(k-1) z_j and every monomial z^M (its powers multiplied left
to right over j) built once, and each product entry written as
0j + A_a*B_b + ... over the left factor's positions a ascending.  Nothing
is compiled at import; the source names values by integer index only, and
coefficients enter through the exec namespace or as arguments.
_UNIT_PRODUCTS caps the products per compile unit and _SUM_TERMS the
terms per statement, so a dense field at the CLI's size budget builds in
bounded memory.

For finite states the kernels give the same floats, bit for bit, as the
interpreted loops they replaced: every sum keeps its order, and the only
terms dropped (entries zero by construction, off-support entries, runtime
zeros the loops skipped) are exact zeros.  A sum that starts at 0j is
never -0.0, and adding +-0 to it changes nothing, which is why each sum
keeps its 0j.  On the full vector the off-support entries would stay
exactly 0j and add 0 to the error norm, so the support-packed integration
takes the same steps and ends on the same floats.  The integrator is an
adaptive embedded Dormand-Prince 5(4) pair on complex state vectors, run
from t = 0 to t = 1, first-same-as-last: six right-hand side calls per
step.  Its stage arithmetic and error norm are, like the kernels,
straight-line Python (_dp5_step), compiled once per state width on first
use and kept for the process; every sum keeps the order of the loop it
replaced, so the floats are the same bit for bit.  Step-size control stays
in the Python loop.  A state or an error norm that is no longer finite (an
overflowing jet) raises IntegrationError.

The bit identity also rests on two facts of CPython's complex arithmetic,
which let the kernels do less work.  x**0 is exactly 1+0j for every x, so
_jet_rhs folds a field coefficient's x-free leading term when it builds
the kernel.  On CPython 3.10-3.13 a float g times a complex p is the
complex product of (g, 0.0) and p, so _dp5_step multiplies every stage by
a complex weight.
"""

from __future__ import annotations

import cmath
import math

from .lie import Automorphism, VectorField
from .series import iter_exponents

__all__ = [
    "HolonomyJet",
    "IntegrationError",
    "LeafEscapeError",
    "holonomy_jet",
    "path_lift",
    "conjugacy_residual",
    "transport_conjugacy",
]

TWO_PI_I = 2j * math.pi
# |windings| bound for holonomy_jet, an input check only: one turn is
# integrated and then composed, so the cost past the first turn is small
MAX_WINDINGS = 64
# path_lift's bound on |z|, and _integrate's step budget
_ESCAPE_RADIUS = 8.0
_MAX_STEPS = 200_000


class IntegrationError(ValueError):
    """Integration failed: step underflow, step budget, or a state or jet that
    is not finite (it overflowed).  It is a ValueError, so the CLI reports
    it as a usage error."""


class _NotFiniteError(IntegrationError):
    """An accepted integrator state that is not finite."""


class LeafEscapeError(RuntimeError):
    """The lifted leaf left the numerical domain (|z| exceeded the bound)."""


# --- jets -------------------------------------------------------------------


class HolonomyJet:
    """Polynomial jet z -> (sum_K c_{i,K} z^K)_i of a map of the transversal at x = 1.

    A jet is its packed vector in _jet_layout order: block i holds z_i's
    coefficients on the monomials of degree 1..degree in grlex order, the
    vector the composition kernel reads and writes (the integrator carries
    only its support, and holonomy_jet scatters it back).  A
    {i: {K: c}} input is packed once, here: a direction outside 1..n, an
    exponent that is not n nonnegative entries, or a constant term is an
    error, and terms past the degree drop out.
    """

    __slots__ = ("n", "degree", "vector")

    def __init__(self, n, degree, coeffs):
        _, index = _jet_layout(n, degree)
        self.vector = [0j] * len(index)
        for i, comp in coeffs.items():
            _require_direction(n, i)
            for K, c in comp.items():
                K = _require_exponent(n, i, K)
                if sum(K) == 0:
                    raise ValueError(f"jet component z{i} has a constant term")
                if sum(K) <= degree:
                    self.vector[index[(i, K)]] = complex(c)
        self.n = n
        self.degree = degree

    @classmethod
    def _wrap(cls, n, degree, vector):
        """The jet whose packed vector is `vector`, taken as it is."""
        jet = cls.__new__(cls)
        jet.n, jet.degree, jet.vector = n, degree, vector
        return jet

    @classmethod
    def identity(cls, n, degree):
        return cls(n, degree, {
            i: {tuple(int(p == i - 1) for p in range(n)): 1} for i in range(1, n + 1)
        })

    @classmethod
    def from_automorphism(cls, phi: Automorphism, degree: int):
        """Restrict an x-normalized automorphism to the transversal at x = 1."""
        return cls(phi.n, degree, {
            i: {K: poly.evaluate(1.0 + 0j) for K, poly in series.terms() if 1 <= sum(K) <= degree}
            for i, series in enumerate(phi.img_z, 1)
        })

    def _terms(self) -> list:
        """Per direction, the (K, c) of the nonzero entries in grlex order."""
        monos, _ = _jet_layout(self.n, self.degree)
        m = len(monos)
        return [
            [(K, c) for K, c in zip(monos, self.vector[lo:lo + m]) if c != 0]
            for lo in range(0, self.n * m, m)
        ]

    @property
    def coeffs(self) -> dict:
        """The nonzero entries as {i: {K: c}}, in grlex order; a new dict per access."""
        return {i: dict(comp) for i, comp in enumerate(self._terms(), 1)}

    def coefficient(self, i: int, K) -> complex:
        """The entry of z_i at z^K: 0j when |K| is 0 or past the degree, and
        the constructor's ValueError for a K or an i it would reject."""
        _require_direction(self.n, i)
        K = _require_exponent(self.n, i, K)
        pos = _jet_layout(self.n, self.degree)[1].get((i, K))
        return 0j if pos is None else self.vector[pos]

    def after(self, other: "HolonomyJet") -> "HolonomyJet":
        """Composition self o other: substitute other's jets into self.

        Runs the substitution kernel compiled from self's terms (_composer);
        terms past the degree drop out.
        """
        self._require_shape(other)
        return _composer(self)(other)

    def apply_point(self, z) -> tuple:
        z = [complex(v) for v in z]
        if len(z) != self.n:
            raise ValueError(f"expected {self.n} transverse coordinates, got {len(z)}")
        return tuple(_point_map(self._terms(), z))

    def max_abs_diff(self, other: "HolonomyJet") -> float:
        """The largest entry of |self - other|; NaN if any entry is NaN."""
        self._require_shape(other)
        diffs = [abs(a - b) for a, b in zip(self.vector, other.vector)]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs)

    def _require_shape(self, other: "HolonomyJet") -> None:
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("jet shapes differ")

    def __repr__(self):
        return f"HolonomyJet(n={self.n}, degree={self.degree}, {self.coeffs!r})"


def _require_direction(n: int, i) -> None:
    if i not in range(1, n + 1):
        raise ValueError(f"jet direction {i!r} is outside 1..{n}")


def _require_exponent(n: int, i, K) -> tuple:
    """K as a tuple, checked to be n nonnegative entries."""
    K = tuple(K)
    if len(K) != n or min(K) < 0:
        raise ValueError(f"jet component z{i} has exponent {K}; expected {n} nonnegative entries")
    return K


def _composer(f: HolonomyJet):
    """g -> f o g for jets g of f's shape, compiled once from f's terms.

    f's nonzero entries, in layout order, are the kernel's terms and enter as
    an argument; g's packed vector is the kernel's state.
    """
    n, degree = f.n, f.degree
    monos, index = _jet_layout(n, degree)
    comps = f._terms()
    coeffs = [c for comp in comps for _, c in comp]
    prog = _Program("cs, y", {})
    state = prog.unpack("y", len(index))
    cs = iter(prog.unpack("cs", len(coeffs)))
    terms = [[(K, next(cs)) for K, _ in comp] for comp in comps]
    kernel = _jet_kernel(prog, _product_rows(monos, degree), state, terms)

    def compose(g: HolonomyJet) -> HolonomyJet:
        return HolonomyJet._wrap(n, degree, kernel(coeffs, g.vector))

    return compose


# --- compiled jet kernels ----------------------------------------------------

# One compile unit holds about this many products and one statement at most
# this many summed terms: compile() needs memory per unit and recursion depth
# per chained "+" (it overflows between 2,000 and 5,000 terms).
_UNIT_PRODUCTS = 4096
_SUM_TERMS = 1024


class _Program:
    """Straight-line Python over single-assignment values v0, v1, ...

    Values are created in order and named by their index alone; constants
    enter through the namespace, never through the source text.  Every
    _UNIT_PRODUCTS products the pending statements are compiled as one unit:
    the first unit takes `params` and returns the list s of its values, each
    later unit loads what it uses from s and appends what it defines, and the
    last returns the outputs.
    """

    def __init__(self, params: str, namespace: dict):
        self.params = params
        self.namespace = namespace
        self.units = []
        self.lines = []
        self.loads = set()
        self.start = 0  # first value of the pending unit
        self.count = 0
        self.products = 0

    def ref(self, v) -> str:
        """Source name of value v (or of the namespace name v) in the pending unit."""
        if isinstance(v, str):
            return v
        if v < self.start:
            self.loads.add(v)
        return f"v{v}"

    def define(self, expr: str, products: int = 0) -> int:
        v = self.count
        self.count += 1
        self.lines.append(f"v{v} = {expr}")
        self.products += products
        if self.products >= _UNIT_PRODUCTS:
            self._compile(None)
        return v

    def unpack(self, source: str, count: int) -> range:
        values = range(self.count, self.count + count)
        if count:
            self.lines.append("".join(f"v{v}, " for v in values) + "= " + source)
            self.count += count
        return values

    def sum(self, pairs, wrap: str = "{}", start: str = "0j"):
        """The value wrap(start + a*b + ...) over (a, b) in order, or None for no pairs.

        Each statement sums at most _SUM_TERMS pairs; a longer sum goes on
        from the previous statement's value, left to right as before.
        """
        acc = None
        for lo in range(0, len(pairs), _SUM_TERMS):
            chunk = pairs[lo:lo + _SUM_TERMS]
            expr = (start if acc is None else self.ref(acc)) + "".join(
                f" + {self.ref(a)}*{self.ref(b)}" for a, b in chunk)
            if lo + _SUM_TERMS >= len(pairs):
                expr = wrap.format(expr)
            acc = self.define(expr, len(chunk))
        return acc

    def finish(self, outputs):
        """The kernel returning [outputs], with None for a structural zero."""
        self._compile(outputs)
        head, *rest = self.units
        if not rest:
            return head
        *middle, last = rest

        def run(*args):
            s = head(*args)
            for unit in middle:
                unit(s)
            return last(s)

        return run

    def _compile(self, outputs):
        first = not self.units
        if outputs is not None:
            tail = "return [" + ", ".join("0j" if v is None else self.ref(v) for v in outputs) + "]"
        elif first:
            tail = "return [" + ", ".join(f"v{v}" for v in range(self.count)) + "]"
        else:
            tail = "s += (" + "".join(f"v{v}, " for v in range(self.start, self.count)) + ")"
        source = "\n    ".join([
            f"def unit({self.params if first else 's'}):",
            *(f"v{v} = s[{v}]" for v in sorted(self.loads)),
            *self.lines,
            tail,
        ])
        exec(compile(source, "<holonomy kernel>", "exec"), self.namespace)
        self.units.append(self.namespace.pop("unit"))
        self.lines, self.loads = [], set()
        self.start, self.products = self.count, 0


def _product_rows(monos, degree: int) -> list:
    """Per position a of a packed block (monomials `monos`, grlex), the pairs
    (o, b) over the positions b with |K_a| + |K_b| <= degree, in grlex order:
    o is the position of K_a + K_b."""
    pos = {K: p for p, K in enumerate(monos)}
    return [
        [(pos[tuple(x + y for x, y in zip(Ka, Kb))], b)
         for b, Kb in enumerate(monos) if sum(Ka) + sum(Kb) <= degree]
        for Ka in monos
    ]


def _monomials(mul, blocks, exps) -> dict:
    """{M: z^M} for each M in exps (1 <= |M|) over the blocks z_j, under mul.

    Powers follow z_j^k = z_j^(k-1) z_j and z^M multiplies its powers left
    to right over j; every power and every distinct M is built once.
    """
    powers = [[block] for block in blocks]
    z = {}
    for M in exps:
        if M in z:
            continue
        acc = None
        for j, k in enumerate(M):
            if k:
                pw = powers[j]
                while len(pw) < k:
                    pw.append(mul(pw[-1], pw[0]))
                acc = pw[k - 1] if acc is None else mul(acc, pw[k - 1])
        z[M] = acc
    return z


def _jet_kernel(prog: _Program, rows, state, terms):
    """Finish prog as sum_t c_t z^{M_t} per direction over the packed state.

    rows is the _product_rows table of one block.  state holds the value of
    each state entry (blocks of len(rows) per direction), None for an entry
    that is zero by construction, and terms per direction the (M, value of
    c) of its terms in summation order.  The kernel returns the outputs at
    the positions whose state entry is not None, in layout order; every other
    output must be zero by construction, as it is when the None entries are
    off the jet's support (_jet_support).  A product entry is 0j + sum A_a B_b
    over the left factor's positions a ascending, and an output entry
    0j + sum c_t z^{M_t} over the terms; entries that are zero by
    construction (a None factor, or degree below the power or monomial) are
    left out.
    """
    m = len(rows)

    def mul(A, B):
        entries = [[] for _ in range(m)]
        for a, pairs in enumerate(rows):
            if A[a] is not None:
                for o, b in pairs:
                    if B[b] is not None:
                        entries[o].append((A[a], B[b]))
        return [prog.sum(pairs) for pairs in entries]

    blocks = [state[j * m:(j + 1) * m] for j in range(len(terms))]
    z = _monomials(mul, blocks, [M for comp in terms for M, _ in comp])
    return prog.finish([
        prog.sum([(c, z[M][p]) for M, c in comp if z[M][p] is not None])
        for j, comp in enumerate(terms) for p in range(m) if state[j * m + p] is not None
    ])


def _jet_support(rows, exps, y0) -> list:
    """Positions of the packed state that the jet ODE can make nonzero from y0.

    exps holds per direction the z-exponents M of the field's terms.  The
    support starts at y0's nonzero entries, and block i gains the support of
    z^M for each M of direction i (truncated by rows) until nothing changes;
    a full block gains nothing, so a dense field stops after one round.  The
    entries off the support stay exactly 0j under the kernel, which is why
    the integrator carries only these positions.
    """
    m = len(rows)

    def mul(A, B):
        return {o for a in A for o, b in rows[a] if b in B}

    supp = [{p for p in range(m) if y0[j * m + p]} for j in range(len(exps))]
    while True:
        grow = [j for j, s in enumerate(supp) if len(s) < m]
        z = _monomials(mul, supp, [M for j in grow for M in exps[j]])
        new = list(supp)
        for j in grow:
            new[j] = supp[j].union(*(z[M] for M in exps[j]))
        if new == supp:
            return [j * m + p for j, s in enumerate(supp) for p in sorted(s)]
        supp = new


# --- numeric view of a field -------------------------------------------------


def _numeric_terms(X: VectorField):
    """Per direction: [(z-exponent M, [(x-exp, complex coeff), ...]), ...]."""
    out = []
    for i in range(X.n):
        terms = []
        for M, poly in X.b[i].terms():
            terms.append((M, [(e, c.as_complex()) for e, c in poly.terms()]))
        out.append(terms)
    return out


def _require_x_normalized(X: VectorField):
    if not X.is_x_normalized():
        raise ValueError("holonomy requires an x-normalized field")


def _require_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _eval_coeff(xterms, x: complex) -> complex:
    acc = 0j
    for e, c in xterms:
        acc += c * x**e
    return acc


def _point_map(comps, z) -> list:
    """Per direction, 0j + sum c z^M over its (M, c) in order, zero c skipped."""
    out = []
    for comp in comps:
        acc = 0j
        for M, m in comp:
            if m == 0:
                continue
            for v, k in zip(z, M):
                for _ in range(k):
                    m *= v
            acc += m
        out.append(acc)
    return out


# --- Dormand-Prince 5(4) ------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# the last row doubles as the fifth-order weights (the seventh weight is 0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


_DP5_STEPS = {}  # state width -> its compiled step (_dp5_step)


def _dp5_step(m: int):
    """The DP5(4) step on states of width m, compiled on its first use.

    step(f, t, h, y, k1, tol) -> (err, y5, k7) is straight-line Python: the
    state unpacks into locals v{i}, stage k into p{k}_{i}, and the
    fifth-order solution into u{i}.  Each stage argument, y5 and each error
    ratio is the sum the loop it replaced wrote, in the same left-to-right
    order, so the floats are the same bit for bit; err is max over a list
    in state order, which keeps its NaN behaviour, and each max(av, au)
    inside a ratio is spelled au if au > av else av, which is what max
    returns, ties and NaN included.  f is called six times, the last on
    (t + h, y5).  The weights enter through the exec namespace as complex
    constants and h as complex(h), so each stage weight g is (g, 0.0) and
    each g * p is a complex product: the one a float g times p computes on
    CPython 3.10-3.13, without float's failed __mul__ first.
    """
    step = _DP5_STEPS.get(m)
    if step is not None:
        return step
    namespace = {f"a{s}_{k}": complex(a) for s, row in enumerate(_DP_A[1:], 2)
                 for k, a in enumerate(row, 1)}
    namespace.update({f"e{k}": complex(e) for k, e in enumerate(_DP_B4, 1)})
    namespace.update({f"c{s}": c for s, c in enumerate(_DP_C[1:5], 2)})

    def unpack(name, source):
        return "[" + ", ".join(f"{name}{i}" for i in range(m)) + "] = " + source

    def weights(ks, prefix):
        return ", ".join(f"g{k}" for k in ks) + " = " + ", ".join(f"hc * {prefix}{k}" for k in ks)

    def sums(ks):
        return [f"v{i}" + "".join(f" + g{k} * p{k}_{i}" for k in ks) for i in range(m)]

    lines = ["hc = complex(h)", unpack("v", "y"), unpack("p1_", "k1")]
    for s, at in enumerate(("c2 * h", "c3 * h", "c4 * h", "c5 * h", "h"), 2):
        ks = range(1, s)
        lines.append(weights(ks, f"a{s}_"))
        lines.append(unpack(f"p{s}_", f"f(t + {at}, [{', '.join(sums(ks))}])"))
    # the seventh stage's argument is the fifth-order solution; the last row
    # of _DP_A doubles as its weights, and both weight rows skip the zero k = 2
    ks = (1, 3, 4, 5, 6)
    lines += [weights(ks, "a7_"),
              f"y5 = [{', '.join(sums(ks))}]",
              "k7 = f(t + h, y5)",
              unpack("u", "y5"),
              unpack("p7_", "k7")]
    ks = (1, 3, 4, 5, 6, 7)
    lines.append(weights(ks, "e"))
    # max(av, au), spelled out: au only when it is strictly larger
    lines += [f"av{i}, au{i} = abs(v{i}), abs(u{i})" for i in range(m)]
    ratios = [f"abs(u{i} - ({est})) / (tol + tol * (au{i} if au{i} > av{i} else av{i}))"
              for i, est in enumerate(sums(ks))]
    lines.append(f"return max([{', '.join(ratios)}]), y5, k7")
    source = "\n    ".join(["def step(f, t, h, y, k1, tol):", *lines])
    exec(compile(source, "<dp5 step>", "exec"), namespace)
    step = _DP5_STEPS[m] = namespace["step"]
    return step


def _integrate(f, y0, tol: float, on_step=None):
    """Adaptive DP5(4) from t = 0 to t = 1 on a complex state vector.

    The first step tries h = 1/16; a step is clipped to end at t = 1, and h
    below 1e-14 or more than _MAX_STEPS steps is an IntegrationError.  The
    pair is first-same-as-last: the seventh stage is f(t + h, y5), so an
    accepted step hands it on as the next step's first stage and a rejected
    step keeps its own, and a run of s steps costs 6 s + 1 calls of f.  The
    stage arithmetic and the error norm run in the straight-line step
    compiled once per state width (_dp5_step); step-size control, the step
    budget and on_step stay here.  An error norm that is NaN (a stage
    overflowed) or an accepted state that is not finite raises
    _NotFiniteError, an IntegrationError; a finite run never has a NaN norm.
    """
    t = 0.0
    y = list(y0)
    h = 1 / 16
    steps = 0
    step = _dp5_step(len(y))
    k1 = f(t, y)
    while t < 1.0:
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        if t + h > 1.0:
            h = 1.0 - t
        # f never mutates its state argument, so the stages share y and k1
        err, y5, k7 = step(f, t, h, y, k1, tol)
        if math.isnan(err) or err <= 1.0 and not all(map(cmath.isfinite, y5)):
            raise _NotFiniteError(f"state is not finite at t={t + h:.6g}")
        if err <= 1.0:
            t += h
            y = y5
            k1 = k7
            if on_step is not None:
                on_step(t, y)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3g})")
    return y


# --- holonomy ----------------------------------------------------------------


def _jet_layout(n: int, degree: int):
    """Packed jet state: block i holds z_i's coefficients on `monos` (grlex)."""
    monos = [K for K in iter_exponents(n, 1, degree)]
    index = {}
    for i in range(1, n + 1):
        for K in monos:
            index[(i, K)] = len(index)
    return monos, index


def _jet_rhs(X: VectorField, degree: int, windings: int):
    """Right-hand side of the jet ODE on the support of the packed state.

    Returns (support, rhs).  support lists, in layout order, the positions
    of _jet_layout that the ODE can make nonzero from the identity jet
    (_jet_support); rhs maps the state on those positions to its derivative
    there.  dz/dtheta = 2 pi i w B(e^{2 pi i w theta}, z) is compiled by
    _jet_kernel with None at every other position: per call
    x = e^{2 pi i w theta}, each x**e once, each field coefficient
    2 pi i w (0j + sum k x**e), then each field monomial z^M once for all
    directions, summed into the block of its direction in field order.

    x**0 is exactly 1+0j for every x, so a sum whose first term (in
    ascending x-exponent) is k x**0 starts from the constant 0j + k*(1+0j),
    computed here with the same operations, and a coefficient with no other
    term is the constant 2 pi i w (0j + k*(1+0j)).  x is computed only when
    some term still needs it.  Every other x**e stays a power: x**1 is not
    bitwise x when x has a -0.0 part.
    """
    monos, index = _jet_layout(X.n, degree)
    rows = _product_rows(monos, degree)
    # terms of degree 0 or past the jet degree leave no trace in degrees 1..d
    comps = [[(M, xterms) for M, xterms in comp if xterms and 1 <= sum(M) <= degree]
             for comp in _numeric_terms(X)]
    support = _jet_support(rows, [[M for M, _ in comp] for comp in comps],
                           HolonomyJet.identity(X.n, degree).vector)
    f = TWO_PI_I * windings
    namespace = {"exp": cmath.exp, "f": f}
    prog = _Program("theta, y", namespace)
    state = [None] * len(index)
    for p, v in zip(support, prog.unpack("y", len(support))):
        state[p] = v

    consts = []

    def const(value) -> str:
        name = f"k{len(consts)}"
        consts.append(value)
        namespace[name] = value
        return name

    x, x_pows = None, {}
    terms = []
    for comp in comps:
        row = []
        for M, xterms in comp:
            (e, c), *rest = xterms
            start = "0j"
            if e == 0:
                # x**0 is 1+0j for every x, so the sum's first step is known
                first = 0j + c * (1 + 0j)
                if not rest:
                    row.append((M, const(f * first)))
                    continue
                start, xterms = const(first), rest
            pairs = []
            for e, c in xterms:
                if e not in x_pows:
                    if x is None:
                        x = prog.define("exp(f * theta)")
                    x_pows[e] = prog.define(f"{prog.ref(x)}**{int(e)}")
                pairs.append((const(c), x_pows[e]))
            row.append((M, prog.sum(pairs, "f * ({})", start)))
        terms.append(row)
    return support, _jet_kernel(prog, rows, state, terms)


def _require_windings(windings) -> None:
    if (isinstance(windings, bool) or not isinstance(windings, int)
            or not 0 < abs(windings) <= MAX_WINDINGS):
        raise ValueError(
            f"windings must be a nonzero integer with |windings| <= {MAX_WINDINGS}, "
            f"got {windings!r}"
        )


def holonomy_jet(X: VectorField, degree: int, tol: float = 1e-10,
                 windings: int = 1) -> HolonomyJet:
    """Jet of the return map at (1, 0), lifting the unit circle `windings` times.

    Integrates dz/dtheta = 2 pi i s B(e^{2 pi i s theta}, z), s = sign(windings),
    on the truncated jet space, theta from 0 to 1, starting from the identity
    jet: one turn, run backwards for a negative windings.  That jet is then
    composed with itself |windings| times; truncating to the degree commutes
    with composing maps that fix 0, so this is the jet of the |windings|-fold
    return map.  windings is a nonzero integer with |windings| <= MAX_WINDINGS.
    """
    _require_x_normalized(X)
    _require_tol(tol)
    _require_windings(windings)
    if degree < 1:
        raise ValueError("jet degree must be >= 1")
    if degree > X.cap:
        raise ValueError(
            f"jet degree {degree} exceeds the field's truncation degree {X.cap}"
        )
    sign = 1 if windings > 0 else -1
    support, rhs = _jet_rhs(X, degree, sign)
    vector = HolonomyJet.identity(X.n, degree).vector
    try:
        y1 = _integrate(rhs, [vector[p] for p in support], tol)
    except _NotFiniteError as e:
        raise IntegrationError(f"{e}{_overflow_note(X, sign)}") from None
    for p, v in zip(support, y1):
        vector[p] = v
    jet = turn = HolonomyJet._wrap(X.n, degree, vector)
    if abs(windings) > 1:
        # jet = turn.after(jet), with turn's substitution compiled once
        after_turn = _composer(turn)
        for _ in range(abs(windings) - 1):
            jet = after_turn(jet)
        if not all(map(cmath.isfinite, jet.vector)):
            raise IntegrationError(f"the {abs(windings)}-fold jet is not finite"
                                   + _overflow_note(X, windings))
    return jet


def _overflow_note(X: VectorField, windings: int) -> str:
    """The largest linear jet entry predicted for `windings` turns, as text.

    With a triangular linear part the entry of z_j at z_j is
    e^(2 pi i w mu_j), of modulus e^(-2 pi w Im mu_j): written as a power
    of ten, which tells how far past the largest float (about 10^308) the
    jet went.  Empty when the linear part is not triangular.
    """
    A = X.constant_linear_matrix()
    n = len(A)
    if any(A[i][j] for i in range(n) for j in range(i)) and any(
            A[i][j] for j in range(n) for i in range(j)):
        return ""
    tens = [-2 * math.pi * windings * A[j][j].as_complex().imag / math.log(10)
            for j in range(n)]
    j = max(range(n), key=tens.__getitem__)
    return (f"; z{j + 1}'s linear entry |e^(2 pi i w mu_{j + 1})| = e^(-2 pi w Im mu_{j + 1})"
            f" is predicted at about 10^{tens[j]:.0f} for w = {windings}")


def path_lift(X: VectorField, start, rate: complex, tol: float = 1e-10):
    """Lift x(t) = x0 e^(rate t), t from 0 to 1, through the leaves from start = (x0, z0).

    x follows the path exactly; z integrates dz/dt = rate B(x(t), z), since
    x'/x = rate on this path.  Returns (x(1), z(1)).  Both endpoints must be
    nonzero and finite (ValueError); |x(t)| is monotone between them, so the
    path avoids x = 0.  Raises LeafEscapeError when |z| passes
    _ESCAPE_RADIUS.
    """
    _require_x_normalized(X)
    _require_tol(tol)
    x0, z0 = start
    x0, rate = complex(x0), complex(rate)
    z0 = tuple(complex(v) for v in z0)
    if len(z0) != X.n:
        raise ValueError(f"expected {X.n} transverse coordinates")
    try:
        x1 = x0 * cmath.exp(rate)
    except OverflowError:
        x1 = math.inf
    if not (x0 and x1 and cmath.isfinite(x0) and cmath.isfinite(x1)):
        raise ValueError(f"path endpoints must be nonzero and finite, got {x0} and {x1}")
    terms = _numeric_terms(X)

    def rhs(t, z):
        x = x0 * cmath.exp(rate * t)
        coeffs = [[(M, _eval_coeff(xterms, x)) for M, xterms in comp] for comp in terms]
        return [rate * v for v in _point_map(coeffs, z)]

    def watch(t, z):
        if max(abs(v) for v in z) > _ESCAPE_RADIUS:
            raise LeafEscapeError(f"leaf escaped (|z| > {_ESCAPE_RADIUS}) at t={t:.6g}")

    return x1, tuple(_integrate(rhs, list(z0), tol, on_step=watch))


def conjugacy_residual(X: VectorField, psi: Automorphism, degree: int,
                       tol: float = 1e-10) -> float:
    """Size of the holonomy conjugation defect for Y = psi.pushforward(X).

    The transversal restriction p of psi satisfies p o h_Y = h_X o p when psi
    really conjugates the fields (pushforward here is operator conjugation,
    which is the geometric pushforward along the inverse point map); the
    returned value is the max coefficient magnitude of the difference jet
    through `degree`.

    For the order-5 pair used here the residual stays below roughly 1e4*tol
    for fields and maps with coefficients of order one and |e^{2 pi i mu}|
    of order one; large |Im mu| inflates the jet entries and the absolute
    residual with them.
    """
    _require_x_normalized(X)
    _require_tol(tol)
    if not psi.is_x_normalized():
        raise ValueError("conjugacy check requires an x-normalized automorphism")
    Y = psi.pushforward(X)
    h_x = holonomy_jet(X, degree, tol)
    h_y = holonomy_jet(Y, degree, tol)
    p = HolonomyJet.from_automorphism(psi, degree)
    lhs = p.after(h_y)
    rhs = h_x.after(p)
    return lhs.max_abs_diff(rhs)


def transport_conjugacy(X: VectorField, Y: VectorField, phi: HolonomyJet,
                        point, tol: float = 1e-10, extra_windings: int = 0):
    """Evaluate the path-composed conjugating map at one point.

    phi must conjugate X's holonomy to Y's (phi o h_X = h_Y o phi).  The
    point (x0, z0) is lifted through X's leaves to x = 1 along one path
    x0 e^(rate t) with rate = -ln|x0| - i (arg x0 + 2 pi extra_windings),
    arg x0 in [0, 2 pi): the radial path to |x| = 1 followed by the rotation
    to x = 1, up to homotopy.  It is then mapped by phi on the transversal
    and lifted back through Y's leaves from x = 1 with -rate.  A rate of 0
    lifts nothing.  extra_windings, an int, adds full turns to the path; if
    phi fails to conjugate the holonomies the result depends on that choice,
    which is the detection mechanism.

    When phi is the jet of a degree-d algebraic conjugation, the two fields
    are conjugated only modulo m^{d+1}, so the transport agrees with the jet
    up to O(|z|^{d+1}) amplified by the linear dynamics along the path; pick
    |z| small enough that this dominates the integrator tolerance but not
    the comparison threshold.
    """
    _require_tol(tol)
    if isinstance(extra_windings, bool) or not isinstance(extra_windings, int):
        raise ValueError(f"extra_windings must be an integer, got {extra_windings!r}")
    for F in (X, Y):
        _require_x_normalized(F)
    if not phi.n == X.n == Y.n:
        raise ValueError(f"phi, X and Y must share n, got {phi.n}, {X.n} and {Y.n}")
    x0, z0 = point
    x0 = complex(x0)
    z = tuple(complex(v) for v in z0)
    if x0 == 0:
        raise ValueError("the transport point must avoid x = 0")
    turn = cmath.phase(x0) % (2 * math.pi) + 2 * math.pi * extra_windings
    rate = complex(-math.log(abs(x0)), -turn)
    if rate:
        _, z = path_lift(X, (x0, z), rate, tol)
    z = phi.apply_point(z)
    if rate:
        _, z = path_lift(Y, (1.0 + 0j, z), -rate, tol)
    return x0, z
