"""Numeric holonomy: jet transport around the separatrix and leaf lifting.

The x-axis {z = 0} is invariant for an x-normalized field, and lifting the
unit circle through the leaves induces the return map of the transversal at
(1, 0).  Writing the field as x d/dx + B(x, z) d/dz, a path gamma(t) in the
punctured x-plane lifts by

    dz/dt = (gamma'(t)/gamma(t)) * B(gamma(t), z),

and for the base loop gamma(theta) = e^{2 pi i theta} the factor is just
2 pi i.  holonomy_jet() integrates this system on the truncated jet space
(coefficients of the map zeta -> z(theta) through total degree d), so the
theta = 1 state is the holonomy's polynomial jet; for w windings it
integrates one turn and composes that jet with itself |w| times.
path_lift() integrates the plain pointwise system.  Everything here is
floating point: exact fields are converted at entry, and tolerances are
explicit: every entry point rejects a tol that is not finite and positive
with ValueError.

The jet state is one packed complex vector (_jet_layout): block i holds the
coefficients of z_i on the monomials of degree 1..d in grlex order.  Jets are
multiplied through a product table built once per call (_product_table):
for each position a, the positions b with |K_a| + |K_b| <= d and the position
of K_a + K_b.  _dense_mul runs that table, and _monomials builds z^M from
powers z_j^k = z_j^(k-1) z_j; the jet right-hand side and HolonomyJet.after
share both.  The integrator is an adaptive embedded Dormand-Prince 5(4) pair
on complex state vectors, first-same-as-last: six right-hand side calls per
step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .lie import Automorphism, VectorField
from .series import iter_exponents

__all__ = [
    "HolonomyJet",
    "PathSpec",
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


class IntegrationError(RuntimeError):
    """Adaptive step-size control failed (step underflow or step budget)."""


class LeafEscapeError(RuntimeError):
    """The lifted leaf left the numerical domain (|z| exceeded the bound)."""


# --- jets -------------------------------------------------------------------


class HolonomyJet:
    """Polynomial jet of a transversal map: per direction, {K: complex}.

    Keys K are z-exponent tuples with 1 <= |K| <= degree; the map is
    z -> (sum_K coeffs[i][K] z^K)_i, based at x = base_point.
    """

    __slots__ = ("n", "degree", "coeffs", "base_point")

    def __init__(self, n, degree, coeffs, base_point=1.0 + 0j):
        self.n = n
        self.degree = degree
        self.coeffs = {
            i: {K: complex(c) for K, c in comp.items() if c != 0}
            for i, comp in coeffs.items()
        }
        self.base_point = complex(base_point)

    @classmethod
    def identity(cls, n, degree):
        return cls(
            n,
            degree,
            {
                i: {tuple(1 if p == i - 1 else 0 for p in range(n)): 1.0 + 0j}
                for i in range(1, n + 1)
            },
        )

    @classmethod
    def from_automorphism(cls, phi: Automorphism, degree: int, x: complex = 1.0 + 0j):
        """Restrict an x-normalized automorphism to the transversal at x."""
        coeffs = {}
        for i in range(1, phi.n + 1):
            comp = {}
            for K, poly in phi.img_z[i - 1].terms():
                if 1 <= sum(K) <= degree:
                    v = poly.evaluate(x)
                    if v != 0:
                        comp[K] = v
            coeffs[i] = comp
        return cls(phi.n, degree, coeffs, base_point=x)

    def coefficient(self, i: int, K) -> complex:
        return self.coeffs.get(i, {}).get(tuple(K), 0j)

    def linear_matrix(self):
        out = []
        for i in range(1, self.n + 1):
            row = []
            for j in range(self.n):
                K = tuple(1 if p == j else 0 for p in range(self.n))
                row.append(self.coefficient(i, K))
            out.append(row)
        return out

    def after(self, other: "HolonomyJet") -> "HolonomyJet":
        """Composition self o other: substitute other's jets into self.

        other is packed into the dense blocks of _jet_layout and each monomial
        of self is built once through the product table; terms past the
        degree drop out.  Neither jet may have a constant term.
        """
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("jet shapes differ")
        n, degree = self.n, self.degree
        monos, _ = _jet_layout(n, degree)
        m = len(monos)
        pos = {K: p for p, K in enumerate(monos)}
        blocks = [_pack(other.coeffs.get(i, {}), pos, degree) for i in range(1, n + 1)]
        terms = [_pack_terms(self.coeffs.get(i, {}), degree) for i in range(1, n + 1)]
        z_K = _monomials(_product_table(monos, degree), m, blocks,
                         [K for comp in terms for K, _ in comp])
        out = {}
        for i, comp in enumerate(terms, 1):
            acc = [0j] * m
            for K, c in comp:
                for o, v in enumerate(z_K[K]):
                    if v:
                        acc[o] += c * v
            out[i] = dict(zip(monos, acc))
        return HolonomyJet(n, degree, out, self.base_point)

    def apply_point(self, z) -> tuple:
        z = tuple(complex(v) for v in z)
        out = []
        for i in range(1, self.n + 1):
            acc = 0j
            for K, c in self.coeffs.get(i, {}).items():
                m = c
                for v, k in zip(z, K):
                    for _ in range(k):
                        m *= v
                acc += m
            out.append(acc)
        return tuple(out)

    def max_abs_diff(self, other: "HolonomyJet") -> float:
        keys = set()
        for i in range(1, self.n + 1):
            keys |= {(i, K) for K in self.coeffs.get(i, {})}
            keys |= {(i, K) for K in other.coeffs.get(i, {})}
        best = 0.0
        for i, K in keys:
            best = max(best, abs(self.coefficient(i, K) - other.coefficient(i, K)))
        return best

    def __repr__(self):
        return f"HolonomyJet(n={self.n}, degree={self.degree}, {self.coeffs!r})"


def _pack_terms(comp, degree):
    """The (K, c) of a jet component with |K| <= degree; a constant term is an error."""
    out = []
    for K, c in comp.items():
        d = sum(K)
        if d == 0:
            raise ValueError("jets with a constant term cannot be composed")
        if d <= degree:
            out.append((K, c))
    return out


def _pack(comp, pos, degree):
    """Dense block of a jet component over the grlex positions `pos`."""
    block = [0j] * len(pos)
    for K, c in _pack_terms(comp, degree):
        block[pos[K]] = c
    return block


def _product_table(monos, degree):
    """Rows (a, [(o, b), ...]) of the truncated product of two packed blocks.

    monos lists the monomials of degree 1..degree in grlex order; position a
    pairs with every b with |K_a| + |K_b| <= degree, and o is the position of
    K_a + K_b.  Rows and pairs both run in grlex order.
    """
    pos = {K: p for p, K in enumerate(monos)}
    rows = []
    for a, Ka in enumerate(monos):
        room = degree - sum(Ka)
        pairs = [
            (pos[tuple(x + y for x, y in zip(Ka, Kb))], b)
            for b, Kb in enumerate(monos)
            if sum(Kb) <= room
        ]
        if pairs:
            rows.append((a, pairs))
    return rows


def _dense_mul(rows, A, B, m):
    """Truncated product of the packed blocks A and B (length m), a outer, b inner."""
    r = [0j] * m
    for a, pairs in rows:
        x = A[a]
        if x:
            for o, b in pairs:
                r[o] += x * B[b]
    return r


def _monomials(rows, m, blocks, exps):
    """Dense z^M over the packed blocks z_j, for each exponent tuple M in exps.

    Each M needs 1 <= |M|.  Powers follow z_j^k = z_j^(k-1) z_j, z^M
    multiplies its powers left to right over j, and every power and every
    distinct M is built once.
    """
    powers = [[z] for z in blocks]
    out = {}
    for M in exps:
        if M in out:
            continue
        acc = None
        for j, k in enumerate(M):
            if k:
                pw = powers[j]
                while len(pw) < k:
                    pw.append(_dense_mul(rows, pw[-1], pw[0], m))
                acc = pw[k - 1] if acc is None else _dense_mul(rows, acc, pw[k - 1], m)
        out[M] = acc
    return out


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


def _point_rhs(terms, x: complex, z) -> list:
    out = []
    for comp in terms:
        acc = 0j
        for M, xterms in comp:
            m = _eval_coeff(xterms, x)
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


def _integrate(f, t0: float, t1: float, y0, tol: float, max_steps: int = 200_000,
               on_step=None):
    """Adaptive DP5(4) from t0 to t1 on a complex state vector.

    The pair is first-same-as-last: the seventh stage is f(t + h, y5), so an
    accepted step hands it on as the next step's first stage and a rejected
    step keeps its own, and a run of s steps costs 6 s + 1 calls of f.  Each
    stage argument and the pair (y4, error norm) take one pass over the
    state, summing the terms left to right in stage order.
    """
    if t1 == t0:
        return list(y0)
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _DP_A[1:]
    e1, _, e3, e4, e5, e6, e7 = _DP_B4
    c2, c3, c4, c5 = _DP_C[1:5]
    span = t1 - t0
    t = t0
    y = list(y0)
    h = span / 16.0
    hmin = abs(span) * 1e-14
    steps = 0
    k1 = f(t, y)
    while (span > 0 and t < t1) or (span < 0 and t > t1):
        steps += 1
        if steps > max_steps:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        if (span > 0 and t + h > t1) or (span < 0 and t + h < t1):
            h = t1 - t
        # f never mutates its state argument, so the stages share y and k1
        g1 = h * a21
        k2 = f(t + c2 * h, [v + g1 * p1 for v, p1 in zip(y, k1)])
        g1, g2 = h * a31, h * a32
        k3 = f(t + c3 * h, [v + g1 * p1 + g2 * p2 for v, p1, p2 in zip(y, k1, k2)])
        g1, g2, g3 = h * a41, h * a42, h * a43
        k4 = f(t + c4 * h, [v + g1 * p1 + g2 * p2 + g3 * p3
                            for v, p1, p2, p3 in zip(y, k1, k2, k3)])
        g1, g2, g3, g4 = h * a51, h * a52, h * a53, h * a54
        k5 = f(t + c5 * h, [v + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4
                            for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
        g1, g2, g3, g4, g5 = h * a61, h * a62, h * a63, h * a64, h * a65
        k6 = f(t + h, [v + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4 + g5 * p5
                       for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
        # the seventh stage's argument is the fifth-order solution
        g1, g3, g4, g5, g6 = h * b1, h * b3, h * b4, h * b5, h * b6
        y5 = [v + g1 * p1 + g3 * p3 + g4 * p4 + g5 * p5 + g6 * p6
              for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, y5)
        g1, g3, g4, g5, g6, g7 = h * e1, h * e3, h * e4, h * e5, h * e6, h * e7
        # the max starts from 0.0 and runs left to right, so NaN entries are skipped
        err = max([0.0, *(
            abs(u - (v + g1 * p1 + g3 * p3 + g4 * p4 + g5 * p5 + g6 * p6 + g7 * p7))
            / (tol + tol * max(abs(v), abs(u)))
            for v, u, p1, p3, p4, p5, p6, p7 in zip(y, y5, k1, k3, k4, k5, k6, k7)
        )])
        if err <= 1.0:
            t += h
            y = y5
            k1 = k7
            if on_step is not None:
                on_step(t, y)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) < hmin:
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
    """Right-hand side of the jet ODE on the packed state of _jet_layout.

    dz/dtheta = 2 pi i w B(e^{2 pi i w theta}, z): per call the n blocks are
    sliced out of the state, each field monomial z^M with a nonzero
    coefficient at this theta is built once for all directions, and
    2 pi i w c times it is added into the block of its direction.
    """
    n = X.n
    monos, _ = _jet_layout(n, degree)
    m = len(monos)
    rows = _product_table(monos, degree)
    factor = TWO_PI_I * windings
    # terms of degree 0 or past the jet degree leave no trace in degrees 1..d
    plan = [
        (i * m, [(M, xterms) for M, xterms in comp if 1 <= sum(M) <= degree])
        for i, comp in enumerate(_numeric_terms(X))
    ]

    def rhs(theta, y):
        x = cmath.exp(TWO_PI_I * windings * theta)
        scaled = []
        for off, comp in plan:
            for M, xterms in comp:
                c = _eval_coeff(xterms, x)
                if c != 0:
                    scaled.append((off, M, factor * c))
        blocks = [y[off:off + m] for off in range(0, n * m, m)]
        z_M = _monomials(rows, m, blocks, [M for _, M, _ in scaled])
        out = [0j] * (n * m)
        for off, M, fc in scaled:
            for o, v in enumerate(z_M[M], off):
                if v:
                    out[o] += fc * v
        return out

    return rhs


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
    n = X.n
    if degree > X.cap:
        raise ValueError("jet degree exceeds the field's truncation cap")
    _, index = _jet_layout(n, degree)
    y0 = [0j] * len(index)
    ident = HolonomyJet.identity(n, degree)
    for (i, K), pos in index.items():
        y0[pos] = ident.coefficient(i, K)
    y1 = _integrate(_jet_rhs(X, degree, 1 if windings > 0 else -1), 0.0, 1.0, y0, tol)
    coeffs = {i: {} for i in range(1, n + 1)}
    for (i, K), pos in index.items():
        if y1[pos] != 0:
            coeffs[i][K] = y1[pos]
    turn = HolonomyJet(n, degree, coeffs)
    jet = turn
    for _ in range(abs(windings) - 1):
        jet = turn.after(jet)
    return jet


@dataclass
class PathSpec:
    """Sampled curve in the punctured x-plane with step-size control.

    gamma maps [t0, t1] to C \\ {0}; dgamma may be omitted (central
    differences are used).  escape_radius bounds |z| during lifts and
    min_modulus guards against paths that graze x = 0.
    """

    gamma: object
    dgamma: object = None
    t0: float = 0.0
    t1: float = 1.0
    escape_radius: float = 8.0
    min_modulus: float = 1e-9
    max_steps: int = 200_000

    @classmethod
    def circle(cls, windings: float = 1.0, radius: float = 1.0, phase: float = 0.0):
        w = complex(TWO_PI_I * windings)

        def gamma(t):
            return radius * cmath.exp(1j * phase + w * t)

        def dgamma(t):
            return w * gamma(t)

        return cls(gamma=gamma, dgamma=dgamma)

    @classmethod
    def segment_log(cls, x0: complex, x1: complex):
        """Path x0 -> x1 along x0 * (x1/x0)^t (constant logarithmic speed)."""
        x0 = complex(x0)
        x1 = complex(x1)
        if x0 == 0 or x1 == 0:
            raise ValueError("path endpoints must avoid x = 0")
        rate = cmath.log(x1 / x0)

        def gamma(t):
            return x0 * cmath.exp(rate * t)

        def dgamma(t):
            return rate * gamma(t)

        return cls(gamma=gamma, dgamma=dgamma)

    def reversed(self) -> "PathSpec":
        g, dg = self.gamma, self.dgamma
        t0, t1 = self.t0, self.t1

        def gamma(t):
            return g(t0 + t1 - t)

        dgamma = None
        if dg is not None:

            def dgamma(t):  # noqa: F811
                return -dg(t0 + t1 - t)

        return PathSpec(
            gamma=gamma,
            dgamma=dgamma,
            t0=t0,
            t1=t1,
            escape_radius=self.escape_radius,
            min_modulus=self.min_modulus,
            max_steps=self.max_steps,
        )

    def derivative(self, t: float) -> complex:
        if self.dgamma is not None:
            return self.dgamma(t)
        h = max(1e-7, 1e-7 * abs(self.t1 - self.t0))
        return (self.gamma(t + h) - self.gamma(t - h)) / (2 * h)


def path_lift(X: VectorField, start, path: PathSpec, tol: float = 1e-10):
    """Lift `path` through the leaves from start = (x0, z0).

    x follows the path exactly; z integrates dz/dt = (gamma'/gamma) B(gamma, z).
    Returns (gamma(t1), z(t1)).  Raises LeafEscapeError when |z| leaves the
    path's escape radius.
    """
    _require_x_normalized(X)
    _require_tol(tol)
    x0, z0 = start
    z0 = tuple(complex(v) for v in z0)
    if len(z0) != X.n:
        raise ValueError(f"expected {X.n} transverse coordinates")
    g0 = path.gamma(path.t0)
    if abs(complex(x0) - g0) > 1e-9 * max(1.0, abs(g0)):
        raise ValueError("start point does not sit on the path")
    terms = _numeric_terms(X)

    def rhs(t, z):
        x = path.gamma(t)
        if abs(x) < path.min_modulus:
            raise LeafEscapeError("path entered the forbidden disk around x = 0")
        rate = path.derivative(t) / x
        vals = _point_rhs(terms, x, z)
        return [rate * v for v in vals]

    def watch(t, z):
        if max(abs(v) for v in z) > path.escape_radius:
            raise LeafEscapeError(f"leaf escaped (|z| > {path.escape_radius}) at t={t:.6g}")

    z1 = _integrate(rhs, path.t0, path.t1, list(z0), tol,
                    max_steps=path.max_steps, on_step=watch)
    return path.gamma(path.t1), tuple(z1)


def conjugacy_residual(X: VectorField, psi: Automorphism, degree: int,
                       tol: float = 1e-10) -> float:
    """Size of the holonomy conjugation defect for Y = pushforward(psi, X).

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
    p = HolonomyJet.from_automorphism(psi, degree, x=1.0 + 0j)
    lhs = p.after(h_y)
    rhs = h_x.after(p)
    return lhs.max_abs_diff(rhs)


def transport_conjugacy(X: VectorField, Y: VectorField, phi: HolonomyJet,
                        point, tol: float = 1e-10, extra_windings: int = 0):
    """Evaluate the path-composed conjugating map at one point.

    phi must conjugate X's holonomy to Y's (phi o h_X = h_Y o phi).  The
    point (x0, z0) is lifted through X's leaves radially to |x| = 1, rotated
    to x = 1, mapped by phi on the transversal, then lifted back through Y's
    leaves along the reversed rotation and radial paths.  extra_windings adds
    full turns to the rotation; if phi fails to conjugate the holonomies the
    result depends on that choice, which is the detection mechanism.

    When phi is the jet of a degree-d algebraic conjugation, the two fields
    are conjugated only modulo m^{d+1}, so the transport agrees with the jet
    up to O(|z|^{d+1}) amplified by the linear dynamics along the path; pick
    |z| small enough that this dominates the integrator tolerance but not
    the comparison threshold.
    """
    x0, z0 = point
    x0 = complex(x0)
    z = tuple(complex(v) for v in z0)
    if x0 == 0:
        raise ValueError("the transport point must avoid x = 0")
    u0 = x0 / abs(x0)
    theta0 = cmath.phase(u0) % (2 * math.pi)
    radial = None
    if abs(abs(x0) - 1.0) > 1e-15:
        radial = PathSpec.segment_log(x0, u0)
        _, z = path_lift(X, (x0, z), radial, tol)
    total = theta0 + 2 * math.pi * extra_windings
    if total != 0.0:

        def gamma(t, _u0=u0, _total=total):
            return _u0 * cmath.exp(-1j * _total * t)

        def dgamma(t, _u0=u0, _total=total):
            return -1j * _total * _u0 * cmath.exp(-1j * _total * t)

        beta = PathSpec(gamma=gamma, dgamma=dgamma)
        _, z = path_lift(X, (u0, z), beta, tol)
    else:
        beta = None
    z = phi.apply_point(z)
    if beta is not None:
        _, z = path_lift(Y, (1.0 + 0j, z), beta.reversed(), tol)
    if radial is not None:
        _, z = path_lift(Y, (u0, z), radial.reversed(), tol)
    return x0, z
