"""Numeric holonomy: jet transport around the separatrix and leaf lifting.

The x-axis {z = 0} is invariant for an x-normalized field, and lifting the
unit circle through the leaves induces the return map of the transversal at
(1, 0).  Writing the field as x d/dx + B(x, z) d/dz, a path gamma(t) in the
punctured x-plane lifts by

    dz/dt = (gamma'(t)/gamma(t)) * B(gamma(t), z),

and for the base loop gamma(theta) = e^{2 pi i theta} the factor is just
2 pi i.  holonomy_jet() integrates this system on the truncated jet space
(coefficients of the map zeta -> z(theta) through total degree d), so the
theta = 1 state is the holonomy's polynomial jet; path_lift() integrates the
plain pointwise system.  Everything here is floating point: exact fields are
converted at entry, and tolerances are explicit: every entry point rejects a
tol that is not finite and positive with ValueError.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair on complex
state vectors; the jet right-hand side is polynomial with a handful of
coefficients at desk scale, so nothing fancier is warranted.
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
        """Composition self o other: substitute other's jets into self."""
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("jet shapes differ")
        pows = _PowerCache(other.coeffs, self.n, self.degree)
        out = {}
        for i in range(1, self.n + 1):
            acc = {}
            for K, c in self.coeffs.get(i, {}).items():
                prod = pows.monomial(K)
                for K2, c2 in prod.items():
                    acc[K2] = acc.get(K2, 0j) + c * c2
            out[i] = acc
        return HolonomyJet(self.n, self.degree, out, self.base_point)

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


class _PowerCache:
    """Truncated powers and monomials of a jet family, built on demand."""

    def __init__(self, coeffs, n, degree):
        self.n = n
        self.degree = degree
        self.base = [dict(coeffs.get(i, {})) for i in range(1, n + 1)]
        self._pows = {}

    def power(self, i: int, k: int):
        if k == 0:
            return {(0,) * self.n: 1.0 + 0j}
        key = (i, k)
        hit = self._pows.get(key)
        if hit is None:
            hit = _jet_mul(self.power(i, k - 1), self.base[i], self.degree)
            self._pows[key] = hit
        return hit

    def monomial(self, K):
        out = {(0,) * self.n: 1.0 + 0j}
        for i, k in enumerate(K):
            if k:
                out = _jet_mul(out, self.power(i, k), self.degree)
        return out


def _jet_mul(a, b, degree):
    out = {}
    for K1, c1 in a.items():
        d1 = sum(K1)
        for K2, c2 in b.items():
            if d1 + sum(K2) > degree:
                continue
            K = tuple(x + y for x, y in zip(K1, K2))
            out[K] = out.get(K, 0j) + c1 * c2
    return out


# --- numeric view of a field -------------------------------------------------


def _numeric_terms(X: VectorField):
    """Per direction: [(z-exponent M, [(x-exp, complex coeff), ...]), ...]."""
    out = []
    for i in range(X.n):
        terms = []
        for M, poly in X.b[i].terms():
            terms.append(
                (
                    M,
                    [
                        (e, c.as_complex() if hasattr(c, "as_complex") else complex(c))
                        for e, c in poly.terms()
                    ],
                )
            )
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
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _integrate(f, t0: float, t1: float, y0, tol: float, max_steps: int = 200_000,
               on_step=None):
    """Adaptive DP5(4) from t0 to t1 on a complex state vector."""
    if t1 == t0:
        return list(y0)
    span = t1 - t0
    t = t0
    y = list(y0)
    h = span / 16.0
    hmin = abs(span) * 1e-14
    steps = 0
    while (span > 0 and t < t1) or (span < 0 and t > t1):
        steps += 1
        if steps > max_steps:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        if (span > 0 and t + h > t1) or (span < 0 and t + h < t1):
            h = t1 - t
        ks = []
        for stage in range(7):
            ys = list(y)
            for idx, a in enumerate(_DP_A[stage]):
                if a != 0.0:
                    ys = [v + h * a * k for v, k in zip(ys, ks[idx])]
            ks.append(f(t + _DP_C[stage] * h, ys))
        y5 = list(y)
        y4 = list(y)
        for idx in range(7):
            b5, b4 = _DP_B5[idx], _DP_B4[idx]
            if b5 != 0.0:
                y5 = [v + h * b5 * k for v, k in zip(y5, ks[idx])]
            if b4 != 0.0:
                y4 = [v + h * b4 * k for v, k in zip(y4, ks[idx])]
        err = 0.0
        for v5, v4, v in zip(y5, y4, y):
            scale = tol + tol * max(abs(v), abs(v5))
            err = max(err, abs(v5 - v4) / scale)
        if err <= 1.0:
            t += h
            y = y5
            if on_step is not None:
                on_step(t, y)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) < hmin:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3g})")
    return y


# --- holonomy ----------------------------------------------------------------


def _jet_layout(n: int, degree: int):
    monos = [K for K in iter_exponents(n, 1, degree)]
    index = {}
    for i in range(1, n + 1):
        for K in monos:
            index[(i, K)] = len(index)
    return monos, index


def holonomy_jet(X: VectorField, degree: int, tol: float = 1e-10,
                 windings: int = 1) -> HolonomyJet:
    """Jet of the return map at (1, 0), lifting the unit circle `windings` times.

    Integrates dz/dtheta = 2 pi i w B(e^{2 pi i w theta}, z) on the truncated
    jet space, theta from 0 to 1, starting from the identity jet.
    """
    _require_x_normalized(X)
    _require_tol(tol)
    if degree < 1:
        raise ValueError("jet degree must be >= 1")
    n = X.n
    if degree > X.cap:
        raise ValueError("jet degree exceeds the field's truncation cap")
    terms = _numeric_terms(X)
    monos, index = _jet_layout(n, degree)
    factor = TWO_PI_I * windings

    def rhs(theta, y):
        x = cmath.exp(TWO_PI_I * windings * theta)
        jets = {
            i: {
                K: y[index[(i, K)]]
                for K in monos
                if y[index[(i, K)]] != 0
            }
            for i in range(1, n + 1)
        }
        pows = _PowerCache(jets, n, degree)
        out = [0j] * len(index)
        for i in range(1, n + 1):
            for M, xterms in terms[i - 1]:
                c = _eval_coeff(xterms, x)
                if c == 0:
                    continue
                prod = pows.monomial(M)
                for K, v in prod.items():
                    if sum(K) >= 1:
                        out[index[(i, K)]] += factor * c * v
        return out

    y0 = [0j] * len(index)
    ident = HolonomyJet.identity(n, degree)
    for (i, K), pos in index.items():
        y0[pos] = ident.coefficient(i, K)
    y1 = _integrate(rhs, 0.0, 1.0, y0, tol)
    coeffs = {i: {} for i in range(1, n + 1)}
    for (i, K), pos in index.items():
        if y1[pos] != 0:
            coeffs[i][K] = y1[pos]
    return HolonomyJet(n, degree, coeffs)


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
