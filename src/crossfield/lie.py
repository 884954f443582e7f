"""Derivations and automorphisms of the truncated series ring.

A :class:`VectorField` is a derivation a(x,z) d/dx + sum_i b_i(x,z) d/dz_i
acting on truncated transverse series; an :class:`Automorphism` is a ring
substitution map given by the images of x and of each z_i.  Both act through
the same truncation cap, where nilpotent derivations have honest finite
exponentials and tangent-to-identity automorphisms honest logarithms, and the
two constructions invert each other degree by degree.

Conventions.  Automorphisms act on functions by substitution, Phi(f) =
f(img_x, img_z), and the pushforward is operator conjugation
Phi* X = Phi o X o Phi^{-1}.  Composition is operator composition:
(Phi o Psi)(f) = Phi(Psi(f)).
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import GaussianRational, LaurentPoly
from .series import (
    DimensionMismatchError,
    MonomialIndex,
    TransverseSeries,
    _ts_raw,
    accumulate_products,
    finish_products,
    graded_terms,
)

__all__ = [
    "VectorField",
    "Automorphism",
    "NotNilpotentError",
    "NotTangentToIdentityError",
    "SingularLinearPartError",
    "bracket",
    "exp",
    "exp_compose",
    "log",
    "exp_ad",
    "pushforward",
    "exp_decomposition",
]

# Iteration guard for series that are finite for structural reasons; hitting
# it means a precondition check was wrong, not that the input is large.
_GUARD = 10_000


class NotNilpotentError(ValueError):
    """exp() requires a nilpotent derivation."""


class NotTangentToIdentityError(ValueError):
    """log() requires an automorphism tangent to the identity."""


class SingularLinearPartError(ValueError):
    """Inversion requires an invertible (constant) z-linear part."""


class VectorField:
    """Derivation with one d/dx component and n d/dz components."""

    __slots__ = ("n", "cap", "a", "b")

    def __init__(self, a: TransverseSeries, b):
        b = tuple(b)
        n, cap = a.n, a.cap
        if len(b) != n:
            raise DimensionMismatchError(
                f"expected {n} z-components, got {len(b)}"
            )
        for comp in b:
            if comp.n != n or comp.cap != cap:
                raise DimensionMismatchError("component shapes differ")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, cap):
        z = TransverseSeries.zero(n, cap)
        return cls(z, [z] * n)

    @classmethod
    def euler(cls, n, cap):
        """The radial field x d/dx."""
        return cls(TransverseSeries.x_series(n, cap), [TransverseSeries.zero(n, cap)] * n)

    @classmethod
    def diagonal(cls, mu, cap):
        """L(mu) = sum_i mu_i z_i d/dz_i."""
        n = len(mu)
        b = [TransverseSeries.variable(n, cap, i + 1).scale(mu[i]) for i in range(n)]
        return cls(TransverseSeries.zero(n, cap), b)

    @classmethod
    def semisimple(cls, mu, cap):
        """x d/dx + L(mu), the reference linear field."""
        n = len(mu)
        return cls.euler(n, cap) + cls.diagonal(mu, cap)

    @classmethod
    def monomial(cls, n, cap, index: MonomialIndex, coeff) -> "VectorField":
        """coeff(x) * z^K * (z_j d/dz_j) as a field, K + e_j the z-exponent."""
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.constant(coeff)
        z = TransverseSeries.zero(n, cap)
        b = [z] * n
        b[index.j - 1] = TransverseSeries.monomial(n, cap, index.z_exponent(), coeff)
        return cls(z, b)

    # -- derivation action -------------------------------------------------

    def apply(self, f: TransverseSeries) -> TransverseSeries:
        """X(f) = a df/dx + sum_i b_i df/dz_i, truncated at the cap.

        The terms of a meet the x-derivatives of f's coefficients, and the
        terms of b_i meet, with integer factor k, the terms of f with
        K_i = k lowered to K - e_i, in
        :func:`~crossfield.series.accumulate_products`.  Every product lands
        in one raw integer accumulator, made canonical once at the end; no
        derivative series, scaled copy, partial product or partial sum is
        built.
        """
        if f.n != self.n or f.cap != self.cap:
            raise DimensionMismatchError("field and series shapes differ")
        data = {}
        self._apply_into(data, f, 1)
        return _ts_raw(self.n, self.cap, finish_products(data))

    def _apply_into(self, data: dict, f: TransverseSeries, sign: int) -> None:
        """Add sign * X(f) to the raw accumulator data."""
        terms = graded_terms(f)
        if self.a._terms:
            dx = []
            for K, d, c in terms:
                c = c.derivative()
                if c._terms:
                    dx.append((K, d, c))
            if dx:
                accumulate_products(data, self.cap, graded_terms(self.a), dx, sign)
        for i, comp in enumerate(self.b):
            if not comp._terms:
                continue
            by_k = {}  # k -> the terms of f with K_i = k, as K - e_i
            for K, d, c in terms:
                k = K[i]
                if k:
                    lowered = (K[:i] + (k - 1,) + K[i + 1:], d - 1, c)
                    by_k.setdefault(k, []).append(lowered)
            if by_k:
                left = graded_terms(comp)
                for k, lowered in by_k.items():
                    accumulate_products(data, self.cap, left, lowered, sign * k)

    def bracket(self, other: "VectorField") -> "VectorField":
        """[X, Y] = X o Y - Y o X, componentwise X(Y_c) - Y(X_c).

        Both halves of each component accumulate into one raw accumulator,
        the second with its integer factors negated, and the component is
        made canonical once; no negated or partial series is built.
        """
        self._compat(other)
        comps = []
        for own, their in zip((self.a,) + self.b, (other.a,) + other.b):
            data = {}
            self._apply_into(data, their, 1)
            other._apply_into(data, own, -1)
            comps.append(_ts_raw(self.n, self.cap, finish_products(data)))
        return VectorField(comps[0], comps[1:])

    def _compat(self, other):
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError("field shapes differ")

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        self._compat(other)
        return VectorField(
            self.a + other.a, [x + y for x, y in zip(self.b, other.b)]
        )

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        self._compat(other)
        return VectorField(
            self.a - other.a, [x - y for x, y in zip(self.b, other.b)]
        )

    def __neg__(self):
        return VectorField(-self.a, [-c for c in self.b])

    def scale(self, c) -> "VectorField":
        return VectorField(self.a.scale(c), [comp.scale(c) for comp in self.b])

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a.is_zero() and all(c.is_zero() for c in self.b)

    def is_k_flat(self, k: int) -> bool:
        """a in m^k and every b_i in m^{k+1}."""
        if k < 1:
            raise ValueError("flatness order must be >= 1")
        if self.a.madic_order() < k:
            return False
        return all(c.madic_order() >= k + 1 for c in self.b)

    def z_linear_matrix(self):
        """Matrix C with C[i][j] = coefficient of z_{j+1} in b_{i+1} (LaurentPoly)."""
        return [comp.linear_part() for comp in self.b]

    def constant_linear_matrix(self):
        """z-linear matrix as Q[i] scalars; None if x-dependent."""
        return _constant_matrix(self.z_linear_matrix())

    def is_x_normalized(self) -> bool:
        """x d/dx + constant linear z-part + z-components in m (nonlinear in m^2)."""
        if self.a != TransverseSeries.x_series(self.n, self.cap):
            return False
        if any(c.madic_order() < 1 for c in self.b if not c.is_zero()):
            return False
        return self.constant_linear_matrix() is not None

    def is_nilpotent(self) -> bool:
        """Decide nilpotency at the truncation cap.

        Requires the d/dx coefficient and every z-component to lie in m (so
        the action preserves the filtration and the degree-0 graded action
        vanishes), then checks that the z-linear part acts nilpotently on
        each graded piece of degree <= cap.
        """
        return self._filtration_ok() and _linear_action_nilpotent(
            self.z_linear_matrix(), self.cap
        )

    def _filtration_ok(self) -> bool:
        if not self.a.is_zero() and self.a.madic_order() < 1:
            return False
        return all(c.is_zero() or c.madic_order() >= 1 for c in self.b)

    def is_nilpotent_mod_x(self) -> bool:
        """Nilpotency in the x-truncated ring (any positive x-degree window).

        A matrix over Q[i][x]/(x^{m+1}) is nilpotent iff its constant part
        is, so the window size does not matter; the x-dependent remainder of
        the linear part must vanish at x = 0 to sit in the nilpotent ideal,
        which holds automatically for Taylor coefficients.
        """
        if not self._filtration_ok():
            return False
        C = self.z_linear_matrix()
        if not all(p.is_taylor() for row in C for p in row):
            return False
        C0 = [[LaurentPoly.constant(p.coefficient(0)) for p in row] for row in C]
        return _linear_action_nilpotent(C0, self.cap)

    def truncate_x(self, max_deg: int) -> "VectorField":
        return VectorField(
            self.a.truncate_x(max_deg), [c.truncate_x(max_deg) for c in self.b]
        )

    # -- decomposition over monomial indices --------------------------------

    def l_terms(self):
        """Decompose the z-part into ((K, j), coefficient) monomial terms.

        Every monomial z^M d/dz_j is z^K L(e_j) with K = M - e_j, so the
        decomposition is total.  Yields in ascending graded-lex pair order.
        """
        items = []
        for j in range(1, self.n + 1):
            for M, poly in self.b[j - 1].terms():
                K = tuple(m - (1 if p == j - 1 else 0) for p, m in enumerate(M))
                items.append((MonomialIndex(K, j), poly))
        items.sort(key=lambda t: t[0].pair_key())
        return items

    def coefficient_at(self, index: MonomialIndex) -> LaurentPoly:
        return self.b[index.j - 1].coefficient(index.z_exponent())

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.n == other.n and self.cap == other.cap and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.n, self.cap, self.a, self.b))

    def __str__(self):
        from .coeff import format_term, join_terms, x_power_text
        from .series import z_power_text

        pieces = []
        comps = [("dx", self.a)] + [
            (f"dz{i+1}", self.b[i]) for i in range(self.n)
        ]
        for dvar, comp in comps:
            for K, poly in comp.terms():
                zt = z_power_text(K)
                for e, c in poly.terms():
                    var = "*".join(t for t in (x_power_text(e), zt) if t) or ""
                    var = f"{var}*{dvar}" if var else dvar
                    pieces.append(format_term(c, var))
        if not pieces:
            return "0"
        return join_terms(pieces)

    def __repr__(self):
        return f"VectorField(n={self.n}, cap={self.cap}, {self.__str__()!r})"


def _constant_matrix(C):
    """A matrix of LaurentPoly entries as Q[i] scalars; None if x-dependent."""
    out = []
    for row in C:
        r = []
        for p in row:
            if p.is_zero():
                r.append(GaussianRational.ZERO)
            elif p.support() == [0]:
                r.append(p.coefficient(0))
            else:
                return None
        out.append(r)
    return out


def _linear_action_nilpotent(C, cap: int) -> bool:
    """Does the z-linear matrix C act nilpotently on every degree <= cap?

    On degree-d monomials C acts as the derivation
    z^K -> sum_i k_i C[i][l] z^{K - e_i + e_l}, whose eigenvalues are sums of
    d eigenvalues of C.  Over the Laurent ring, a domain of characteristic 0,
    that action is nilpotent for d >= 1 iff C is, and C is iff C^n = 0.
    """
    if cap == 0:
        return True
    n = len(C)
    power = C
    for _ in range(n - 1):
        terms = [[(k, p) for k, p in enumerate(row) if not p.is_zero()] for row in power]
        if not any(terms):
            return True
        power = [
            [sum((p * C[k][j] for k, p in row), LaurentPoly.zero()) for j in range(n)]
            for row in terms
        ]
    return all(p.is_zero() for row in power for p in row)


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    return X.bracket(Y)


class Automorphism:
    """Ring substitution map, given by the images of x and of each z_i.

    Substitution is well defined on truncations whenever img_x - x lies in m
    and every img_z_i lies in m; both are enforced on application.

    A map keeps its Lie generators when it is built from them: a tuple of
    factors, innermost first, for the map f_k o ... o f_1.  A factor
    (W, t, x_window) is exp(t W) computed in its x-window, and a factor
    (M, None, None) is the constant linear map z -> M z.  :func:`exp` and
    :meth:`linear` record one factor and :func:`exp_compose` appends one;
    compose() concatenates the factors of both operands and truncate_x()
    lowers every exp factor's window.  :meth:`invert` folds the factors
    right to left; a map built bare from its images is split into two
    factors first.  A map caches its inverse; the inverse holds no link
    back, so inverting it again recomputes the map, and the pair forms no
    reference cycle.  Powers of the z-images that :meth:`apply`
    substitutes are cached as they are first needed.  Every cached value
    derives from immutable inputs.
    """

    __slots__ = ("n", "cap", "img_x", "img_z", "_inv", "_gens", "_zpows", "__weakref__")

    def __init__(self, img_x: TransverseSeries, img_z):
        img_z = tuple(img_z)
        n, cap = img_x.n, img_x.cap
        if len(img_z) != n:
            raise DimensionMismatchError(f"expected {n} z-images, got {len(img_z)}")
        for comp in img_z:
            if comp.n != n or comp.cap != cap:
                raise DimensionMismatchError("image shapes differ")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "img_x", img_x)
        object.__setattr__(self, "img_z", img_z)
        object.__setattr__(self, "_inv", None)  # composed inverse
        object.__setattr__(self, "_gens", None)  # Lie generators, innermost first
        object.__setattr__(self, "_zpows", None)  # per i: [img_z[i], img_z[i]^2, ...]

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, cap):
        x, *zs = _coordinates(n, cap)
        phi = cls(x, zs)
        object.__setattr__(phi, "_gens", ())
        return phi

    @classmethod
    def linear(cls, matrix, cap):
        """x -> x, z_i -> sum_j matrix[i][j] z_j with constant entries; its one
        Lie factor is the matrix."""
        M = tuple(
            tuple(GaussianRational(c) if isinstance(c, (int, Fraction)) else c for c in row)
            for row in matrix
        )
        n = len(M)
        img_z = []
        for i in range(n):
            s = TransverseSeries.zero(n, cap)
            for j in range(n):
                c = M[i][j]
                if not (isinstance(c, GaussianRational) and c.is_zero()):
                    s = s + TransverseSeries.variable(n, cap, j + 1).scale(c)
            img_z.append(s)
        phi = cls(TransverseSeries.x_series(n, cap), img_z)
        object.__setattr__(phi, "_gens", ((M, None, None),))
        return phi

    # -- substitution ------------------------------------------------------

    def _one(self) -> TransverseSeries:
        return TransverseSeries.constant(self.n, self.cap, LaurentPoly.one())

    def _zpow(self, i: int, k: int) -> TransverseSeries:
        """img_z[i]**k for k >= 1, caching every lower power on the way."""
        if self._zpows is None:
            object.__setattr__(self, "_zpows", [[comp] for comp in self.img_z])
        pows = self._zpows[i]
        while len(pows) < k:
            pows.append(pows[-1] * self.img_z[i])
        return pows[k - 1]

    def _zmonomial(self, K) -> TransverseSeries:
        """The image z'^K: one product per nonzero exponent after the first."""
        out = None
        for i, k in enumerate(K):
            if k:
                p = self._zpow(i, k)
                out = p if out is None else out * p
        return self._one() if out is None else out

    def _coordinate(self, i: int) -> TransverseSeries:
        """Reference coordinate series: x for i = 0, z_i otherwise."""
        if i == 0:
            return TransverseSeries.x_series(self.n, self.cap)
        return TransverseSeries.variable(self.n, self.cap, i)

    def apply(self, f: TransverseSeries) -> TransverseSeries:
        """Substitute the images into f, truncated.

        The x-image may differ from x by an element u of m; the Laurent
        coefficients are then shifted by the finite Taylor sum, taken in
        layers by the power of u:
        f(x + u, z') = sum_m u^m sum_K f_K^(m)(x)/m! z'^K.
        Each z'^K is built once and multiplied into the layers
        m <= cap - |K| (z'^K lies in m^|K| and u^m in m^m) by
        :func:`~crossfield.series.accumulate_products`, with the degree-0
        coefficient f_K^(m)/m! as its right side.  Each layer is made
        canonical and multiplied by u^m once, into layer 0's raw
        accumulator, with the powers of u built as they are needed; that
        accumulator is made canonical once, as the result.  With u = 0 only
        layer 0 exists and no product by a power of u is formed.
        """
        if f.n != self.n or f.cap != self.cap:
            raise DimensionMismatchError("series and automorphism shapes differ")
        u = self.img_x - self._coordinate(0)
        if not u.is_zero() and u.madic_order() < 1:
            raise ValueError("x-image must differ from x by an element of m")
        for comp in self.img_z:
            if not comp.is_zero() and comp.madic_order() < 1:
                raise ValueError("z-images must lie in m")
        shift = not u.is_zero()
        n, cap = self.n, self.cap
        const = (0,) * n
        layers = [{}]  # layers[m]: sum_K f_K^(m)/m! z'^K, raw
        for K, poly in f._terms.items():
            zpart = graded_terms(self._zmonomial(K))
            coeff = poly
            for m in range(cap - sum(K) + 1 if shift else 1):
                if m:
                    coeff = coeff.derivative().scale(Fraction(1, m))
                    if coeff.is_zero():
                        break
                    if m == len(layers):
                        layers.append({})
                accumulate_products(layers[m], cap, zpart, [(const, 0, coeff)])
        acc = layers[0]
        upow = u
        for m in range(1, len(layers)):
            if m > 1:
                upow = upow * u
            if upow.is_zero():
                break
            layer = _ts_raw(n, cap, finish_products(layers[m]))
            accumulate_products(acc, cap, graded_terms(layer), graded_terms(upow))
        return _ts_raw(n, cap, finish_products(acc))

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """(self o other)(f) = self(other(f)).

        When both operands have Lie generators, the result has other's
        followed by self's; otherwise it has none and is split on inversion.
        """
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError("automorphism shapes differ")
        out = Automorphism(self.apply(other.img_x), [self.apply(c) for c in other.img_z])
        if self._gens is not None and other._gens is not None:
            object.__setattr__(out, "_gens", other._gens + self._gens)
        return out

    def z_linear_matrix(self):
        return [comp.linear_part() for comp in self.img_z]

    def constant_z_matrix(self):
        """z-linear matrix as Q[i] scalars; None if x-dependent."""
        return _constant_matrix(self.z_linear_matrix())

    def is_x_normalized(self) -> bool:
        if self.img_x != TransverseSeries.x_series(self.n, self.cap):
            return False
        if any(c.madic_order() < 1 for c in self.img_z if not c.is_zero()):
            return False
        A = self.constant_z_matrix()
        if A is None:
            return False
        try:
            _invert_matrix(A)
        except SingularLinearPartError:
            return False
        return True

    def tangent_to_identity(self) -> bool:
        """Identity through first order in the graded sense.

        The x-image may differ by an element of m and each z-image by an
        element of m^2 (x carries weight 0, the z_i weight 1); this is
        exactly the class where Phi - id raises the m-adic order, so the
        logarithm series terminates at the cap.
        """
        for i, comp in enumerate((self.img_x,) + self.img_z):
            d = comp - self._coordinate(i)
            if d.madic_order() < (2 if i else 1):
                return False
        return True

    def invert(self) -> "Automorphism":
        """Compositional inverse at the cap.

        The inverse of f_k o ... o f_1 is f_1^-1 o ... o f_k^-1, folded from
        the coordinates with the outermost factor first: an exp factor
        (W, t, w) runs the Lie series of -t W on the running images in its
        window, as :func:`exp_compose` would, and a linear factor M
        substitutes the linear map M^-1 into them.  The inverse has the
        reversed factors, with -t and M^-1.

        A map with no Lie generators is split first as exp(Z) o A, the
        factors A and Z that :func:`exp_decomposition` returns; this needs
        img_x = x and a constant invertible z-linear part A.  Such a map may
        come from outside the program, so its inverse is certified by
        composing it with the map at the full cap.

        The result is cached on this map only.  The inverse holds no link
        back, so inverting it again folds its factors into a map equal to
        this one.
        """
        if self._inv is not None:
            return self._inv
        gens = self._gens
        if gens is None:
            A, Z = exp_decomposition(self)
            gens = A._gens + ((Z, GaussianRational.ONE, None),)
        inv_gens = tuple(
            (_invert_matrix(W), None, None) if t is None else (W, -t, w)
            for W, t, w in reversed(gens)
        )
        images = _coordinates(self.n, self.cap)
        for W, t, w in inv_gens:
            if t is None:
                L = Automorphism.linear(W, self.cap)
                images = [L.apply(s) for s in images]
            else:
                images = _exp_images(W, t, w, [_in_window(s, w) for s in images])
        inv = Automorphism(images[0], images[1:])
        object.__setattr__(inv, "_gens", inv_gens)
        if self._gens is None and self.compose(inv) != Automorphism.identity(self.n, self.cap):
            raise SingularLinearPartError("inversion failed at the cap")
        object.__setattr__(self, "_inv", inv)
        return inv

    def pushforward(self, X: VectorField) -> "VectorField":
        """Phi* X = Phi o X o Phi^{-1} as a derivation at the cap."""
        if X.n != self.n or X.cap != self.cap:
            raise DimensionMismatchError("field and automorphism shapes differ")
        inv = self.invert()
        a = self.apply(X.apply(inv.img_x))
        b = [self.apply(X.apply(inv.img_z[i])) for i in range(self.n)]
        return VectorField(a, b)

    def truncate_x(self, max_deg: int) -> "Automorphism":
        """The images truncated at x-degree max_deg.

        Every exp factor's window is lowered to at most max_deg, so the
        inverse is computed in the ring the result lives in.
        """
        out = Automorphism(
            self.img_x.truncate_x(max_deg),
            [c.truncate_x(max_deg) for c in self.img_z],
        )
        object.__setattr__(out, "_gens", _lowered(self._gens, max_deg))
        return out

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return (
            self.n == other.n
            and self.cap == other.cap
            and self.img_x == other.img_x
            and self.img_z == other.img_z
        )

    def __hash__(self):
        return hash((self.n, self.cap, self.img_x, self.img_z))

    def __str__(self):
        imgs = [f"x -> {self.img_x}"] + [
            f"z{i+1} -> {self.img_z[i]}" for i in range(self.n)
        ]
        return "; ".join(imgs)

    def __repr__(self):
        return f"Automorphism({self.__str__()!r})"


def _lowered(gens, x_window):
    """Lie generators with every exp factor's window lowered to at most
    x_window; a linear factor has none.  gens itself when either is None."""
    if gens is None or x_window is None:
        return gens
    return tuple(
        (W, t, w) if t is None else (W, t, x_window if w is None else min(w, x_window))
        for W, t, w in gens
    )


def _coordinates(n: int, cap: int):
    """The coordinate series [x, z_1, ..., z_n]."""
    zs = [TransverseSeries.variable(n, cap, i + 1) for i in range(n)]
    return [TransverseSeries.x_series(n, cap)] + zs


def _invert_matrix(A):
    """Exact inverse of a square Q[i] matrix by Gauss-Jordan elimination."""
    n = len(A)
    aug = [
        [A[i][j] for j in range(n)]
        + [GaussianRational.ONE if i == j else GaussianRational.ZERO for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not aug[r][col].is_zero()), None
        )
        if pivot is None:
            raise SingularLinearPartError("singular z-linear part")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor.is_zero():
                continue
            aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# --- exponential, logarithm, adjoint ---------------------------------------


def _in_window(obj, x_window):
    """obj truncated at x-degree x_window; obj itself when x_window is None."""
    return obj if x_window is None else obj.truncate_x(x_window)


def exp(X: VectorField, t=1, x_window: int | None = None) -> Automorphism:
    """Time-t exponential of a nilpotent derivation, as an automorphism.

    The coordinate images sum_k t^k/k! X^k(coordinate) are finite at the cap.
    t is exact: an int, Fraction or GaussianRational (anything else raises
    ``TypeError``).  The result records the one Lie generator (X, t,
    x_window), so its inverse is exp(-tX) in the same window, built on the
    first invert().

    With ``x_window`` the computation runs in the ring truncated at x-degree
    x_window as well; fields like f(x) z_j d/dz_j with f(0) = 0, whose
    exponential scales z_j by the transcendental e^{f}, are nilpotent there
    and get their (polynomial) truncated exponential.
    """
    if isinstance(t, (int, Fraction)):
        t = GaussianRational(t)
    elif not isinstance(t, GaussianRational):
        raise TypeError(f"exp needs an exact time, got {type(t).__name__}")
    _require_nilpotent(X, x_window)
    images = _exp_images(X, t, x_window, _coordinates(X.n, X.cap))
    phi = Automorphism(images[0], images[1:])
    object.__setattr__(phi, "_gens", ((X, t, x_window),))
    return phi


def exp_compose(W: VectorField, N: Automorphism, x_window: int | None = None) -> Automorphism:
    """exp(W) o N, as the Lie series sum_k W^k(N's images)/k!.

    The same map as ``exp(W, 1, x_window).compose(N)``, followed by
    ``truncate_x(x_window)`` when a window is given; but neither exp(W) nor
    a substitution into N is formed.  The result has N's Lie generators,
    their windows lowered to x_window, followed by (W, 1, x_window); or
    none if N has none.
    For a monomial field W = f(x) z^K z_j d/dz_j, as in every sweep step of
    normalize(), each term is one d/dz_j and one one-term product.
    """
    if W.n != N.n or W.cap != N.cap:
        raise DimensionMismatchError("field and automorphism shapes differ")
    _require_nilpotent(W, x_window)
    one = GaussianRational.ONE
    images = [_in_window(s, x_window) for s in (N.img_x,) + N.img_z]
    images = _exp_images(W, one, x_window, images)
    phi = Automorphism(images[0], images[1:])
    gens = _lowered(N._gens, x_window)
    if gens is not None:
        object.__setattr__(phi, "_gens", gens + ((W, one, x_window),))
    return phi


def _require_nilpotent(X: VectorField, x_window) -> None:
    if x_window is None:
        if not X.is_nilpotent():
            raise NotNilpotentError("exp requires a nilpotent field at the cap")
    elif not X.is_nilpotent_mod_x():
        raise NotNilpotentError(
            "exp requires a field nilpotent in the x-truncated ring"
        )


def _exp_images(X: VectorField, t: GaussianRational, x_window, series):
    """The Lie series sum_k t^k/k! X^k(s) of each s in series, as the list
    [x-image, z-images...].

    The coordinates give the images of exp(tX); the images of a map N give
    those of exp(tX) o N.  The sum is finite for nilpotent X.
    """
    return [_lie_series(X.apply, s, t, x_window) for s in series]


def _lie_series(step, start, t, x_window):
    """start + sum_{k>=1} term_k with term_k = step(term_{k-1}) * t/k.

    Each term is scaled once by the scalar t/k, in the caller's scalar type,
    and truncated to x_window; the sum stops at the first zero term.
    """
    acc = term = start
    k = 0
    while True:
        k += 1
        if k > _GUARD:
            raise AssertionError("Lie series failed to terminate; nilpotency is violated")
        term = _in_window(step(term).scale(t / k), x_window)
        if term.is_zero():
            return acc
        acc = acc + term


def log(phi: Automorphism) -> VectorField:
    """Logarithm of an automorphism tangent to the identity.

    Evaluates sum_m (-1)^{m+1}/m (Phi - id)^m on the coordinates; each
    application of Phi - id raises the m-adic order, so the sum is finite at
    the cap and the result is a 1-flat (hence nilpotent) field with
    exp(log Phi) = Phi.
    """
    if not phi.tangent_to_identity():
        raise NotTangentToIdentityError(
            "log requires images equal to the coordinates through order 1"
        )
    comps = []
    for coord in _coordinates(phi.n, phi.cap):
        acc = TransverseSeries.zero(phi.n, phi.cap)
        u = phi.apply(coord) - coord
        m = 1
        while not u.is_zero():
            if m > _GUARD:
                raise AssertionError("log failed to terminate")
            acc = acc + u.scale(Fraction(1, m) if m % 2 == 1 else Fraction(-1, m))
            u = phi.apply(u) - u
            m += 1
        comps.append(acc)
    return VectorField(comps[0], comps[1:])


def exp_ad(W: VectorField, X: VectorField, x_window: int | None = None) -> VectorField:
    """exp(ad_W)(X) = sum_k ad_W^k(X)/k!, finite at the cap for nilpotent W.

    Equals pushforward(exp(W), X); the two routes are kept independent so one
    can certify the other.  ``x_window`` truncates in x as in :func:`exp`.
    """
    W._compat(X)
    return _lie_series(W.bracket, _in_window(X, x_window), Fraction(1), x_window)


def pushforward(phi: Automorphism, X: VectorField) -> VectorField:
    return phi.pushforward(X)


def exp_decomposition(phi: Automorphism):
    """Split an x-normalized automorphism as A after exp(Z) (point maps).

    A is the purely linear map carrying phi's constant z-linear matrix and Z
    is the 1-flat logarithm of the tangent-to-identity remainder.  Point maps
    factor as phi = A o exp(Z); these substitution operators compose in the
    opposite order, so the recomposition identity reads
    ``exp(Z).compose(A) == phi``.  A map that is not x-normalized raises a
    ValueError: SingularLinearPartError unless img_x = x and the z-linear
    part is constant and invertible.
    """
    if phi.img_x != TransverseSeries.x_series(phi.n, phi.cap):
        raise SingularLinearPartError("splitting a map needs img_x = x")
    M = phi.constant_z_matrix()
    if M is None:
        raise SingularLinearPartError("z-linear part must be constant in x")
    A = Automorphism.linear(M, phi.cap)
    return A, log(phi.compose(A.invert()))
