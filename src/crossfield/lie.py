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
from itertools import groupby

from .coeff import GaussianRational, LaurentPoly, as_scalar
from .series import (
    DimensionMismatchError,
    MonomialIndex,
    TransverseSeries,
    _cells,
    _derived,
    _series_cells,
    _terms_text,
    _triple,
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
    "CertificateError",
    "exp",
    "log",
    "exp_ad",
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


class CertificateError(AssertionError):
    """An exact result failed its own check: a certificate or invariant of
    normalize, the inverse of a bare map, or a Lie or log series past its
    iteration guard.  It is an AssertionError, so callers that catch those
    keep working."""


class VectorField:
    """Derivation with one d/dx component and n d/dz components."""

    __slots__ = ("n", "cap", "a", "b")

    def __init__(self, a: TransverseSeries, b):
        b = tuple(b)
        n, cap = _shape(a, b)
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

    def apply(self, f: TransverseSeries, x_window: int | None = None) -> TransverseSeries:
        """X(f) = a df/dx + sum_i b_i df/dz_i, truncated at the cap.

        One call of :func:`~crossfield.series.accumulate_products` per
        component: the terms of a meet the x-derivatives of f's
        coefficients, x^e going to e x^(e-1), and the terms of b_i meet
        the terms of f with K_i = k >= 1, lowered to K - e_i.  f's
        coefficients go in as raw integer cells with e or k already
        multiplied into their numerators, built only for the terms each
        component reads.  Every product lands in one raw integer
        accumulator, made canonical once at the end; no derivative
        polynomial or series, scaled copy, partial product or partial sum
        is built.  With ``x_window`` every product is also cut at that
        x-degree, which gives exactly X(f).truncate_x(x_window): the
        x-derivatives are taken before the products.
        """
        if f.n != self.n or f.cap != self.cap:
            raise DimensionMismatchError("field and series shapes differ")
        return self._apply(f, x_window, 1)

    def _apply(self, f: TransverseSeries, x_window, factor) -> TransverseSeries:
        """factor * X(f), cut at x-degree x_window, for an exact scalar factor."""
        data = {}
        self._apply_into(data, f, factor, x_window)
        return _ts_raw(self.n, self.cap, finish_products(data))

    def _apply_into(self, data: dict, f: TransverseSeries, factor, x_window) -> None:
        """Add factor * X(f), cut at x-degree x_window, to the raw
        accumulator data; factor is an int, Fraction or Q[i] scalar, folded
        into the cells of f's terms."""
        a, b, d = _triple(factor)
        terms = graded_terms(f)
        if self.a._terms:
            dx = []
            for K, deg, c in terms:
                cells = _derived(_cells(c, a, b, d))
                if cells:
                    dx.append((K, deg, cells))
            if dx:
                accumulate_products(data, self.cap, graded_terms(self.a), dx, x_window)
        for i, comp in enumerate(self.b):
            if not comp._terms:
                continue
            lowered = [
                (K[:i] + (K[i] - 1,) + K[i + 1:], deg - 1, _cells(c, K[i] * a, K[i] * b, d))
                for K, deg, c in terms
                if K[i]
            ]
            if lowered:
                accumulate_products(data, self.cap, graded_terms(comp), lowered, x_window)

    def bracket(self, other: "VectorField", x_window: int | None = None) -> "VectorField":
        """[X, Y] = X o Y - Y o X, componentwise X(Y_c) - Y(X_c).

        Both halves of each component accumulate into one raw accumulator,
        the second with the sign folded into its right cells, and the
        component is made canonical once; no negated or partial series is
        built.  With ``x_window`` the result is exactly
        [X, Y].truncate_x(x_window), as in :meth:`apply`.
        """
        self._compat(other)
        return self._bracket(other, x_window, 1)

    def _bracket(self, other: "VectorField", x_window, factor) -> "VectorField":
        """factor * [self, other], cut at x-degree x_window: the factor, an
        exact scalar, and its negation go into the right cells of the two
        halves."""
        neg = -factor
        comps = []
        for own, their in zip((self.a,) + self.b, (other.a,) + other.b):
            data = {}
            self._apply_into(data, their, factor, x_window)
            other._apply_into(data, own, neg, x_window)
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
        return self + -other

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
        return _x_normalized_matrix(self.a, self.b) is not None

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
        return _terms_text([(self.a, "dx")] + [(c, f"dz{i}") for i, c in enumerate(self.b, 1)])

    def __repr__(self):
        return f"VectorField(n={self.n}, cap={self.cap}, {self.__str__()!r})"


def _shape(x_part: TransverseSeries, z_parts: tuple):
    """(n, cap) of a field's or a map's parts: x_part's, which each of the
    n z_parts must share."""
    n, cap = x_part.n, x_part.cap
    if len(z_parts) != n:
        raise DimensionMismatchError(f"expected {n} z-parts, got {len(z_parts)}")
    for comp in z_parts:
        if comp.n != n or comp.cap != cap:
            raise DimensionMismatchError("a z-part's shape differs from the x-part's")
    return n, cap


def _x_normalized_matrix(x_part: TransverseSeries, z_parts):
    """The constant z-linear matrix of x-normalized parts, as Q[i] scalars;
    None unless the x-part is x, every z-part lies in m and the z-linear
    part is constant in x."""
    if x_part != TransverseSeries.x_series(x_part.n, x_part.cap):
        return None
    if any(c.madic_order() < 1 for c in z_parts if not c.is_zero()):
        return None
    return _constant_matrix([c.linear_part() for c in z_parts])


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


class Automorphism:
    """Ring substitution map, given by the images of x and of each z_i.

    Substitution is well defined on truncations whenever img_x - x lies in m
    and every img_z_i lies in m; both are enforced on application.

    A map keeps its Lie generators when it is built from them: a tuple of
    factors, innermost first, for the map f_k o ... o f_1.  A factor
    (W, t, x_window) is exp(t W) computed in its x-window, and a factor
    (M, None, None) is the constant linear map z -> M z.  A map lives in
    one x-window: its exp factors all share it.  :func:`_from_factors`
    folds the images from the factors, and compose() concatenates the
    factors of both operands.  A map built bare from its images is split
    into two factors on inversion.  A map caches its inverse; the inverse
    holds no link back, so inverting it again recomputes the map, and the
    pair forms no reference cycle.  What :meth:`apply` needs of the map
    itself is built once per map: the checks on its images, the shift
    u = img_x - x with its powers u^m, and, one memo per x-window, the
    monomials z'^K in the z-images, each power and monomial as it is first
    needed.  Every cached value derives from immutable inputs.
    """

    __slots__ = ("n", "cap", "img_x", "img_z", "_inv", "_gens", "_zmonos", "_upows", "__weakref__")

    def __init__(self, img_x: TransverseSeries, img_z):
        img_z = tuple(img_z)
        n, cap = _shape(img_x, img_z)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "img_x", img_x)
        object.__setattr__(self, "img_z", img_z)
        object.__setattr__(self, "_inv", None)  # composed inverse
        object.__setattr__(self, "_gens", None)  # Lie generators, innermost first
        object.__setattr__(self, "_zmonos", {})  # window -> {K: z'^K}
        object.__setattr__(self, "_upows", None)  # [u, u^2, ...], [] for x -> x

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, cap):
        return _from_factors(n, cap, ())

    @classmethod
    def linear(cls, matrix, cap):
        """x -> x, z_i -> sum_j matrix[i][j] z_j with constant entries; its one
        Lie factor is the matrix."""
        M = tuple(tuple(map(as_scalar, row)) for row in matrix)
        n = len(M)
        units = [tuple(int(p == j) for p in range(n)) for j in range(n)]
        img_z = [TransverseSeries(n, cap, dict(zip(units, row))) for row in M]
        phi = cls(TransverseSeries.x_series(n, cap), img_z)
        object.__setattr__(phi, "_gens", ((M, None, None),))
        return phi

    # -- substitution ------------------------------------------------------

    def _substitution(self, x_window):
        """(memo, upows): the z'^K memo of x_window and the powers of u.

        The images are checked on the first call for the map, and once more
        on the first call for each x-window: u = img_x - x and every z-image
        must lie in m, and a window needs u = 0 and Taylor z-images.  A
        failed check raises ``ValueError`` and caches nothing, so it raises
        again on the next call.  upows starts as [u], or [] for the x-image
        x, and :meth:`_apply_into` extends it; the memo starts from z'^0 = 1
        and z'^(e_i) = z'_i.
        """
        memo = self._zmonos.get(x_window)
        if memo is not None:
            return memo, self._upows
        n, cap = self.n, self.cap
        upows = self._upows
        if upows is None:
            x = TransverseSeries.x_series(n, cap)
            upows = [self.img_x - x] if self.img_x != x else []
            if upows and upows[0].madic_order() < 1:
                raise ValueError("x-image must differ from x by an element of m")
            for comp in self.img_z:
                if not comp.is_zero() and comp.madic_order() < 1:
                    raise ValueError("z-images must lie in m")
            object.__setattr__(self, "_upows", upows)
        if x_window is not None:
            if upows:
                raise ValueError("an x-window needs the x-image x")
            if not all(comp.is_taylor() for comp in self.img_z):
                raise ValueError("an x-window needs Taylor coefficients")
        memo = self._zmonos[x_window] = {(0,) * n: TransverseSeries.constant(n, cap, 1)}
        for i, comp in enumerate(self.img_z):
            memo[tuple(int(p == i) for p in range(n))] = comp
        return memo, upows

    def _zmonomial(self, memo, K, x_window) -> TransverseSeries:
        """The image z'^K, from x_window's memo.

        z'^K is z'^(K - e_i) * z'_i with i the last nonzero index of K: one
        product per monomial, cut at x_window, against one z-image.
        """
        chain = []
        while K not in memo:
            i = max(p for p, k in enumerate(K) if k)
            chain.append((K, i))
            K = K[:i] + (K[i] - 1,) + K[i + 1:]
        out = memo[K]
        for K, i in reversed(chain):
            out = memo[K] = _product(out, self.img_z[i], x_window)
        return out

    def apply(self, f: TransverseSeries, x_window: int | None = None) -> TransverseSeries:
        """Substitute the images into f, truncated.

        The x-image may differ from x by an element u of m; the Laurent
        coefficients are then shifted by the finite Taylor sum, taken in
        layers by the power of u:
        f(x + u, z') = sum_m u^m sum_K f_K^(m)(x)/m! z'^K.
        Each z'^K is built once per map and window, with one product
        (:meth:`_zmonomial`), and multiplied into the layers
        m <= cap - |K| (z'^K lies in m^|K| and u^m in m^m) by
        :func:`~crossfield.series.accumulate_products`, with the degree-0
        coefficient f_K^(m)/m! as its right side.  That coefficient is
        raw integer cells: layer m's cell (e - 1, e*a, e*b, m*d) comes from
        layer m - 1's cell (e, a, b, d), so no polynomial is built for a
        layer.  Each layer is made canonical and multiplied by u^m once,
        with u^m's cells as the right side, into layer 0's raw accumulator;
        that accumulator is made canonical once, as the result.  Like z'^K, u
        and each power u^m are built once per map, the first time a layer
        needs them, and the images are checked once per map and window
        (:meth:`_substitution`).  With u = 0 only layer 0 exists and no
        product by a power of u is formed.

        With ``x_window`` every product of the chain z'^K, times f_K, is cut
        at that x-degree, which gives exactly apply(f).truncate_x(x_window)
        when no factor has a negative x-exponent: a term cut early could
        otherwise come back under the window.  So a window needs Taylor f
        and z-images and u = 0 (an x-derivative lowers x-degrees), and
        raises ``ValueError`` otherwise.

        The work is :meth:`_apply_into`'s, as in :meth:`VectorField.apply`;
        this method only makes its accumulator canonical.
        """
        if f.n != self.n or f.cap != self.cap:
            raise DimensionMismatchError("series and automorphism shapes differ")
        data = {}
        self._apply_into(data, f, 1, x_window)
        return _ts_raw(self.n, self.cap, finish_products(data))

    def _apply_into(self, data: dict, f: TransverseSeries, sign: int, x_window) -> None:
        """Add sign * self(f), cut at x-degree x_window, to the raw
        accumulator data: :meth:`apply`'s work and checks, which
        normalize's certificate and :func:`log` call directly to add more
        than one series into one accumulator.

        The integer sign goes into the cells of f's coefficients, so every
        layer carries it.  Layer 0 accumulates straight into data; each
        layer m >= 1 of a moving x-image is made canonical and multiplied
        by u^m into it.  The map's own checks, u^m and z'^K are built once
        per map (:meth:`_substitution`); only f's Taylor check runs on
        every windowed call.
        """
        memo, upows = self._substitution(x_window)
        if x_window is not None and not f.is_taylor():
            raise ValueError("an x-window needs Taylor coefficients")
        n, cap = self.n, self.cap
        const = (0,) * n
        layers = [data]  # layers[m]: sign * sum_K f_K^(m)/m! z'^K, raw
        for K, poly in f._terms.items():
            zpart = graded_terms(self._zmonomial(memo, K, x_window))
            cells = _cells(poly, sign)
            for m in range(cap - sum(K) + 1 if upows else 1):
                if m:
                    cells = _derived(cells, m)
                    if not cells:
                        break
                    if m == len(layers):
                        layers.append({})
                accumulate_products(layers[m], cap, zpart, [(const, 0, cells)], x_window)
        for m in range(1, len(layers)):
            if m > len(upows):
                upows.append(upows[-1] * upows[0])
            upow = upows[m - 1]
            if upow.is_zero():
                break
            layer = _ts_raw(n, cap, finish_products(layers[m]))
            accumulate_products(data, cap, graded_terms(layer), _series_cells(upow))

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """(self o other)(f) = self(other(f)).

        When both operands have Lie generators, the result has other's
        followed by self's; otherwise it has none and is split on inversion.
        Maps whose exp factors carry different x-windows live in different
        rings, so composing them raises ``ValueError``.
        """
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError("automorphism shapes differ")
        gens = None
        if self._gens is not None and other._gens is not None:
            gens = other._gens + self._gens
            if len({w for _, t, w in gens if t is not None}) > 1:
                raise ValueError("the two maps' Lie factors lie in different x-windows")
        out = Automorphism(self.apply(other.img_x), [self.apply(c) for c in other.img_z])
        object.__setattr__(out, "_gens", gens)
        return out

    def constant_linear_matrix(self):
        """z-linear matrix as Q[i] scalars; None if x-dependent."""
        return _constant_matrix([comp.linear_part() for comp in self.img_z])

    def is_x_normalized(self) -> bool:
        """x -> x, z-images in m, and a constant invertible z-linear part."""
        A = _x_normalized_matrix(self.img_x, self.img_z)
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
        images = (self.img_x,) + self.img_z
        for i, (comp, coord) in enumerate(zip(images, _coordinates(self.n, self.cap))):
            if (comp - coord).madic_order() < (2 if i else 1):
                return False
        return True

    def invert(self) -> "Automorphism":
        """Compositional inverse at the cap.

        The inverse of f_k o ... o f_1 is f_1^-1 o ... o f_k^-1: the
        reversed factors, with -t for an exp factor and M^-1 for a linear
        one, folded from the coordinates by :func:`_from_factors`.

        A map with no Lie generators is split first as exp(Z) o A, the
        factors A and Z that :func:`exp_decomposition` returns; this needs
        img_x = x and a constant invertible z-linear part A.  Such a map may
        come from outside the program, so its inverse is certified by
        composing it with the map at the full cap; a failed check raises
        :class:`CertificateError`.

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
        inv = _from_factors(self.n, self.cap, inv_gens)
        if self._gens is None and self.compose(inv) != Automorphism.identity(self.n, self.cap):
            raise CertificateError("inversion failed at the cap")
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


def _product(f: TransverseSeries, g: TransverseSeries, x_window) -> TransverseSeries:
    """f * g, cut at x-degree x_window when it is an int."""
    if x_window is None:
        return f * g
    data = {}
    accumulate_products(data, f.cap, graded_terms(f), _series_cells(g), x_window)
    return _ts_raw(f.n, f.cap, finish_products(data))


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


def exp(X: VectorField, t=1, x_window: int | None = None) -> Automorphism:
    """Time-t exponential of a nilpotent derivation, as an automorphism.

    The coordinate images sum_k t^k/k! X^k(coordinate) are finite at the cap.
    t is exact: an int, Fraction or GaussianRational (anything else raises
    ``TypeError``).  The result records the one Lie generator (X, t,
    x_window), so its inverse is exp(-tX) in the same window, built on the
    first invert().

    With ``x_window`` each term t^k/k! X^k(coordinate) is formed only up to
    x-degree x_window, from the previous term as cut, inside the product
    kernel; the result is that term-truncated series.  When X has Taylor
    coefficients and no x-free term in its d/dx coefficient, X lowers no
    x-degree, so the result is exp(tX) truncated at x-degree x_window;
    fields like f(x) z_j d/dz_j with f(0) = 0, whose exponential scales z_j
    by the transcendental e^{f}, are nilpotent there and get their
    (polynomial) truncated exponential, which the fold forms in closed
    form: z_j -> E z_j with E = e^{t f} cut at x-degree x_window, the same
    map as the series.  A negative x-exponent, or an
    x-free term in the d/dx coefficient, lowers x-degrees, so a term cut
    at one step would come back under the window at a later one: the
    result is then not exp(tX) truncated, even where exp(tX) exists
    exactly.  For z1*dx + x^2*z2^2*dz1 + x^3*z1^2*dz2 at window 2, z2 maps
    to z2; exp(X) truncated at x-degree 2 maps it to
    z2 + 3/2*x^2*z1^3 + x*z1^4.  The coordinates themselves are not
    truncated, so window 0 keeps x as the x-image.
    """
    if isinstance(t, (int, Fraction)):
        t = GaussianRational(t)
    elif not isinstance(t, GaussianRational):
        raise TypeError(f"exp needs an exact time, got {type(t).__name__}")
    if x_window is None:
        if not X.is_nilpotent():
            raise NotNilpotentError("exp requires a nilpotent field at the cap")
    elif not X.is_nilpotent_mod_x():
        raise NotNilpotentError(
            "exp requires a field nilpotent in the x-truncated ring"
        )
    return _from_factors(X.n, X.cap, ((X, t, x_window),))


def _from_factors(n: int, cap: int, factors) -> Automorphism:
    """f_k o ... o f_1 from its Lie factors (f_1, ..., f_k), recorded as _gens.

    From the coordinates, innermost factor first: an exp factor (W, t, w)
    runs the Lie series sum_k t^k/k! W^k on each running image in window w,
    and a linear factor (M, None, None) substitutes z -> M z.  A run of two
    or more consecutive exp factors that act additively
    (:func:`_acts_additively`), such as the upper half of a normalize sweep
    or the start of its inverse's reversed list, maps each image s to
    s + V(s) with V = sum t*W, exactly the product of their Lie series at
    the cap.  A diagonal factor W = f(x) z_j d/dz_j in a window
    (:func:`_diagonal`), such as a level-0 step of an x-window sweep, takes
    its closed form instead: W multiplies a term c z^M by M_j f, so its
    series multiplies it by e^{t M_j f}, cut at x-degree w
    (:func:`_exp_multiples`, :func:`_times_exp`).  All exp factors of one
    fold share one window, so the series takes the images as they are: the
    images an exp factor leaves already lie in that window, but for the
    coordinate x when w = 0, which stays x.  The factors are trusted: each
    W must be nilpotent in its window.
    """
    factors = tuple(factors)
    images = _coordinates(n, cap)
    for additive, run in groupby(factors, key=lambda f: _acts_additively(f, cap)):
        run = list(run)
        if additive and len(run) > 1:
            by_t = {}  # t -> the sum of the run's W with that t
            for W, t, _ in run:
                by_t[t] = by_t[t] + W if t in by_t else W
            w = run[0][2]
            images = [s + _additive_step(by_t, s, w) for s in images]
            continue
        for W, t, w in run:
            if t is None:
                L = Automorphism.linear(W, cap)
                images = [L.apply(s) for s in images]
                continue
            diagonal = _diagonal(W, w)
            if diagonal is None:
                images = [_lie_series(W._apply, s, t, w) for s in images]
            else:
                j, f = diagonal
                E = _exp_multiples(f, t, w, {M[j] for s in images for M in s._terms})
                images = [_times_exp(s, j, 0, E, w) for s in images]
    phi = Automorphism(images[0], images[1:])
    object.__setattr__(phi, "_gens", factors)
    return phi


def _additive_step(by_t: dict, s: TransverseSeries, x_window) -> TransverseSeries:
    """V(s) for V = sum t*V_t over {t: V_t} in by_t, cut at x-degree
    x_window, in one raw accumulator: each t goes into the cells of s that
    its V_t reads."""
    data = {}
    for t, V in by_t.items():
        V._apply_into(data, s, t, x_window)
    return _ts_raw(s.n, s.cap, finish_products(data))


def _diagonal(W: VectorField, x_window):
    """(j, f), j 0-based, when W = f(x) z_j d/dz_j with f Taylor and
    f(0) = 0 and x_window is an int; None otherwise.

    Then f is nilpotent in the x-truncated ring, and W acts on a term
    c z^M, whose coefficient it leaves alone, as multiplication by M_j f.
    """
    if x_window is None or W.a._terms:
        return None
    parts = [(j, comp._terms) for j, comp in enumerate(W.b) if comp._terms]
    if len(parts) != 1:
        return None
    j, terms = parts[0]
    f = terms.get(tuple(int(p == j) for p in range(W.n)))
    if f is None or len(terms) != 1 or f.min_exp() < 1:
        return None
    return j, f


def _exp_multiples(f: LaurentPoly, t, x_window: int, ms) -> dict:
    """{m: e^{t*m*f} cut at x-degree x_window} for the nonzero ints m of ms,
    each value as the raw cells of a right item of the product kernel.

    f is Taylor with f(0) = 0, so f^k starts at x^k and each value is
    1 + sum_{k <= x_window} (t*m)^k f^k/k!, from the powers f^k/k! built
    once for every m.
    """
    powers = []  # the cells of f^k/k!, k >= 1, none of them at x^0
    p = LaurentPoly.one()
    for k in range(1, x_window + 1):
        p = (p * f).truncate_x(x_window).scale(Fraction(1, k))
        if not p:
            break
        powers.append(p._terms.items())
    out = {}
    for m in ms:
        if m:
            c = ck = t * m
            cells = {0: GaussianRational.ONE}
            for cells_k in powers:
                for e, v in cells_k:
                    v = v * ck
                    cells[e] = cells[e] + v if e in cells else v
                ck = ck * c
            out[m] = _cells(LaurentPoly(cells))
    return out


def _times_exp(s: TransverseSeries, j: int, offset: int, E: dict, x_window) -> TransverseSeries:
    """s with each term c z^M multiplied by E[M_j + offset], cut at x-degree
    x_window in the product kernel; a term with M_j + offset = 0 is kept as
    it is."""
    keep = {}
    runs = {}  # m -> the terms of s that E[m] multiplies
    for M, c in s._terms.items():
        m = M[j] + offset
        if m:
            runs.setdefault(m, []).append((M, sum(M), c))
        else:
            keep[M] = c
    if runs:
        data = {}
        const = (0,) * s.n
        for m, terms in runs.items():
            accumulate_products(data, s.cap, terms, [(const, 0, E[m])], x_window)
        keep.update(finish_products(data))
    return _ts_raw(s.n, s.cap, keep)


def _acts_additively(factor, cap: int) -> bool:
    """Is factor an exp factor (W, t, w) with no d/dx part whose every term
    raises z-degree by some k with 2k >= cap?

    Then W applied twice, or after another such factor, lands above the
    cap, so a run of them acts on a series s as s + V(s), V = sum t*W.
    """
    W, t, _ = factor
    return t is not None and W.a.is_zero() and all(2 * c.madic_order() >= cap + 2 for c in W.b)


def _lie_series(step, start, t, x_window):
    """start + sum_{k>=1} term_k with term_k = step(term_{k-1}, x_window, t/k).

    step is a field's ``_apply`` or ``_bracket``: step(s, x_window, c) is
    c * W(s) or c * [W, s], formed only up to x-degree x_window, exactly
    its truncation there.  The scalar t/k goes into the raw cells of the
    step's products, so no term is scaled after it is formed; start itself
    is taken as it is.  The sum stops at the first zero term.
    """
    acc = term = start
    k = 0
    while True:
        k += 1
        if k > _GUARD:
            raise CertificateError("Lie series failed to terminate; nilpotency is violated")
        term = step(term, x_window, t / k)
        if term.is_zero():
            return acc
        acc = acc + term


def log(phi: Automorphism) -> VectorField:
    """Logarithm of an automorphism tangent to the identity.

    Evaluates sum_m (-1)^{m+1}/m (Phi - id)^m on the coordinates; each
    application of Phi - id raises the m-adic order, so the sum is finite at
    the cap and the result is a 1-flat (hence nilpotent) field with
    exp(log Phi) = Phi.

    Each step u <- Phi(u) - u is formed in one raw accumulator: Phi's
    substitution (:meth:`Automorphism._apply_into`), then -u as the
    kernel's product of u by the constant -1.  The partial sum goes into
    a second raw accumulator, each u as its product by the constant
    (-1)^{m+1}/m, and is made canonical once per coordinate.  No series
    is negated, subtracted, scaled or added per step.
    """
    if not phi.tangent_to_identity():
        raise NotTangentToIdentityError(
            "log requires images equal to the coordinates through order 1"
        )
    n, cap = phi.n, phi.cap
    const = (0,) * n
    unit = LaurentPoly.one()
    minus_one = [(const, 0, _cells(unit, -1))]
    comps = []
    for coord in _coordinates(n, cap):
        total = {}
        u, m = coord, 0
        while True:
            data = {}
            phi._apply_into(data, u, 1, None)
            accumulate_products(data, cap, graded_terms(u), minus_one)
            u = _ts_raw(n, cap, finish_products(data))
            if u.is_zero():
                break
            m += 1
            if m > _GUARD:
                raise CertificateError("log failed to terminate")
            weight = [(const, 0, _cells(unit, 1 if m % 2 else -1, 0, m))]
            accumulate_products(total, cap, graded_terms(u), weight)
        comps.append(_ts_raw(n, cap, finish_products(total)))
    return VectorField(comps[0], comps[1:])


def exp_ad(W: VectorField, X: VectorField, x_window: int | None = None) -> VectorField:
    """exp(ad_W)(X) = sum_k ad_W^k(X)/k!, finite at the cap for nilpotent W.

    Equals exp(W).pushforward(X); the two routes are kept independent so one
    can certify the other: normalize's certificate is pure substitution,
    whether its sweep took a step by exp_ad or a level by one bracket.  ``x_window`` truncates X first, once, and then
    forms each bracket only up to that x-degree, from the previous bracket
    as cut: the term-truncated series.  As in :func:`exp`, that is
    exp(ad_W)(X) truncated at x-degree x_window only when ad_W lowers no
    x-degree: not when W has a negative x-exponent or an x-free term in its
    d/dx coefficient, whatever X holds.
    """
    W._compat(X)
    if x_window is not None:
        X = X.truncate_x(x_window)
    return _lie_series(W._bracket, X, Fraction(1), x_window)


def exp_decomposition(phi: Automorphism):
    """Split an x-normalized automorphism as A after exp(Z) (point maps).

    A is the purely linear map carrying phi's constant z-linear matrix and Z
    is the 1-flat logarithm of the tangent-to-identity remainder.  Point maps
    factor as phi = A o exp(Z); these substitution operators compose in the
    opposite order, so the recomposition identity reads
    ``exp(Z).compose(A) == phi``.  A map that is not x-normalized (img_x =
    x, z-images in m, a constant invertible z-linear part) raises
    SingularLinearPartError, a ValueError.
    """
    M = _x_normalized_matrix(phi.img_x, phi.img_z)
    if M is None:
        raise SingularLinearPartError(
            "splitting a map needs x -> x, z-images in m and a z-linear part constant in x"
        )
    A = Automorphism.linear(M, phi.cap)
    return A, log(phi.compose(A.invert()))
