"""Truncated transversely-formal series and the graded-lex monomial order.

A :class:`TransverseSeries` is a polynomial in z_1..z_n truncated at a total
degree cap d, with :class:`~crossfield.coeff.LaurentPoly` coefficients in x.
It models an element of the ring of formal power series in z with coefficients
analytic on an annulus (or disk, when every coefficient is Taylor), reduced
modulo the ideal m^{d+1}, m = <z_1,...,z_n>.  Products are exact and then
reduced modulo the cap, so computing at cap d and truncating to d' < d agrees
with computing at cap d' from the start.

:class:`MonomialIndex` is the (K, j) bookkeeping for monomial vector fields
z^K * (z_j d/dz_j): K has integer entries >= -1 with at most one -1, sitting
at position j, so that z^{K+e_j} d/dz_j is a genuine monomial field.  The
elimination loop and the centralizer solver both walk these indices in the
graded lexicographic pair order implemented here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import add

from .coeff import (
    GaussianRational,
    LaurentPoly,
    _gq,
    _lp_raw,
    format_term,
    join_terms,
    x_power_text,
)

__all__ = [
    "TransverseSeries",
    "MonomialIndex",
    "DimensionMismatchError",
    "grlex_key",
    "grlex_compare",
    "iter_exponents",
    "iter_l_indices",
]


class DimensionMismatchError(ValueError):
    """Operands disagree in variable count or truncation cap."""


def _check_exponent(n, K):
    if len(K) != n:
        raise DimensionMismatchError(f"exponent {K} has length {len(K)}, expected {n}")
    if any((not isinstance(k, int)) or k < 0 for k in K):
        raise ValueError(f"series exponents must be nonnegative ints, got {K}")


def grlex_key(K):
    """Sort key for graded lexicographic order: total degree, then lex."""
    return (sum(K), tuple(K))


def grlex_compare(a, b) -> int:
    """-1, 0 or 1 comparing (K, j) monomial indices in graded-lex pair order."""
    if a.n != b.n:
        raise DimensionMismatchError("cannot compare indices of different arity")
    ka, kb = a.pair_key(), b.pair_key()
    return (ka > kb) - (ka < kb)


def iter_exponents(n: int, min_degree: int, max_degree: int):
    """All z-exponent tuples (entries >= 0) with total degree in range, grlex order."""
    for total in range(min_degree, max_degree + 1):
        yield from sorted(_compositions(total, n))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        return [(total,)]
    out = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(total + parts - 2 - prev)
        out.append(tuple(comp))
    return out


class MonomialIndex:
    """Index (K, j) of the monomial vector field z^K * (z_j d/dz_j).

    j is 1-based.  K may have a single -1 entry, necessarily at position j;
    then z^{K+e_j} d/dz_j is still a monomial field (e.g. K = e_1 - e_2, j = 2
    is z_1 d/dz_2).  The total degree |K| is the grading used everywhere.
    """

    __slots__ = ("K", "j")

    def __init__(self, K, j: int):
        K = tuple(K)
        n = len(K)
        if not 1 <= j <= n:
            raise ValueError(f"direction j={j} out of range 1..{n}")
        for pos, k in enumerate(K):
            if not isinstance(k, int) or k < -1:
                raise ValueError(f"bad index entry {k} in {K}")
            if k == -1 and pos != j - 1:
                raise ValueError(f"entry -1 of {K} must sit at position j={j}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "j", j)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIndex is immutable")

    @property
    def n(self) -> int:
        return len(self.K)

    def degree(self) -> int:
        return sum(self.K)

    def z_exponent(self):
        """The actual monomial exponent K + e_j (all entries >= 0)."""
        M = list(self.K)
        M[self.j - 1] += 1
        return tuple(M)

    def pair_key(self):
        return (sum(self.K), self.K, self.j)

    def __eq__(self, other):
        if not isinstance(other, MonomialIndex):
            return NotImplemented
        return self.K == other.K and self.j == other.j

    def __hash__(self):
        return hash((self.K, self.j))

    def __repr__(self):
        return f"MonomialIndex({self.K}, j={self.j})"


def iter_l_indices(n: int, min_degree: int, max_degree: int, with_direction=True):
    """Walk the monomial-field indices of degree |K| in [min, max].

    With ``with_direction`` yields :class:`MonomialIndex` pairs (K, j) in
    ascending graded-lex pair order; otherwise yields the K tuples only (each
    once), ascending.  Degrees below 0 never occur: |K| >= 0 by construction.
    """
    for total in range(max(min_degree, 0), max_degree + 1):
        ks = set(_compositions(total, n))
        for p in range(n):
            for comp in _compositions(total + 1, n - 1) if n > 1 else []:
                K = comp[:p] + (-1,) + comp[p:]
                ks.add(K)
        for K in sorted(ks):
            if not with_direction:
                yield K
                continue
            if -1 in K:
                yield MonomialIndex(K, K.index(-1) + 1)
            else:
                for j in range(1, n + 1):
                    yield MonomialIndex(K, j)


class TransverseSeries:
    """Polynomial in z_1..z_n mod m^{cap+1} with Laurent coefficients in x."""

    __slots__ = ("n", "cap", "_terms")

    def __init__(self, n: int, cap: int, terms=None):
        if n < 1:
            raise ValueError("need at least one transverse variable")
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        data = {}
        if terms:
            for K, c in terms.items():
                K = tuple(K)
                _check_exponent(n, K)
                if sum(K) > cap:
                    continue
                if not isinstance(c, LaurentPoly):
                    c = LaurentPoly.constant(c)
                if c.is_zero():
                    continue
                data[K] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("TransverseSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, cap):
        return cls(n, cap)

    @classmethod
    def constant(cls, n, cap, c):
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.constant(c)
        return cls(n, cap, {(0,) * n: c})

    @classmethod
    def variable(cls, n, cap, i: int):
        """The coordinate series z_i (i is 1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        K = tuple(1 if p == i - 1 else 0 for p in range(n))
        return cls(n, cap, {K: LaurentPoly.one()})

    @classmethod
    def x_series(cls, n, cap, exponent: int = 1):
        return cls.constant(n, cap, LaurentPoly.x(exponent))

    @classmethod
    def monomial(cls, n, cap, K, coeff):
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.constant(coeff)
        return cls(n, cap, {tuple(K): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Terms as (K, LaurentPoly), ascending graded-lex."""
        return [(K, self._terms[K]) for K in sorted(self._terms, key=grlex_key)]

    def coefficient(self, K) -> LaurentPoly:
        return self._terms.get(tuple(K), LaurentPoly.zero())

    def madic_order(self):
        """Smallest total z-degree present; math.inf for the zero series."""
        if not self._terms:
            return math.inf
        return min(sum(K) for K in self._terms)

    def is_taylor(self) -> bool:
        return all(c.is_taylor() for c in self._terms.values())

    def linear_part(self):
        """Coefficients of z_1..z_n as a list of LaurentPoly."""
        out = []
        for i in range(self.n):
            K = tuple(1 if p == i else 0 for p in range(self.n))
            out.append(self.coefficient(K))
        return out

    def _compat(self, other):
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError(
                f"series shapes differ: (n={self.n}, cap={self.cap}) vs "
                f"(n={other.n}, cap={other.cap})"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (LaurentPoly, GaussianRational, int)):
            other = TransverseSeries.constant(self.n, self.cap, other)
        if not isinstance(other, TransverseSeries):
            return NotImplemented
        self._compat(other)
        data = dict(self._terms)
        for K, c in other._terms.items():
            s = data.get(K)
            s = c if s is None else s + c
            if s.is_zero():
                data.pop(K, None)
            else:
                data[K] = s
        return _ts_raw(self.n, self.cap, data)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _ts_raw(self.n, self.cap, {K: -c for K, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, TransverseSeries):
            self._compat(other)
            data = {}
            accumulate_products(data, self.cap, graded_terms(self), graded_terms(other))
            return _ts_raw(self.n, self.cap, finish_products(data))
        if isinstance(other, (LaurentPoly, GaussianRational, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        if isinstance(c, (int, Fraction, GaussianRational)):
            data = {}
            for K, v in self._terms.items():
                s = v.scale(c)
                if not s.is_zero():
                    data[K] = s
            return _ts_raw(self.n, self.cap, data)
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.constant(c)
        if c.is_zero():
            return TransverseSeries.zero(self.n, self.cap)
        data = {}
        for K, v in self._terms.items():
            s = v * c
            if not s.is_zero():
                data[K] = s
        return _ts_raw(self.n, self.cap, data)

    # -- calculus ----------------------------------------------------------

    # no caller in the package: perfbench/spans.py wraps it under --trace 1
    def diff_z(self, i: int) -> "TransverseSeries":
        """d/dz_i (i is 1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        data = {}
        for K, c in self._terms.items():
            k = K[i - 1]
            if k == 0:
                continue
            K2 = tuple(v - (1 if p == i - 1 else 0) for p, v in enumerate(K))
            data[K2] = c * k
        return _ts_raw(self.n, self.cap, data)

    def truncate_x(self, max_deg: int) -> "TransverseSeries":
        data = {}
        for K, c in self._terms.items():
            t = c.truncate_x(max_deg)
            if not t.is_zero():
                data[K] = t
        return _ts_raw(self.n, self.cap, data)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TransverseSeries):
            return NotImplemented
        return (
            self.n == other.n and self.cap == other.cap and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self.cap, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for K, poly in self.terms():
            zt = z_power_text(K)
            for e, c in poly.terms():
                xt = x_power_text(e)
                var = "*".join(t for t in (xt, zt) if t)
                pieces.append(format_term(c, var))
        return join_terms(pieces)

    def __repr__(self):
        return f"TransverseSeries(n={self.n}, cap={self.cap}, {self.__str__()!r})"


def graded_terms(s: TransverseSeries):
    """The terms of s as (K, |K|, coefficient) triples, the kernel's input."""
    return [(K, sum(K), c) for K, c in s._terms.items()]


def accumulate_products(data: dict, cap: int, left, right, k: int = 1) -> None:
    """Add k*c1*c2*z^(K1+K2) to the raw accumulator data for every pair of
    (K1, d1, c1) in left and (K2, d2, c2) in right with d1 + d2 <= cap.

    This is the one truncated-product loop of the series, derivation and
    substitution layers: TransverseSeries products, VectorField.apply,
    brackets and Automorphism.apply all run through it.  d1 and d2 are the
    total degrees |K1| and |K2|; a pair above the cap is skipped before its
    product is formed.  The integer k (the exponent of a z-derivative, or
    the sign of a bracket half) multiplies the numerators of each left
    coefficient once per call.

    data maps K -> {e: [a, b, d]}, the value (a + b*i)/d with d > 0 and no
    common factor removed.  A term pair adds its Gaussian-integer numerator
    over d1*d2: directly when the cell already has that denominator, over
    the lcm of both otherwise.  No scalar or polynomial is formed per pair,
    and no common factor is sought; :func:`finish_products` makes each cell
    canonical once the accumulation of a result is complete.
    """
    right = [
        (K2, d2, [(e, c._a, c._b, c._d) for e, c in p2._terms.items()])
        for K2, d2, p2 in right
    ]
    for K1, d1, p1 in left:
        room = cap - d1
        if room < 0:
            continue
        cells1 = [(e, k * c._a, k * c._b, c._d) for e, c in p1._terms.items()]
        for K2, d2, cells2 in right:
            if d2 > room:
                continue
            K = tuple(map(add, K1, K2))
            row = data.get(K)
            if row is None:
                row = data[K] = {}
            for e1, a1, b1, q1 in cells1:
                for e2, a2, b2, q2 in cells2:
                    e = e1 + e2
                    a = a1 * a2 - b1 * b2
                    b = a1 * b2 + b1 * a2
                    q = q1 * q2
                    cell = row.get(e)
                    if cell is None:
                        row[e] = [a, b, q]
                    elif cell[2] == q:
                        cell[0] += a
                        cell[1] += b
                    else:
                        d = cell[2]
                        m = math.lcm(d, q)
                        s, t = m // d, m // q
                        cell[0] = cell[0] * s + a * t
                        cell[1] = cell[1] * s + b * t
                        cell[2] = m


def finish_products(data: dict) -> dict:
    """The raw accumulator data as a term dict {K: LaurentPoly}.

    Each cell becomes a canonical Q[i] value with one gcd; zero cells and
    monomials left with no cell are dropped.
    """
    out = {}
    for K, row in data.items():
        terms = {e: _gq(a, b, d) for e, (a, b, d) in row.items() if a or b}
        if terms:
            out[K] = _lp_raw(terms)
    return out


def _ts_raw(n, cap, data) -> TransverseSeries:
    s = TransverseSeries.__new__(TransverseSeries)
    object.__setattr__(s, "n", n)
    object.__setattr__(s, "cap", cap)
    object.__setattr__(s, "_terms", data)
    return s


def z_power_text(K) -> str:
    parts = []
    for i, k in enumerate(K, start=1):
        if k == 0:
            continue
        parts.append(f"z{i}" if k == 1 else f"z{i}^{k}")
    return "*".join(parts)
