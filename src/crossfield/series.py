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
from bisect import bisect_right
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
            left, right = _series_cells(self._terms), _series_cells(other._terms)
            accumulate_products(data, self.cap, left, right)
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
        return _terms_text([(self, "")])

    def __repr__(self):
        return f"TransverseSeries(n={self.n}, cap={self.cap}, {self.__str__()!r})"


# -- the kernel's items: raw integer cells ----------------------------------
#
# A cell (e, a, b, d) is the value (a + b*i)/d at x^e, with d > 0 and no
# common factor removed.  An item (K, |K|, cells) is the term z^K with those
# cells as its coefficient.  A caller folds its own factor (a derivative's
# exponent, a Taylor layer's 1/m, a Lie-series coefficient t/k, a sign)
# into the cells of its items, so no polynomial or scaled series is built
# only to be multiplied.


def _triple(c) -> tuple:
    """(a, b, d) with c = (a + b*i)/d, for an int, Fraction or Q[i] scalar c."""
    if isinstance(c, GaussianRational):
        return c._a, c._b, c._d
    return c.numerator, 0, c.denominator


def _cells(poly: LaurentPoly, a: int = 1, b: int = 0, d: int = 1) -> list:
    """The cells of poly times (a + b*i)/d, unreduced."""
    if b:
        return [
            (e, a * c._a - b * c._b, a * c._b + b * c._a, d * c._d)
            for e, c in poly._terms.items()
        ]
    return [(e, a * c._a, a * c._b, d * c._d) for e, c in poly._terms.items()]


def _scaled(cells: list, a: int, b: int = 0, d: int = 1) -> list:
    """The cells times (a + b*i)/d, unreduced; cells itself for the factor 1."""
    if b:
        return [(e, a * x - b * y, a * y + b * x, d * q) for e, x, y, q in cells]
    return cells if a == 1 == d else [(e, a * x, a * y, d * q) for e, x, y, q in cells]


def _derived(cells: list, m: int = 1) -> list:
    """The cells of the x-derivative of cells, over m: x^e goes to
    (e/m) x^(e-1), with e folded into the numerators and m into the
    denominator."""
    return [(e - 1, e * a, e * b, m * d) for e, a, b, d in cells if e]


def _series_cells(terms: dict, sign: int = 1) -> list:
    """A series' term dict {K: LaurentPoly} as items (K, |K|, cells), times sign."""
    return [(K, sum(K), _cells(c, sign)) for K, c in terms.items()]


def accumulate_products(
    data: dict, cap: int, left, right, x_window: int | None = None
) -> None:
    """Add c1*c2*z^(K1+K2) to the raw accumulator data for every pair of
    items (K1, d1, c1) in left and (K2, d2, c2) in right with d1 + d2 <= cap.

    This is the one truncated-product loop of the series, derivation and
    substitution layers; a pair above the cap is skipped before its product
    is formed.  Both sides take one item format, (K, |K|, cells), with raw
    cells (e, a, b, d), the value (a + b*i)/d at x^e with d > 0 and no
    common factor removed, in any order, the caller's own factor already
    multiplied in: a derivative's exponent, a Taylor layer's 1/m, a
    Lie-series coefficient, a sign.  A chain of products hands its
    intermediate results on as items (:func:`finish_items`) and builds a
    series only for the value it returns (:func:`finish_products`).

    With an int ``x_window`` the product is a short product in x as well:
    a cell pair x^e1 * x^e2 with e1 + e2 > x_window is skipped before it is
    formed, so the call adds exactly the truncate_x(x_window) of what it
    adds without a window.  Truncating between chained products is exact
    only when no factor has a negative x-exponent and no later step lowers
    an x-degree (an x-derivative, or a moving x-image); the callers that
    pass a window see to that.  With a window each right item's cells are
    sorted by exponent once, and each left cell x^e1 reads their prefix
    of exponent <= x_window - e1, found with one bisection.

    data maps K -> {e: [a, b, d]}, the same raw value.  A cell pair adds
    its Gaussian-integer numerator over d1*d2: directly when the cell
    already has that denominator, over the lcm of both otherwise; no
    scalar or polynomial is formed per pair and no common factor is sought.
    """
    windowed = x_window is not None
    sides = []
    for K2, d2, cells2 in right:
        exps2 = None
        if windowed:
            cells2 = sorted(cells2)
            exps2 = [cell[0] for cell in cells2]
        sides.append((K2, d2, cells2, exps2))
    for K1, d1, cells1 in left:
        room = cap - d1
        if room < 0:
            continue
        for K2, d2, cells2, exps2 in sides:
            if d2 > room:
                continue
            K = tuple(map(add, K1, K2))
            row = data.get(K)
            if row is None:
                row = data[K] = {}
            for e1, a1, b1, q1 in cells1:
                cut = cells2[: bisect_right(exps2, x_window - e1)] if windowed else cells2
                for e2, a2, b2, q2 in cut:
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


def _merge_products(into: dict, data: dict) -> dict:
    """into, with the raw accumulator data added in, cell by cell; into may
    take over data's rows and cells, so data is not read afterwards."""
    for K, row in data.items():
        dest = into.setdefault(K, row)
        for e, cell in row.items() if dest is not row else ():
            held = dest.setdefault(e, cell)
            if held is not cell:
                m = held[2] if held[2] == cell[2] else math.lcm(held[2], cell[2])
                s, t = m // held[2], m // cell[2]
                held[:] = held[0] * s + cell[0] * t, held[1] * s + cell[1] * t, m
    return into


def finish_items(data: dict) -> list:
    """The raw accumulator data as items (K, |K|, cells), each cell reduced
    by one gcd: what _series_cells(finish_products(data)) returns, in the
    same order, with no scalar, polynomial or series built."""
    out = []
    for K, row in data.items():
        cells = [(e, a // g, b // g, d // g) for e, (a, b, d) in row.items() if a or b
                 for g in (math.gcd(a, b, d),)]
        if cells:
            out.append((K, sum(K), cells))
    return out


def _ts_raw(n, cap, data) -> TransverseSeries:
    s = TransverseSeries.__new__(TransverseSeries)
    object.__setattr__(s, "n", n)
    object.__setattr__(s, "cap", cap)
    object.__setattr__(s, "_terms", data)
    return s


def _terms_text(parts) -> str:
    """The terms of every (series, suffix) in parts as one sum, "0" when
    there are none: each term is coefficient*x^e*z^K, then *suffix when
    the suffix is not empty (a field's dx or dz_j)."""
    pieces = []
    for s, suffix in parts:
        for K, poly in s.terms():
            zt = z_power_text(K)
            for e, c in poly.terms():
                var = "*".join(t for t in (x_power_text(e), zt, suffix) if t)
                pieces.append(format_term(c, var))
    return join_terms(pieces) if pieces else "0"


def z_power_text(K) -> str:
    parts = []
    for i, k in enumerate(K, start=1):
        if k == 0:
            continue
        parts.append(f"z{i}" if k == 1 else f"z{i}^{k}")
    return "*".join(parts)
