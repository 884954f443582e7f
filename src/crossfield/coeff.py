"""Exact scalar arithmetic: Gaussian rationals and Laurent polynomials in x.

Everything algebraic in this package runs over the field Q[i], represented by
:class:`GaussianRational`, and over sparse Laurent polynomials in a single
variable x with Q[i] coefficients, represented by :class:`LaurentPoly`.
Laurent polynomials with nonnegative support ("Taylor" polynomials) stand in
for coefficients analytic on a disk; general ones for coefficients analytic
on an annulus.  Exactness is not a luxury here: deciding whether a weighted
exponent sum is an integer is what separates resonant monomials from
removable ones, and that question has no floating-point answer.

A Gaussian rational is stored as one integer triple ``(a, b, d)`` with value
``(a + b*i)/d``, kept canonical by a single three-argument ``gcd`` after each
operation; its real and imaginary parts are derived ``Fraction`` values.

Values are immutable after construction and safe to share between threads.
The containers hold Q[i] values only: ints and Fractions are converted on the
way in, and floats or complex numbers raise ``TypeError``.  Floats appear
only at the holonomy boundary, through :meth:`GaussianRational.as_complex`
and :meth:`LaurentPoly.evaluate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "GaussianRational",
    "LaurentPoly",
    "CoefficientSyntaxError",
    "as_scalar",
]


class CoefficientSyntaxError(ValueError):
    """Raised when a textual coefficient does not match the Q[i] grammar."""


class GaussianRational:
    """An element of Q[i], stored as the integer triple ``(a, b, d)``.

    The value is ``(a + b*i)/d``.  The triple is canonical: ``d > 0`` and
    ``gcd(a, b, d) == 1``, so zero is ``(0, 0, 1)``.  The form is unique, so
    equality is structural, and each of ``+ - * /`` normalizes with one
    three-argument ``gcd``.  ``re`` and ``im`` are read-only ``Fraction``
    properties derived from the triple.  As with ``Fraction``, the private
    slots are written only when a value is built.

    Operands may be ``GaussianRational``, ``int`` or ``Fraction`` on either
    side; any other type gives ``NotImplemented`` (so floats raise
    ``TypeError``).

    >>> (GaussianRational(1, 1) / GaussianRational(1, -1)) == GaussianRational(0, 1)
    True
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        for v in (re, im):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(v).__name__}")
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        return _gq(p * s, r * q, q * s)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        """Parse ``[sign] part [sign part]``, each part ``a``, ``a/b``,
        ``a/b*i`` or ``i``: at most one real and one imaginary part.

        This is the coefficient rule of :mod:`crossfield.parsing`, which also
        reads parenthesized coefficients in fields; ``str`` round-trips.
        """
        # parsing sits above coeff, so it is imported at call time
        from .parsing import FieldSyntaxError, _parse_coefficient_text

        try:
            return _parse_coefficient_text(text)
        except FieldSyntaxError:
            raise CoefficientSyntaxError(f"bad coefficient syntax: {text!r}") from None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_integer(self) -> bool:
        return not self._b and self._d == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a, b, d = self._a, self._b, self._d
        if d == f:
            return _gq(a + c, b + e, d)
        return _gq(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a, b, d = self._a, self._b, self._d
        if d == f:
            return _gq(a - c, b - e, d)
        return _gq(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a, b, d = self._a, self._b, self._d
        # real factors are the overwhelmingly common case; skip the full
        # complex product (4 multiplications) for them
        if not b:
            return _gq(a * c, a * e, d * f)
        if not e:
            return _gq(a * c, b * c, d * f)
        return _gq(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        else:
            t = _parts(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a, b, d = self._a, self._b, self._d
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q[i]")
            if c < 0:
                c, f = -c, -f
            return _gq(a * f, b * f, d * c)
        return _gq((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        t = _parts(other)
        if t is None:
            return NotImplemented
        return _gq(*t) / self

    def __neg__(self):
        return _gq(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    # -- conversions -------------------------------------------------------

    def as_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # real values hash like the equal int or Fraction
        if not self._b:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        re, im = self.re, self.im
        if not im:
            return str(re)
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        if not re:
            return imag if im > 0 else "-" + imag
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _gq(a: int, b: int, d: int) -> GaussianRational:
    """Internal constructor: (a + b*i)/d for ints with d > 0, made canonical."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    v = _new(GaussianRational)
    v._a = a
    v._b = b
    v._d = d
    return v


def _parts(v):
    """The triple of an int or Fraction operand; None for any other type."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, 0, v.denominator
    return None


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


def as_scalar(v):
    """Coerce an int, Fraction or GaussianRational to a Q[i] scalar."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    raise TypeError(f"unsupported scalar type {type(v).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial in x: a map {exponent: nonzero coefficient}.

    Exponents may be negative; a polynomial whose support is >= 0 is "Taylor"
    and models a disk-analytic coefficient, otherwise only annulus-analytic.
    The zero polynomial has empty support.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(e, int):
                    raise TypeError("exponents must be ints")
                c = as_scalar(c)
                if c.is_zero():
                    continue
                data[e] = c
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: GaussianRational.ONE})

    @classmethod
    def x(cls, exponent: int = 1, coeff=1):
        return cls({exponent: coeff})

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_taylor(self) -> bool:
        """True iff every stored exponent is >= 0 (zero counts as Taylor)."""
        return all(e >= 0 for e in self._terms)

    def min_exp(self):
        return min(self._terms) if self._terms else None

    def max_exp(self):
        return max(self._terms) if self._terms else None

    def support(self):
        return sorted(self._terms)

    def terms(self):
        """Terms as (exponent, coefficient), ascending exponent."""
        return [(e, self._terms[e]) for e in sorted(self._terms)]

    def coefficient(self, e: int):
        return self._terms.get(e, GaussianRational.ZERO)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e)
            s = c if s is None else s + c
            if s._a or s._b:
                data[e] = s
            else:
                data.pop(e, None)
        return _lp_raw(data)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _lp_raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            data = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    c = c1 * c2
                    s = data.get(e)
                    s = c if s is None else s + c
                    if s._a or s._b:
                        data[e] = s
                    else:
                        data.pop(e, None)
            return _lp_raw(data)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        # ints and Fractions multiply Q[i] values directly, unconverted
        if not isinstance(c, (int, Fraction)):
            c = as_scalar(c)
        if not c:
            return LaurentPoly()
        # Q[i] is a field: a product of nonzero values is nonzero
        return _lp_raw({e: v * c for e, v in self._terms.items()})

    def truncate_x(self, max_deg: int) -> "LaurentPoly":
        """Drop terms of x-degree above max_deg (quotient by x^{max_deg+1}).

        Benign for Taylor data: products only push degrees up, so truncating
        between ring operations computes exactly in the quotient ring.
        """
        return _lp_raw({e: c for e, c in self._terms.items() if e <= max_deg})

    def derivative(self) -> "LaurentPoly":
        """d/dx, exact (works on negative exponents too)."""
        # c * e is nonzero for nonzero c and e
        return _lp_raw({e - 1: c * e for e, c in self._terms.items() if e})

    def euler_solve(self, s):
        """Split g = self into (f, residual) with (x*d/dx + s) f = g - residual.

        The residual collects exactly the terms a_e * x^e with e + s = 0; those
        are unsolvable for f (the homological obstruction) and stay behind.  f
        carries no term at exponent -s.
        """
        s = as_scalar(s)
        f = {}
        r = {}
        for e, c in self._terms.items():
            k = s + e
            if k == 0:
                r[e] = c
            else:
                f[e] = c / k
        return _lp_raw(f), _lp_raw(r)

    # -- conversions -------------------------------------------------------

    def evaluate(self, x: complex) -> complex:
        """Numeric evaluation at a nonzero complex point."""
        out = 0j
        for e, c in self._terms.items():
            out += c.as_complex() * x**e
        return out

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for e, c in self.terms():
            pieces.append(format_term(c, x_power_text(e)))
        return join_terms(pieces)

    def __repr__(self):
        return f"LaurentPoly({{{', '.join(f'{e}: {c}' for e, c in self.terms())}}})"


def _lp_raw(data) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "_terms", data)
    return p


# -- canonical term rendering, shared by polynomials, series and fields -----


def x_power_text(e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "x"
    return f"x^{e}"


def format_term(coeff, var_text: str):
    """Render one monomial term as (negative_sign, body_text).

    Pure-real and pure-imaginary coefficients pull their sign out so the
    printer can join with " + " / " - "; mixed coefficients stay inside
    parentheses, which is also the only form the grammar accepts for them.
    """
    if not coeff.im:
        neg = coeff.re < 0
        mag = abs(coeff.re)
        if mag == 1 and var_text:
            return neg, var_text
        body = str(mag)
    elif not coeff.re:
        neg = coeff.im < 0
        mag = abs(coeff.im)
        body = "i" if mag == 1 else f"{mag}*i"
    else:
        body = f"({coeff})"
        neg = False
    if var_text:
        body = f"{body}*{var_text}"
    return neg, body


def join_terms(pieces) -> str:
    out = []
    for idx, (neg, body) in enumerate(pieces):
        if idx == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)
