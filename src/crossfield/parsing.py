"""Recursive-descent parser for vector fields, series and Q[i] coefficients.

The grammar is sums of monomial terms,

    term := [sign] factor ('*' factor)*
    factor := '(' coefficient ')' | rational | 'i' | var ['^' int]
    var := 'x' | 'z<k>' | 'dx' | 'dz<k>'
    coefficient := [sign] part [sign part]
    part := rational | rational '*' 'i' | 'i'    (rational := int ['/' int])

with exact Q[i] coefficients (compound ones parenthesized, at most one real
and one imaginary part), integer exponents (negative allowed on x only), and
exactly one differential symbol per term for field expressions.  Whitespace
separates tokens but may not split a number.  Errors carry 1-based
line/column positions; the canonical printers in coeff/series/lie emit exactly
this grammar, so print -> parse is the identity on canonical forms.  The
coefficient rule also reads every lone Q[i] value (``mu:``, ``--mu``,
``--lambda``, ``--time``), through ``GaussianRational.from_string``.
"""

from __future__ import annotations

from .coeff import GaussianRational, LaurentPoly, _gq
from .lie import VectorField
from .series import TransverseSeries

__all__ = ["FieldSyntaxError", "parse_field", "parse_series", "tokenize"]

_MAX_EXPONENT = 10**6


class FieldSyntaxError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str, line_offset: int = 0, col_offset: int = 0):
    """Split into NUM / IDENT / operator tokens with positions."""
    tokens = []
    append = tokens.append
    line = 1 + line_offset
    base = -1 - col_offset  # the column of text[i] is i - base
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "+-*/^()":
            append(_Token(ch, ch, line, i - base))
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(_Token("NUM", int(text[i:j]), line, i - base))
            i = j
        elif ch == "\n":
            line += 1
            base = i
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(_Token("IDENT", text[i:j], line, i - base))
            i = j
        else:
            raise FieldSyntaxError(f"unexpected character {ch!r}", line, i - base)
    append(_Token("EOF", None, line, n - base))
    return tokens


class _Parser:
    def __init__(self, text, n, line_offset=0, col_offset=0):
        self.tokens = tokenize(text, line_offset, col_offset)
        self.pos = 0
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            found = "end of expression" if tok.kind == "EOF" else repr(tok.value)
            raise FieldSyntaxError(f"expected {kind}, found {found}", tok.line, tok.col)
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise FieldSyntaxError(message, tok.line, tok.col)

    # -- terms ---------------------------------------------------------------

    def parse_sum(self, want_field: bool):
        """The expression's terms summed as {dvar: {K: {x_exp: coeff}}}.

        dvar is 0 for dx and for a series term, j for dz_j.  Sums that cancel
        and terms above the cap stay in; the series constructor drops them.
        """
        if self.peek().kind == "EOF":
            self.fail("empty expression")
        sums = {}
        sign = 1
        while True:
            coeff, x_exp, K, dvar = self.parse_term(want_field, sign)
            poly = sums.setdefault(dvar, {}).setdefault(K, {})
            poly[x_exp] = poly[x_exp] + coeff if x_exp in poly else coeff
            tok = self.peek()
            if tok.kind == "EOF":
                return sums
            if tok.kind not in "+-":
                self.fail(f"expected '+', '-' or end of expression, found {tok.value!r}")
            self.take()
            sign = -1 if tok.kind == "-" else 1

    def parse_term(self, want_field: bool, sign):
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        coeff = GaussianRational(sign)
        x_exp = 0
        K = [0] * self.n
        dvar = None
        first_tok = self.peek()
        while True:
            coeff, x_exp, dvar = self.parse_factor(coeff, x_exp, K, dvar)
            if self.peek().kind == "*":
                self.take()
                continue
            break
        if want_field and dvar is None:
            self.fail(
                "term has no differential symbol (dx, dz1, ...)", first_tok
            )
        if not want_field and dvar is not None:
            self.fail("differential symbols are not allowed here", first_tok)
        return coeff, x_exp, tuple(K), dvar or 0

    def parse_factor(self, coeff, x_exp, K, dvar):
        tok = self.take()
        if tok.kind == "(":
            c = self.parse_coefficient()
            self.take(")")
            return coeff * c, x_exp, dvar
        if tok.kind == "NUM":
            p, q = self.parse_rational(tok)
            return coeff * _gq(p, 0, q), x_exp, dvar
        if tok.kind == "IDENT":
            name = tok.value
            if name == "i":
                return coeff * GaussianRational(0, 1), x_exp, dvar
            if name == "x":
                return coeff, x_exp + self.parse_exponent(allow_negative=True), dvar
            if name == "dx":
                if dvar is not None:
                    self.fail("two differential symbols in one term", tok)
                self.reject_exponent()
                return coeff, x_exp, 0
            if name.startswith("dz"):
                idx = self.z_index(name[2:], tok)
                if dvar is not None:
                    self.fail("two differential symbols in one term", tok)
                self.reject_exponent()
                return coeff, x_exp, idx
            if name.startswith("z"):
                idx = self.z_index(name[1:], tok)
                e = self.parse_exponent(allow_negative=False, tok=tok)
                K[idx - 1] += e
                return coeff, x_exp, dvar
            self.fail(f"unknown variable {name!r}", tok)
        self.fail(f"unexpected {tok.value!r}", tok)

    def z_index(self, digits: str, tok) -> int:
        if not digits.isdecimal():
            self.fail(f"unknown variable {tok.value!r}", tok)
        idx = int(digits)
        if not 1 <= idx <= self.n:
            self.fail(
                f"variable {tok.value!r} out of range (n = {self.n})", tok
            )
        return idx

    def parse_exponent(self, allow_negative: bool, tok=None) -> int:
        if self.peek().kind != "^":
            return 1
        self.take()
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        num = self.take("NUM")
        e = sign * num.value
        if abs(e) > _MAX_EXPONENT:
            self.fail("exponent overflow", num)
        if e < 0 and not allow_negative:
            self.fail("negative exponents are only allowed on x", num)
        return e

    def reject_exponent(self):
        if self.peek().kind == "^":
            self.fail("differential symbols cannot carry exponents", self.peek())

    def parse_rational(self, numtok):
        """(numerator, denominator) of ``numtok ['/' NUM]``."""
        if self.peek().kind != "/":
            return numtok.value, 1
        self.take()
        dtok = self.take("NUM")
        if dtok.value == 0:
            self.fail("zero denominator", dtok)
        return numtok.value, dtok.value

    def parse_coefficient(self) -> GaussianRational:
        """coefficient := [sign] part [sign part], one real and one imaginary
        part at most; a repeated kind fails at its sign."""
        parts = [None, None]  # (p, q) of the real part, of the imaginary part
        tok = self.peek()
        while True:
            sign = 1
            if tok.kind in "+-":
                self.take()
                sign = -1 if tok.kind == "-" else 1
            imag, p, q = self.parse_coefficient_part()
            if parts[imag] is not None:
                self.fail(("two real parts", "two imaginary parts")[imag], tok)
            parts[imag] = (sign * p, q)
            tok = self.peek()
            if tok.kind not in "+-":
                break
        (p, q), (r, s) = (part or (0, 1) for part in parts)
        return _gq(p * s, r * q, q * s)

    def parse_coefficient_part(self):
        """(is imaginary, p, q) of one part: a, a/b, a/b*i or i."""
        tok = self.take()
        if tok.kind == "NUM":
            p, q = self.parse_rational(tok)
            if self.peek().kind == "*":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "IDENT" and nxt.value == "i":
                    self.pos += 2
                    return 1, p, q
            return 0, p, q
        if tok.kind == "IDENT" and tok.value == "i":
            return 1, 1, 1
        self.fail("expected a rational or 'i' inside the coefficient", tok)


def _parse_coefficient_text(text: str) -> GaussianRational:
    """The lone coefficient ``text``; GaussianRational.from_string reads this."""
    p = _Parser(text, 0)
    c = p.parse_coefficient()
    p.take("EOF")
    return c


def _series(n, cap, polys) -> TransverseSeries:
    return TransverseSeries(n, cap, {K: LaurentPoly(p) for K, p in polys.items()})


def parse_series(
    text: str, n: int, cap: int, line_offset: int = 0, col_offset: int = 0
) -> TransverseSeries:
    """Parse a scalar series expression (no differential symbols)."""
    sums = _Parser(text, n, line_offset, col_offset).parse_sum(want_field=False)
    return _series(n, cap, sums.get(0, {}))


def parse_field(
    text: str, n: int, cap: int, line_offset: int = 0, col_offset: int = 0
) -> VectorField:
    """Parse a vector-field expression (one dx/dzk per term); a bare "0",
    as the printers write the zero field, is the zero field."""
    if text.strip() == "0":
        return VectorField.zero(n, cap)
    sums = _Parser(text, n, line_offset, col_offset).parse_sum(want_field=True)
    a, *b = (_series(n, cap, sums.get(j, {})) for j in range(n + 1))
    return VectorField(a, b)
