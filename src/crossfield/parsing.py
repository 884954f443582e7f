"""Recursive-descent parser for vector-field and series expressions.

The grammar is sums of monomial terms,

    term := [sign] factor ('*' factor)*
    factor := '(' coefficient ')' | rational | 'i' | var ['^' int]
    var := 'x' | 'z<k>' | 'dx' | 'dz<k>'

with exact Q[i] coefficients (compound ones parenthesized), integer
exponents (negative allowed on x only), and exactly one differential symbol
per term for field expressions.  Errors carry 1-based line/column positions;
the canonical printers in coeff/series/lie emit exactly this grammar, so
print -> parse is the identity on canonical forms.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import GaussianRational, LaurentPoly
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
    line = 1
    col = 1
    i = 0
    n = len(text)

    def pos(l, c):
        return (l + line_offset, c + col_offset if l == 1 else c)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        l0, c0 = pos(line, col)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUM", int(text[i:j]), l0, c0))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], l0, c0))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, l0, c0))
            col += 1
            i += 1
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", l0, c0)
    l0, c0 = pos(line, col)
    tokens.append(_Token("EOF", None, l0, c0))
    return tokens


class _Parser:
    def __init__(self, text, n, cap, line_offset=0, col_offset=0):
        self.tokens = tokenize(text, line_offset, col_offset)
        self.pos = 0
        self.n = n
        self.cap = cap

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
        """Returns list of (coeff, x_exp, K, dvar) monomials."""
        if self.peek().kind == "EOF":
            self.fail("empty expression")
        terms = [self.parse_term(want_field, leading=True)]
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind in "+-":
                self.take()
                terms.append(
                    self.parse_term(want_field, sign=-1 if tok.kind == "-" else 1)
                )
            else:
                self.fail(f"expected '+', '-' or end of expression, found {tok.value!r}")
        return terms

    def parse_term(self, want_field: bool, leading=False, sign=1):
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
        return coeff, x_exp, tuple(K), dvar

    def parse_factor(self, coeff, x_exp, K, dvar):
        tok = self.take()
        if tok.kind == "(":
            c = self.parse_coefficient()
            self.take(")")
            return coeff * c, x_exp, dvar
        if tok.kind == "NUM":
            return coeff * self.parse_rational_tail(tok), x_exp, dvar
        if tok.kind == "IDENT":
            name = tok.value
            if name == "i":
                return coeff * GaussianRational(0, 1), x_exp, dvar
            if name == "x":
                return coeff, x_exp + self.parse_exponent(allow_negative=True), dvar
            if name == "dx":
                if dvar is not None:
                    self.fail("two differential symbols in one term", tok)
                self.reject_exponent(tok)
                return coeff, x_exp, 0
            if name.startswith("dz"):
                idx = self.z_index(name[2:], tok)
                if dvar is not None:
                    self.fail("two differential symbols in one term", tok)
                self.reject_exponent(tok)
                return coeff, x_exp, idx
            if name.startswith("z"):
                idx = self.z_index(name[1:], tok)
                e = self.parse_exponent(allow_negative=False, tok=tok)
                K[idx - 1] += e
                return coeff, x_exp, dvar
            self.fail(f"unknown variable {name!r}", tok)
        self.fail(f"unexpected {tok.value!r}", tok)

    def z_index(self, digits: str, tok) -> int:
        if not digits.isdigit():
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

    def reject_exponent(self, tok):
        if self.peek().kind == "^":
            self.fail("differential symbols cannot carry exponents", self.peek())

    def parse_rational_tail(self, numtok) -> GaussianRational:
        num = numtok.value
        den = 1
        if self.peek().kind == "/":
            self.take()
            dtok = self.take("NUM")
            if dtok.value == 0:
                self.fail("zero denominator", dtok)
            den = dtok.value
        return GaussianRational(Fraction(num, den))

    def parse_coefficient(self) -> GaussianRational:
        total = GaussianRational.ZERO
        first = True
        while True:
            sign = 1
            tok = self.peek()
            if tok.kind in "+-":
                self.take()
                sign = -1 if tok.kind == "-" else 1
            elif not first:
                break
            part = self.parse_coefficient_part()
            total = total + part * sign
            first = False
            if self.peek().kind not in "+-":
                break
        return total

    def parse_coefficient_part(self) -> GaussianRational:
        tok = self.take()
        if tok.kind == "NUM":
            mag = self.parse_rational_tail(tok)
            if self.peek().kind == "*":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "IDENT" and nxt.value == "i":
                    self.take()
                    self.take()
                    return GaussianRational(0, mag.re)
            return mag
        if tok.kind == "IDENT" and tok.value == "i":
            return GaussianRational(0, 1)
        self.fail("expected a rational or 'i' inside the coefficient", tok)


def parse_series(
    text: str, n: int, cap: int, line_offset: int = 0, col_offset: int = 0
) -> TransverseSeries:
    """Parse a scalar series expression (no differential symbols)."""
    p = _Parser(text, n, cap, line_offset, col_offset)
    out = TransverseSeries.zero(n, cap)
    for coeff, x_exp, K, _ in p.parse_sum(want_field=False):
        out = out + TransverseSeries.monomial(n, cap, K, LaurentPoly.x(x_exp, coeff))
    return out


def parse_field(
    text: str, n: int, cap: int, line_offset: int = 0, col_offset: int = 0
) -> VectorField:
    """Parse a vector-field expression (one dx/dzk per term); a bare "0",
    as the printers write the zero field, is the zero field."""
    if text.strip() == "0":
        return VectorField.zero(n, cap)
    p = _Parser(text, n, cap, line_offset, col_offset)
    a = TransverseSeries.zero(n, cap)
    b = [TransverseSeries.zero(n, cap) for _ in range(n)]
    for coeff, x_exp, K, dvar in p.parse_sum(want_field=True):
        mono = TransverseSeries.monomial(n, cap, K, LaurentPoly.x(x_exp, coeff))
        if dvar == 0:
            a = a + mono
        else:
            b[dvar - 1] = b[dvar - 1] + mono
    return VectorField(a, b)
