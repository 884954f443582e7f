import itertools
import random
import re
from fractions import Fraction

import pytest

from crossfield.coeff import CoefficientSyntaxError
from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import VectorField
from crossfield.parsing import FieldSyntaxError, _Parser, parse_field, parse_series
from crossfield.series import MonomialIndex, TransverseSeries

from helpers import rand_field, rand_gq, rand_series


class TestParseField:
    def test_running_example(self):
        X = parse_field("x*dx + (-1)*z1*dz1 + x*z1^2*dz1", 1, 4)
        expect = (
            VectorField.euler(1, 4)
            + VectorField.diagonal([G(-1)], 4)
            + VectorField.monomial(1, 4, MonomialIndex((1,), 1), LaurentPoly.x())
        )
        assert X == expect

    def test_pure_euler(self):
        assert parse_field("x*dx", 2, 3) == VectorField.euler(2, 3)

    def test_non_normalized_is_grammatical(self):
        # validation of the x-normalized shape is a separate concern
        X = parse_field("z1*dx", 1, 3)
        assert not X.is_x_normalized()

    def test_whitespace_insensitive(self):
        a = parse_field("x*dx - z1*dz1", 1, 3)
        b = parse_field("  x * dx\n -   z1*dz1 ", 1, 3)
        assert a == b

    def test_negative_x_exponents(self):
        X = parse_field("x^-2*z1*dz1", 1, 3)
        assert X.b[0].coefficient((1,)) == LaurentPoly.x(-2)

    def test_repeated_factors_multiply(self):
        X = parse_field("x*x^2*z1*z1*dz1", 1, 4)
        assert X.b[0].coefficient((2,)) == LaurentPoly.x(3)

    def test_coefficient_forms(self):
        X = parse_field("1/2*z1*dz1 + i*z1^2*dz1 + (1/2-2/3*i)*x*dx", 1, 4)
        assert X.b[0].coefficient((1,)).coefficient(0) == G(Fraction(1, 2))
        assert X.b[0].coefficient((2,)).coefficient(0) == G(0, 1)
        assert X.a.coefficient((0,)).coefficient(1) == G(
            Fraction(1, 2), Fraction(-2, 3)
        )

    def test_round_trip_randomized(self):
        rng = random.Random(71)
        for _ in range(120):
            n = rng.choice([1, 2, 3])
            X = rand_field(rng, n, 4, terms=3, min_exp=-3, max_exp=3)
            assert parse_field(str(X), n, 4) == X

    def test_truncation_matches_ring(self):
        X = parse_field("z1^5*dz1", 1, 3)
        assert X.is_zero()

    def test_zero_field_round_trips(self):
        # the printers write the zero field as a bare 0
        for n in (1, 2):
            zero = VectorField.zero(n, 3)
            assert parse_field(str(zero), n, 3) == zero
            assert parse_field(" 0\n", n, 3) == zero
        with pytest.raises(FieldSyntaxError, match="differential"):
            parse_field("0 + 1", 1, 3)


class TestParseSeries:
    def test_canonical_example(self):
        s = parse_series("(1/2+1/3*i)*x^-2*z1^2*z2", 2, 5)
        assert s.coefficient((2, 1)) == LaurentPoly(
            {-2: G(Fraction(1, 2), Fraction(1, 3))}
        )
        assert str(s) == "(1/2+1/3*i)*x^-2*z1^2*z2"

    def test_round_trip_randomized(self):
        rng = random.Random(72)
        for _ in range(120):
            n = rng.choice([1, 2])
            s = rand_series(rng, n, 4, terms=4, min_exp=-2, max_exp=2)
            assert parse_series(str(s), n, 4) == s

    def test_no_differentials(self):
        with pytest.raises(FieldSyntaxError):
            parse_series("z1*dz1", 1, 3)


class TestErrors:
    @pytest.mark.parametrize(
        "text,n,line,col,fragment",
        [
            ("x*dq1", 1, 1, 3, "unknown variable"),
            ("x*dx + z3*dz1", 2, 1, 8, "out of range"),
            ("x^", 1, 1, 3, "expected NUM"),
            ("x*dx + z1^-2*dz1", 1, 1, 12, "negative exponents"),
            ("", 1, 1, 1, "empty expression"),
            ("x*dx + 1/0*z1*dz1", 1, 1, 10, "zero denominator"),
            ("x*dx+\n  y*dz1", 1, 2, 3, "unknown variable"),
            ("x*dx + z1*dz1*dz1", 1, 1, 15, "two differential symbols"),
            ("z1", 1, 1, 1, "no differential symbol"),
            ("x*dx ? z1*dz1", 1, 1, 6, "unexpected character"),
            ("x*dx + dz1^2", 1, 1, 11, "cannot carry exponents"),
            ("x^9999999*dx", 1, 1, 3, "exponent overflow"),
        ],
    )
    def test_positions(self, text, n, line, col, fragment):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field(text, n, 4)
        assert exc.value.line == line
        assert exc.value.col == col
        assert fragment in exc.value.message

    def test_offsets_shift_positions(self):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field("x*dx + q*dz1", 1, 3, line_offset=10, col_offset=4)
        assert exc.value.line == 11 and exc.value.col == 12


# -- one reader of Q[i] text --------------------------------------------------
#
# The two readers of Q[i] text before the shared coefficient rule, kept
# verbatim as oracles: GaussianRational.from_string's regex reader and the
# field parser's parenthesized-coefficient rule.  The shared rule accepts a
# string exactly when both of them do, with the same value.


def ref_from_string(text):
    s = text.replace(" ", "")
    if not s:
        raise CoefficientSyntaxError("empty coefficient")
    parts = re.findall(r"[+-]?[^+-]+", s)
    if not parts or "".join(parts) != s:
        raise CoefficientSyntaxError(f"bad coefficient syntax: {text!r}")
    re_part = None
    im_part = None
    for part in parts:
        sign = -1 if part.startswith("-") else 1
        body = part.lstrip("+-")
        if body.endswith("i"):
            body = body[:-1]
            if body.endswith("*"):
                body = body[:-1]
            mag = Fraction(1) if body == "" else _ref_parse_rational(body, text)
            if im_part is not None:
                raise CoefficientSyntaxError(f"two imaginary parts in {text!r}")
            im_part = sign * mag
        else:
            if re_part is not None:
                raise CoefficientSyntaxError(f"two real parts in {text!r}")
            re_part = sign * _ref_parse_rational(body, text)
    if re_part is None:
        re_part = Fraction(0)
    if im_part is None:
        im_part = Fraction(0)
    return G(re_part, im_part)


def _ref_parse_rational(body, original):
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", body)
    if not m:
        raise CoefficientSyntaxError(f"bad coefficient syntax: {original!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise CoefficientSyntaxError(f"zero denominator in {original!r}")
    return Fraction(num, den)


class _RefCoefficientParser(_Parser):
    def parse_rational_tail(self, numtok):
        num = numtok.value
        den = 1
        if self.peek().kind == "/":
            self.take()
            dtok = self.take("NUM")
            if dtok.value == 0:
                self.fail("zero denominator", dtok)
            den = dtok.value
        return G(Fraction(num, den))

    def parse_coefficient(self):
        total = G.ZERO
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

    def parse_coefficient_part(self):
        tok = self.take()
        if tok.kind == "NUM":
            mag = self.parse_rational_tail(tok)
            if self.peek().kind == "*":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "IDENT" and nxt.value == "i":
                    self.take()
                    self.take()
                    return G(0, mag.re)
            return mag
        if tok.kind == "IDENT" and tok.value == "i":
            return G(0, 1)
        self.fail("expected a rational or 'i' inside the coefficient", tok)


def ref_parse_coefficient(text):
    """The field reader's rule on a lone coefficient, as '(text)' read it."""
    p = _RefCoefficientParser(text, 0)
    c = p.parse_coefficient()
    p.take("EOF")
    return c


def _read(reader, text):
    """(a, b, d) of reader(text), or None when it rejects the text."""
    try:
        v = reader(text)
    except ValueError:  # CoefficientSyntaxError and FieldSyntaxError
        return None
    return v._a, v._b, v._d


ALPHABET = "0123/+-*ix "


def _check_intersection(texts):
    for text in texts:
        old = _read(ref_from_string, text)
        field = _read(ref_parse_coefficient, text)
        expect = old if old == field else None
        if old is not None and field is not None:
            assert old == field, text  # both accept: the values agree
        assert _read(G.from_string, text) == expect, text


class TestOneCoefficientReader:
    def test_every_short_string(self):
        _check_intersection(
            "".join(t)
            for length in range(4)
            for t in itertools.product(ALPHABET, repeat=length)
        )

    def test_seeded_strings(self):
        rng = random.Random(1701)
        _check_intersection(
            "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
            for _ in range(100_000)
        )

    @pytest.mark.parametrize("text", ["1/2 3", "1 2", "*i", "+*i", "2i", "1i"])
    def test_regex_reader_extras_rejected(self, text):
        assert _read(ref_from_string, text) is not None
        with pytest.raises(CoefficientSyntaxError, match="bad coefficient syntax"):
            G.from_string(text)

    @pytest.mark.parametrize("text", ["1+1", "i+i", "1+2+3*i"])
    def test_field_reader_extras_rejected(self, text):
        assert _read(ref_parse_coefficient, text) is not None
        with pytest.raises(CoefficientSyntaxError, match="bad coefficient syntax"):
            G.from_string(text)

    @pytest.mark.parametrize(
        "text,col,message",
        [
            ("(1+1)*z1*dz1", 3, "two real parts"),
            ("(i-2*i)*dx", 3, "two imaginary parts"),
            ("(1 + i - 3)*dx", 8, "two real parts"),
        ],
    )
    def test_repeated_part_fails_at_its_sign(self, text, col, message):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field(text, 1, 3, line_offset=2, col_offset=7)
        assert (exc.value.line, exc.value.col) == (3, col + 7)
        assert exc.value.message == message

    def test_whitespace_between_tokens_only(self):
        assert G.from_string(" - 1 / 2 + 3 * i ") == G(Fraction(-1, 2), 3)
        assert G.from_string("\t1/2\n") == G(Fraction(1, 2))
        for text in ("1 /2 3", "1 2/3", "", "  "):
            with pytest.raises(CoefficientSyntaxError):
                G.from_string(text)

    @pytest.mark.parametrize("text", ["²", "1²", "z²*dz1", "z1²*dz1"])
    def test_non_decimal_digits_are_syntax_errors(self, text):
        # str.isdigit() holds for superscripts, which int() cannot read
        with pytest.raises(FieldSyntaxError):
            parse_field(text, 1, 3)
        with pytest.raises(CoefficientSyntaxError):
            G.from_string(text)

    def test_overlong_numbers_are_syntax_errors(self):
        # int() reads at most 4,300 digits by default; a longer run fails at
        # its position, and a number at the limit still reads
        long = "7" * 5000
        with pytest.raises(FieldSyntaxError) as err:
            parse_field(f"x*dx +\n 2/{long}*z1*dz1", 1, 3)
        assert (err.value.line, err.value.col) == (2, 4)
        assert err.value.message == "number of 5000 digits is too long"
        with pytest.raises(CoefficientSyntaxError):
            G.from_string(f"1+{long}*i")
        assert G.from_string("7" * 4300) == G(int("7" * 4300))


# -- each parsed series is built once ------------------------------------------


def _fold_text(rng, n, cap, want_field):
    """A seeded expression and its value as the add-per-term fold computes it.

    Terms repeat monomials, cancel earlier terms and sit above the cap."""
    dvars = ["dx"] + [f"dz{j}" for j in range(1, n + 1)] if want_field else [""]
    terms = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if terms and roll < 0.25:
            c, e, K, d = rng.choice(terms)
            terms.append((-c, e, K, d))  # cancels an earlier term
        elif terms and roll < 0.45:
            c, e, K, d = rng.choice(terms)
            terms.append((rand_gq(rng), e, K, d))  # repeats its monomial
        else:
            K = tuple(rng.randint(0, 2) for _ in range(n))  # up to 2n > cap
            terms.append((rand_gq(rng), rng.randint(-2, 2), K, rng.randrange(len(dvars))))
    pieces = []
    for c, e, K, d in terms:
        factors = [f"({c})", f"x^{e}"] + [f"z{j + 1}^{k}" for j, k in enumerate(K)]
        pieces.append("*".join(factors + ([dvars[d]] if want_field else [])))
    sums = [TransverseSeries.zero(n, cap) for _ in dvars]
    for c, e, K, d in terms:
        sums[d] = sums[d] + TransverseSeries.monomial(n, cap, K, LaurentPoly.x(e, c))
    return " + ".join(pieces), sums


class TestParseOnce:
    def test_field_equals_add_per_term_fold(self):
        rng = random.Random(74)
        for _ in range(300):
            n = rng.randint(1, 3)
            text, (a, *b) = _fold_text(rng, n, 2, want_field=True)
            assert parse_field(text, n, 2) == VectorField(a, b), text

    def test_series_equals_add_per_term_fold(self):
        rng = random.Random(75)
        for _ in range(300):
            n = rng.randint(1, 3)
            text, (s,) = _fold_text(rng, n, 2, want_field=False)
            assert parse_series(text, n, 2) == s, text

    def test_cancelled_and_capped_terms_leave_nothing(self):
        assert parse_series("z1 + 2*x*z1 - z1 - 2*x*z1 + z1^4", 1, 3).is_zero()
        X = parse_field("x*dx - x*dx + (1/2)*z1*dz1 + 1/2*z1*dz1 + z1^4*dz1", 1, 3)
        assert X == VectorField.diagonal([G(1)], 3)
