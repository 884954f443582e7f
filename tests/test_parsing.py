import random
from fractions import Fraction

import pytest

from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import VectorField
from crossfield.parsing import FieldSyntaxError, parse_field, parse_series
from crossfield.series import MonomialIndex

from helpers import rand_field, rand_series


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
