import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossfield.coeff import CoefficientSyntaxError, GaussianRational, LaurentPoly

from helpers import abs_bound, conjugate, euler_apply, rand_gq, rand_gq_nonzero, rand_laurent

G = GaussianRational


class TestGaussianRational:
    def test_modulus_identity(self):
        # (1/2 + i)(1/2 - i) = 1/4 + 1 = 5/4
        a = G(Fraction(1, 2), 1)
        assert a * conjugate(a) == G(Fraction(5, 4))

    def test_additive_identity(self):
        assert G(0) + G(Fraction(3, 7)) == G(Fraction(3, 7))

    def test_division_by_conjugate(self):
        # (1+i)/(1-i): multiply by (1+i)/(1+i) -> (1+i)^2 / 2 = 2i/2 = i
        assert G(1, 1) / G(1, -1) == G(0, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            G(1) / G(0)

    def test_field_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(200):
            a, b, c = (rand_gq(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            d = rand_gq_nonzero(rng)
            assert d * (G(1) / d) == G(1)
            assert a - a == G(0)

    def test_int_interop(self):
        assert G(Fraction(1, 2)) * 2 == G(1)
        assert 1 + G(0, 1) == G(1, 1)
        assert G(3) / 3 == G(1)

    def test_no_silent_float_mixing(self):
        with pytest.raises(TypeError):
            G(1) + 0.5
        with pytest.raises(TypeError):
            (1 + 2j) * G(1)

    def test_predicates(self):
        assert G(2).is_integer()
        assert not G(Fraction(1, 2)).is_integer()
        assert not G(1, 1).is_integer()
        assert G(0).is_zero()
        assert conjugate(G(1, -2)) == G(1, 2)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", G(0)),
            ("3/7", G(Fraction(3, 7))),
            ("-2", G(-2)),
            ("i", G(0, 1)),
            ("-i", G(0, -1)),
            ("2*i", G(0, 2)),
            ("1/2+1/3*i", G(Fraction(1, 2), Fraction(1, 3))),
            ("1/2-i", G(Fraction(1, 2), -1)),
            ("-1/2-2/5*i", G(Fraction(-1, 2), Fraction(-2, 5))),
            ("+3", G(3)),
        ],
    )
    def test_parse(self, text, value):
        assert G.from_string(text) == value

    def test_parse_print_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            v = rand_gq(rng, span=9, den=7)
            assert G.from_string(str(v)) == v

    @pytest.mark.parametrize("bad", ["", "1//2", "i*i", "2+3", "1/0", "+-1", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(CoefficientSyntaxError):
            G.from_string(bad)

    def test_immutability(self):
        v = G(1)
        with pytest.raises(AttributeError):
            v.re = Fraction(2)


# -- GaussianRational against a (Fraction, Fraction) oracle -------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
pairs = st.tuples(rationals, rationals)
exact_operands = st.one_of(st.integers(-30, 30), rationals)
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def oracle(op, x, y):
    """op on pairs (re, im) of Fractions, by the textbook formulas."""
    (p, q), (r, s) = x, y
    if op is operator.add:
        return p + r, q + s
    if op is operator.sub:
        return p - r, q - s
    if op is operator.mul:
        return p * r - q * s, p * s + q * r
    n = r * r + s * s
    return (p * r + q * s) / n, (q * r - p * s) / n


def pair_of(v):
    return (v.re, v.im)


def assert_canonical(v):
    assert isinstance(v, G)
    assert v._d > 0
    assert gcd(v._a, v._b, v._d) == 1
    assert isinstance(v.re, Fraction) and isinstance(v.im, Fraction)


class TestKernelProperties:
    @given(pairs, pairs, st.sampled_from(OPS))
    def test_binary_ops(self, x, y, op):
        if op is operator.truediv and y == (0, 0):
            return
        v = op(G(*x), G(*y))
        assert_canonical(v)
        assert pair_of(v) == oracle(op, x, y)

    @given(pairs, exact_operands, st.sampled_from(OPS))
    def test_int_and_fraction_operands_on_either_side(self, x, k, op):
        if k != 0 or op is not operator.truediv:
            left = op(G(*x), k)
            assert_canonical(left)
            assert pair_of(left) == oracle(op, x, (Fraction(k), Fraction(0)))
        if x != (0, 0) or op is not operator.truediv:
            right = op(k, G(*x))
            assert_canonical(right)
            assert pair_of(right) == oracle(op, (Fraction(k), Fraction(0)), x)

    @given(pairs)
    def test_negation_and_conjugate(self, x):
        v = G(*x)
        assert_canonical(-v)
        assert pair_of(-v) == (-x[0], -x[1])
        assert_canonical(conjugate(v))
        assert pair_of(conjugate(v)) == (x[0], -x[1])
        assert +v is v

    @given(pairs, pairs)
    def test_equality_and_hash(self, x, y):
        u, v = G(*x), G(*y)
        assert (u == v) == (x == y)
        assert (u != v) == (x != y)
        if u == v:
            assert hash(u) == hash(v)
        # the same value built another way is the same triple
        w = (u + v) - v
        assert w == u and hash(w) == hash(u)

    @given(exact_operands)
    def test_equality_and_hash_against_rationals(self, k):
        v = G(k)
        assert v == k and k == v
        assert hash(v) == hash(k)
        assert (v == 0) == (k == 0)
        assert G(k, 1) != k
        assert hash(G(0)) == hash(0) == hash(Fraction(0))

    @given(pairs)
    def test_predicates_and_bounds(self, x):
        v = G(*x)
        re, im = x
        assert v.is_zero() == (re == 0 and im == 0) == (not v)
        assert (not v._b) == (im == 0)
        assert v.is_integer() == (im == 0 and re.denominator == 1)
        bound = abs_bound(v)
        assert isinstance(bound, Fraction)
        assert bound == max(abs(re), abs(im))
        assert v.as_complex() == complex(re) + 1j * float(im)

    @given(pairs)
    def test_str_round_trip(self, x):
        v = G(*x)
        assert G.from_string(str(v)) == v
        assert repr(v) == f"GaussianRational({x[0]!r}, {x[1]!r})"

    @given(pairs)
    def test_division_by_zero(self, x):
        v = G(*x)
        for zero in (G(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                v / zero
        with pytest.raises(ZeroDivisionError):
            1 / G(0)

    @given(pairs, st.sampled_from(OPS), st.sampled_from([0.5, 2.0, 1j, 1 + 2j]))
    def test_float_and_complex_operands_raise(self, x, op, bad):
        v = G(*x)
        with pytest.raises(TypeError):
            op(v, bad)
        with pytest.raises(TypeError):
            op(bad, v)
        assert v != bad

    def test_constructor_rejects_inexact_parts(self):
        for bad in (0.5, 1j, "1"):
            with pytest.raises(TypeError):
                G(bad)
            with pytest.raises(TypeError):
                G(0, bad)

    def test_zero_is_one_triple(self):
        for z in (G(0), G(Fraction(0), 0), G(1) - G(1), G(0, 3) * 0):
            assert (z._a, z._b, z._d) == (0, 0, 1)


class TestLaurentPoly:
    def test_product_example(self):
        # (x^-1 + 1)(x - 1) = 1 - x^-1 + x - 1 = x - x^-1
        f = LaurentPoly({-1: 1, 0: 1})
        g = LaurentPoly({1: 1, 0: -1})
        assert f * g == LaurentPoly({1: 1, -1: -1})

    def test_absorbing_zero(self):
        f = rand_laurent(random.Random(3))
        assert (f * LaurentPoly.zero()).is_zero()

    def test_exponent_cancellation(self):
        assert LaurentPoly({2: 1}) * LaurentPoly({-2: 1}) == LaurentPoly.one()

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            f, g, h = (rand_laurent(rng, -3, 3, terms=3) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert (f - f).is_zero()

    def test_min_exp_additivity(self):
        rng = random.Random(8)
        for _ in range(200):
            f = rand_laurent(rng, -3, 3, terms=2)
            g = rand_laurent(rng, -3, 3, terms=2)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).min_exp() == f.min_exp() + g.min_exp()

    def test_is_taylor(self):
        assert LaurentPoly({2: 1, 0: 3}).is_taylor()
        assert not LaurentPoly({-1: 1}).is_taylor()
        assert LaurentPoly.zero().is_taylor()

    def test_derivative(self):
        f = LaurentPoly({-1: 1, 0: 5, 3: 2})
        assert f.derivative() == LaurentPoly({-2: -1, 2: 6})

    def test_truncate_x(self):
        f = LaurentPoly({-2: 1, 0: 1, 3: 1, 5: 1})
        assert f.truncate_x(3) == LaurentPoly({-2: 1, 0: 1, 3: 1})

    def test_evaluate(self):
        f = LaurentPoly({-1: 1, 2: G(0, 1)})
        v = f.evaluate(2.0 + 0j)
        assert abs(v - (0.5 + 4j)) < 1e-14


class TestEulerSolve:
    def test_solvable_example(self):
        # g = x^2, s = -1: f = x^2 and (x d/dx - 1) x^2 = 2x^2 - x^2 = x^2
        f, r = LaurentPoly({2: 1}).euler_solve(-1)
        assert f == LaurentPoly({2: 1})
        assert r.is_zero()

    def test_fully_resonant_example(self):
        f, r = LaurentPoly({1: 1}).euler_solve(-1)
        assert f.is_zero()
        assert r == LaurentPoly({1: 1})

    def test_zero_input(self):
        f, r = LaurentPoly.zero().euler_solve(rand_gq(random.Random(1)))
        assert f.is_zero() and r.is_zero()

    def test_postcondition_randomized(self):
        # (x d/dx + s) f + residual must reproduce g exactly, and f carries
        # no term at exponent -s.
        rng = random.Random(17)
        for _ in range(200):
            g = rand_laurent(rng, -4, 4, terms=3)
            s = rand_gq(rng) if rng.random() < 0.5 else G(rng.randint(-4, 4))
            f, r = g.euler_solve(s)
            assert euler_apply(f, s) + r == g
            if s.is_integer():
                assert f.coefficient(-int(s.re)).is_zero()
            for e, _ in r.terms():
                assert s + e == G(0)
