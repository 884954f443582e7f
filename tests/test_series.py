import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import VectorField
from crossfield.series import (
    DimensionMismatchError,
    MonomialIndex,
    TransverseSeries,
    accumulate_products,
    finish_products,
    graded_terms,
    grlex_compare,
    iter_exponents,
    iter_l_indices,
)

from helpers import rand_series, truncate


def ts(n, cap, terms):
    return TransverseSeries(n, cap, terms)


class TestArithmetic:
    def test_cap_rule(self):
        z = TransverseSeries.variable(1, 1, 1)
        assert (z * z).is_zero()

    def test_product_example(self):
        one = TransverseSeries.constant(1, 3, 1)
        z = TransverseSeries.variable(1, 3, 1)
        assert (one + z) * (one - z) == one - z * z

    def test_additive_identity(self):
        rng = random.Random(2)
        f = rand_series(rng, 2, 4)
        assert f + TransverseSeries.zero(2, 4) == f

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            TransverseSeries.zero(1, 3) + TransverseSeries.zero(2, 3)
        with pytest.raises(DimensionMismatchError):
            TransverseSeries.zero(1, 3) * TransverseSeries.zero(1, 4)

    def test_ring_axioms_randomized(self):
        rng = random.Random(5)
        for _ in range(200):
            f, g, h = (rand_series(rng, 2, 4, min_exp=-2) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_truncation_coherence(self):
        # computing at cap d then truncating to d' < d equals computing at d'
        rng = random.Random(6)
        for _ in range(100):
            f = rand_series(rng, 2, 5)
            g = rand_series(rng, 2, 5)
            for dp in (1, 3, 4):
                assert truncate(f * g, dp) == truncate(f, dp) * truncate(g, dp)
                assert truncate(f + g, dp) == truncate(f, dp) + truncate(g, dp)

    def test_scale_by_laurent(self):
        z = TransverseSeries.variable(1, 3, 1)
        s = z.scale(LaurentPoly.x(-2))
        assert s.coefficient((1,)) == LaurentPoly.x(-2)

    def test_fraction_scalar_both_sides(self):
        rng = random.Random(8)
        for _ in range(20):
            f = rand_series(rng, 2, 4, min_exp=-2)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            assert f * c == f.scale(c)
            assert c * f == f.scale(c)


class TestOrders:
    def test_madic_order_examples(self):
        s = ts(3, 4, {(1, 1, 0): 1, (0, 0, 3): 1})
        assert s.madic_order() == 2
        assert TransverseSeries.zero(1, 3).madic_order() == math.inf
        s2 = ts(1, 3, {(0,): 3, (1,): 1})
        assert s2.madic_order() == 0

    def test_order_of_product(self):
        rng = random.Random(9)
        for _ in range(150):
            f = rand_series(rng, 2, 5, min_deg=1)
            g = rand_series(rng, 2, 5, min_deg=1)
            fg = f * g
            if f.is_zero() or g.is_zero():
                continue
            bound = f.madic_order() + g.madic_order()
            assert fg.madic_order() >= bound
            if bound <= 5 and not fg.is_zero():
                lead_f = min(K for K in dict(f.terms()) if sum(K) == f.madic_order())
                # equality when the product survives the cap (generic here)
                assert fg.madic_order() >= bound

    def test_is_taylor(self):
        assert not ts(1, 3, {(1,): LaurentPoly({-1: 1})}).is_taylor()
        assert ts(2, 3, {(1, 0): LaurentPoly.x(), (0, 2): 1}).is_taylor()
        assert TransverseSeries.zero(1, 3).is_taylor()


class TestGrlex:
    def test_lex_within_degree(self):
        a = MonomialIndex((1, 0), 1)
        b = MonomialIndex((0, 1), 1)
        assert grlex_compare(a, b) > 0

    def test_degree_dominates(self):
        a = MonomialIndex((1, 0), 2)
        b = MonomialIndex((1, 1), 1)
        assert grlex_compare(a, b) < 0

    def test_equal(self):
        a = MonomialIndex((2, -1), 2)
        b = MonomialIndex((2, -1), 2)
        assert grlex_compare(a, b) == 0

    def test_direction_tiebreak(self):
        a = MonomialIndex((1, 1), 1)
        b = MonomialIndex((1, 1), 2)
        assert grlex_compare(a, b) < 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            MonomialIndex((-1, 0), 2)  # the -1 must sit at position j
        with pytest.raises(ValueError):
            MonomialIndex((-2, 0), 1)
        with pytest.raises(ValueError):
            MonomialIndex((0, 0), 3)
        idx = MonomialIndex((-1, 2), 1)
        assert idx.z_exponent() == (0, 2)
        assert idx.degree() == 1


class TestIndexEnumeration:
    def test_degree_zero_members(self):
        ks = list(iter_l_indices(2, 0, 0, with_direction=False))
        assert ks == [(-1, 1), (0, 0), (1, -1)]

    def test_pair_order_ascending(self):
        pairs = list(iter_l_indices(2, 0, 3))
        keys = [p.pair_key() for p in pairs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_direction_constraints(self):
        for idx in iter_l_indices(3, 0, 3):
            assert all(v >= 0 for v in idx.z_exponent())
            assert sum(idx.K) >= 0

    def test_nonnegative_exponents(self):
        assert list(iter_exponents(2, 0, 1)) == [(0, 0), (0, 1), (1, 0)]

    def test_n1_has_no_negative_entries(self):
        ks = list(iter_l_indices(1, 0, 3, with_direction=False))
        assert ks == [(0,), (1,), (2,), (3,)]


class TestText:
    def test_canonical_example(self):
        s = ts(
            2,
            5,
            {(2, 1): LaurentPoly({-2: G.from_string("1/2+1/3*i")})},
        )
        assert str(s) == "(1/2+1/3*i)*x^-2*z1^2*z2"

    def test_zero(self):
        assert str(TransverseSeries.zero(2, 3)) == "0"

    def test_sign_pulling(self):
        s = ts(1, 3, {(0,): LaurentPoly({0: -1}), (1,): LaurentPoly({1: 1})})
        assert str(s) == "-1 + x*z1"


def ref_accumulate(data, cap, left, right):
    """The product loop in LaurentPoly arithmetic, as it ran before the raw
    accumulator: each pair's c1*c2 is added to a {K: LaurentPoly} dict and
    exact zeros are popped.  An integer factor is the caller's, scaled into
    the coefficients of left."""
    for K1, d1, c1 in left:
        room = cap - d1
        if room < 0:
            continue
        for K2, d2, c2 in right:
            if d2 > room:
                continue
            K = tuple(map(add, K1, K2))
            c = c1 * c2
            held = data.get(K)
            if held is None:
                data[K] = c
            else:
                c = held + c
                if c._terms:
                    data[K] = c
                else:
                    del data[K]


def mixed_gq(rng, den=7):
    """A nonzero Q[i] value with independent denominators up to den, so that
    the real and imaginary parts often share no denominator."""
    while True:
        re = Fraction(rng.randint(-6, 6), rng.randint(1, den))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, den)) if rng.random() < 0.6 else 0
        v = G(re, im)
        if not v.is_zero():
            return v


def mixed_terms(rng, n, cap, count):
    """Graded terms (K, |K|, c) with up to three x-exponents in [-3, 2]."""
    monos = list(iter_exponents(n, 0, cap))
    out = {}
    for _ in range(count):
        K = rng.choice(monos)
        poly = LaurentPoly({rng.randint(-3, 2): mixed_gq(rng) for _ in range(rng.randint(1, 3))})
        out[K] = poly
    return [(K, sum(K), c) for K, c in out.items()]


def assert_finished(terms):
    """Every monomial carries a coefficient, and every coefficient is a
    canonical nonzero Q[i] triple."""
    for K, poly in terms.items():
        assert isinstance(poly, LaurentPoly) and poly._terms, K
        for c in poly._terms.values():
            assert isinstance(c, G)
            assert c._d > 0
            assert math.gcd(c._a, c._b, c._d) == 1
            assert c._a or c._b


def scaled(terms, k):
    return [(K, d, c.scale(k)) for K, d, c in terms]


class TestProductKernel:
    """accumulate_products sums raw integer numerators; finished, it must
    equal the LaurentPoly loop it replaced, term for term."""

    KS = (1, -1, 2, -3)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_laurent_loop(self, n, k):
        rng = random.Random(500 + 10 * n + k)
        for cap in range(0, 6):
            for _ in range(8):
                left = mixed_terms(rng, n, cap, rng.randint(1, 5))
                right = mixed_terms(rng, n, cap, rng.randint(1, 5))
                raw, want = {}, {}
                accumulate_products(raw, cap, left, right, k)
                ref_accumulate(want, cap, scaled(left, k), right)
                got = finish_products(raw)
                assert_finished(got)
                assert got == want

    def test_calls_share_one_accumulator(self):
        # as in a bracket: several calls with different factors, one finish
        rng = random.Random(520)
        for n, cap in ((1, 4), (2, 4), (3, 3)):
            for _ in range(10):
                raw, want = {}, {}
                for k in self.KS:
                    left = mixed_terms(rng, n, cap, 3)
                    right = mixed_terms(rng, n, cap, 3)
                    accumulate_products(raw, cap, left, right, k)
                    ref_accumulate(want, cap, scaled(left, k), right)
                got = finish_products(raw)
                assert_finished(got)
                assert got == want

    def test_exact_cancellation(self):
        # A z1 * C z2 + B z2 * D z1 with B = -A C / D: the z1 z2 cell sums to
        # zero over unequal denominators and is dropped, with its monomial
        rng = random.Random(530)
        cancelled = 0
        for k in self.KS:
            for _ in range(10):
                A, C, D = (mixed_gq(rng) for _ in range(3))
                B = -(A * C) / D
                e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
                left = [((1, 0), 1, LaurentPoly({e1: A})), ((0, 1), 1, LaurentPoly({e2: B}))]
                right = [((0, 1), 1, LaurentPoly({e2: C})), ((1, 0), 1, LaurentPoly({e1: D}))]
                raw, want = {}, {}
                accumulate_products(raw, 3, left, right, k)
                ref_accumulate(want, 3, scaled(left, k), right)
                got = finish_products(raw)
                assert_finished(got)
                assert got == want
                assert (1, 1) in raw and (1, 1) not in got
                cancelled += A._d != D._d or B._d != C._d
        assert cancelled > 0

    def test_whole_product_cancels(self):
        # f*g - g*f in one accumulator: every cell is zero, so nothing is
        # left; the terms lie in degree <= 2, so every pair is under the cap
        rng = random.Random(540)
        for k in self.KS:
            left = mixed_terms(rng, 2, 2, 5)
            right = mixed_terms(rng, 2, 2, 5)
            raw = {}
            accumulate_products(raw, 4, left, right, k)
            accumulate_products(raw, 4, right, left, -k)
            assert raw and finish_products(raw) == {}

    def test_cap_skips_pairs(self):
        z = TransverseSeries.variable(2, 2, 1)
        raw = {}
        accumulate_products(raw, 2, graded_terms(z * z), graded_terms(z))
        assert raw == {}


def _series(draw, n, cap, min_deg=0):
    monos = list(iter_exponents(n, min_deg, cap))
    if not monos:
        return TransverseSeries.zero(n, cap)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        K = draw(st.sampled_from(monos))
        coeffs = {}
        for _ in range(draw(st.integers(1, 2))):
            re = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 7)))
            im = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 7)))
            coeffs[draw(st.integers(-2, 2))] = G(re, im)
        terms[K] = LaurentPoly(coeffs)
    return TransverseSeries(n, cap, terms)


@st.composite
def series_triples(draw):
    n, cap = draw(st.integers(1, 2)), draw(st.integers(0, 4))
    return tuple(_series(draw, n, cap) for _ in range(3))


@st.composite
def field_and_series(draw):
    """Three m-preserving fields (z-components in m) and two series."""
    n, cap = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    fields = tuple(
        VectorField(_series(draw, n, cap), [_series(draw, n, cap, 1) for _ in range(n)])
        for _ in range(3)
    )
    return fields, _series(draw, n, cap), _series(draw, n, cap)


PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


class TestKernelRingProperties:
    """Ring and derivation identities through the raw accumulator, on series
    with denominators up to 7, n <= 2 and cap <= 4."""

    @PROPERTY
    @given(series_triples())
    def test_products_associate_and_distribute(self, fgh):
        f, g, h = fgh
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h

    @PROPERTY
    @given(field_and_series())
    def test_leibniz_and_jacobi(self, case):
        (X, Y, Z), f, g = case
        assert X.apply(f * g) == X.apply(f) * g + f * X.apply(g)
        jacobi = X.bracket(Y.bracket(Z)) + Y.bracket(Z.bracket(X)) + Z.bracket(X.bracket(Y))
        assert jacobi.is_zero()
