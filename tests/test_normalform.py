import random
from fractions import Fraction

import pytest

from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import Automorphism, VectorField
from crossfield.normalform import (
    LinearPartError,
    centralizer_check,
    centralizer_solve,
    normalize,
    verify_conjugation,
)
from crossfield.resonance import pairing
from crossfield.series import MonomialIndex, TransverseSeries, iter_l_indices

from helpers import rand_laurent, rand_mu, rand_series


def mono(n, cap, K, j, coeff):
    return VectorField.monomial(n, cap, MonomialIndex(K, j), coeff)


def semisimple(mu, cap):
    return VectorField.semisimple(mu, cap)


class TestNormalizeExamples:
    def test_linear_absorption(self):
        # x dx - z dz + x z dz: single degree-0 step, f = x, fully linearized
        n, cap = 1, 4
        X = semisimple([G(-1)], cap) + mono(n, cap, (0,), 1, LaurentPoly.x())
        res = normalize(X, [G(-1)], x_cap=8)
        assert res.normal_field == semisimple([G(-1)], cap).truncate_x(8)
        assert res.steps == (MonomialIndex((0,), 1),)
        assert res.certified
        assert not res.resonant
        # the normalizer's z-image is the truncated exponential scaling e^x z
        img = res.normalizer.img_z[0]
        assert img.coefficient((1,)).coefficient(3) == G(Fraction(1, 6))

    def test_resonant_term_survives(self):
        n, cap = 1, 4
        X = semisimple([G(-1)], cap) + mono(n, cap, (1,), 1, LaurentPoly.x())
        res = normalize(X, [G(-1)])
        assert res.normal_field == X
        assert res.steps == ()
        assert len(res.resonant) == 1
        t = res.resonant[0]
        assert (t.K, t.j, t.x_exp, t.coeff) == ((1,), 1, 1, G(1))
        assert res.normalizer == Automorphism.identity(n, cap)

    def test_idempotence(self):
        n, cap = 1, 5
        X = semisimple([G(-1)], cap) + mono(n, cap, (1,), 1, LaurentPoly.x())
        res = normalize(X, [G(-1)])
        res2 = normalize(res.normal_field, [G(-1)])
        assert res2.normal_field == res.normal_field
        assert res2.steps == ()
        assert res2.normalizer == Automorphism.identity(n, cap)

    def test_elimination_with_resonant_interaction(self):
        # z1^3 coefficient at x^0 is nonresonant for mu = -1 (slot x^2) and
        # gets removed; the resonant x z1^2 term stays
        n, cap = 1, 5
        X = (
            semisimple([G(-1)], cap)
            + mono(n, cap, (1,), 1, LaurentPoly.x())
            + mono(n, cap, (2,), 1, LaurentPoly.one())
        )
        res = normalize(X, [G(-1)], x_cap=10)
        assert res.certified
        ks = {(t.K, t.x_exp) for t in res.resonant}
        assert ((1,), 1) in ks
        for t in res.resonant:
            s = pairing([G(-1)], t.K)
            assert s.is_integer() and -int(s.re) == t.x_exp >= 0

    def test_jordan_block_passthrough(self):
        # equal eigenvalues with an adjacent nilpotent entry survive as eps
        cap = 4
        mu = [G(-1), G(-1)]
        X = semisimple(mu, cap) + mono(2, cap, (1, -1), 2, LaurentPoly.one())
        res = normalize(X, mu)
        assert res.eps == (1,)
        assert res.normal_field == X
        assert not res.resonant

    def test_x_dependent_offdiagonal_elimination(self):
        # x z1 dz2 with distinct eigenvalues: s = mu_1 - mu_2 = 1, slot x^1
        # has 1 + s = 2 != 0, so the whole entry goes away
        cap = 4
        mu = [G(-1), G(-2)]
        X = semisimple(mu, cap) + mono(2, cap, (1, -1), 2, LaurentPoly.x())
        res = normalize(X, mu, x_cap=8)
        assert res.certified
        assert res.normal_field == semisimple(mu, cap)
        assert res.steps == (MonomialIndex((1, -1), 2),)

    def test_jordan_slot_with_x_dependent_part(self):
        # equal eigenvalues: the x-dependent part of the adjacent slot is
        # nonresonant (exponent != 0) and is removed; the constant 1 stays
        cap = 4
        mu = [G(-1), G(-1)]
        X = semisimple(mu, cap) + mono(
            2, cap, (1, -1), 2, LaurentPoly({0: 1, 2: G(Fraction(1, 3))})
        )
        res = normalize(X, mu, x_cap=8)
        assert res.certified
        assert res.eps == (1,)
        assert res.normal_field == semisimple(mu, cap) + mono(
            2, cap, (1, -1), 2, LaurentPoly.one()
        )

    def test_mixed_linear_and_higher_terms_in_window_mode(self):
        # diagonal x-dependence forces the truncated ring; a resonant higher
        # term must still survive with its exact coefficient
        cap = 4
        mu = [G(-1)]
        X = (
            semisimple(mu, cap)
            + mono(1, cap, (0,), 1, LaurentPoly({1: G(2), 3: G(-1)}))
            + mono(1, cap, (1,), 1, LaurentPoly.x())
        )
        res = normalize(X, mu, x_cap=10)
        assert res.certified
        assert [(t.K, t.x_exp, t.coeff) for t in res.resonant] == [((1,), 1, G(1))]
        lin = res.normal_field.z_linear_matrix()[0][0]
        assert lin == LaurentPoly.constant(G(-1))

    def test_shape_matches_resonance_table(self):
        # every surviving index appears in the resonance enumeration
        from crossfield.resonance import enumerate_resonances

        rng = random.Random(51)
        for _ in range(20):
            n = rng.choice([1, 2])
            cap = 4
            mu = rand_mu(rng, n, span=2, den=2, imag_prob=0.3)
            X = semisimple(mu, cap)
            for _ in range(3):
                idxs = list(iter_l_indices(n, 1, cap - 1))
                idx = rng.choice(idxs)
                X = X + VectorField.monomial(n, cap, idx, rand_laurent(rng, 0, 2, 1))
            res = normalize(X, mu, x_cap=12)
            table = {
                r.K: r.x_exp for r in enumerate_resonances(mu, cap - 1).resonant
            }
            for t in res.resonant:
                assert t.K in table and table[t.K] == t.x_exp


class TestNormalizeValidation:
    def test_wrong_diagonal(self):
        X = semisimple([G(-1)], 3)
        with pytest.raises(LinearPartError):
            normalize(X, [G(2)])

    def test_dx_component(self):
        X = VectorField(
            TransverseSeries.constant(1, 3, 1),
            [TransverseSeries.zero(1, 3)],
        )
        with pytest.raises(LinearPartError):
            normalize(X, [G(0)])

    def test_upper_cone_rejected(self):
        # z2 feeding dz1 leaves the triangular cone
        cap = 3
        mu = [G(-1), G(-2)]
        X = semisimple(mu, cap) + mono(2, cap, (-1, 1), 1, LaurentPoly.one())
        with pytest.raises(LinearPartError):
            normalize(X, mu)

    def test_x_dependent_diagonal_needs_window(self):
        X = semisimple([G(-1)], 3) + mono(1, 3, (0,), 1, LaurentPoly.x())
        with pytest.raises(LinearPartError):
            normalize(X, [G(-1)])

    def test_constant_term_rejected(self):
        X = VectorField(
            TransverseSeries.x_series(1, 3),
            [TransverseSeries.constant(1, 3, 1)],
        )
        with pytest.raises(LinearPartError):
            normalize(X, [G(0)])

    def test_bad_jordan_value(self):
        cap = 3
        mu = [G(-1), G(-1)]
        X = semisimple(mu, cap) + mono(2, cap, (1, -1), 2, LaurentPoly.constant(G(2)))
        with pytest.raises(LinearPartError):
            normalize(X, mu)


class TestSweepInvariants:
    def test_steps_strictly_ascending_and_complete(self):
        rng = random.Random(52)
        for _ in range(25):
            n = rng.choice([1, 2])
            cap = rng.choice([3, 4])
            mu = rand_mu(rng, n, span=2, den=2, imag_prob=0.3)
            X = semisimple(mu, cap)
            extra = [
                rand_series(rng, n, cap, terms=3, min_deg=2, min_exp=0, max_exp=2)
                for _ in range(n)
            ]
            X = X + VectorField(TransverseSeries.zero(n, cap), extra)
            res = normalize(X, mu, x_cap=16)
            keys = [s.pair_key() for s in res.steps]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))
            # no nonresonant term is left: a second sweep does nothing
            again = normalize(res.normal_field, mu, x_cap=64, certify=False)
            assert again.steps == ()

    def test_certificate_zero_on_random_fields(self):
        rng = random.Random(53)
        for _ in range(10):
            n = 2
            cap = 4
            mu = rand_mu(rng, n, span=2, den=1, imag_prob=0.5)
            extra = [
                rand_series(rng, n, cap, terms=2, min_deg=2, min_exp=0, max_exp=1)
                for _ in range(n)
            ]
            X = semisimple(mu, cap) + VectorField(TransverseSeries.zero(n, cap), extra)
            res = normalize(X, mu, x_cap=20)
            assert res.certified
            diff = verify_conjugation(res.normalizer, X, res.normal_field)
            assert diff.is_zero()

    def test_planted_defect_detected(self):
        n, cap = 1, 4
        X = semisimple([G(-1)], cap)
        bad = X + mono(n, cap, (3,), 1, LaurentPoly.one())
        diff = verify_conjugation(Automorphism.identity(n, cap), X, bad)
        assert not diff.is_zero()
        assert diff.abs_bound() == Fraction(1)


class TestDeeperCases:
    def test_three_variable_jordan_chain(self):
        # mu = (-1, -1, -1) with the full adjacent chain eps = (1, 1); junk
        # above the linear part must come off without disturbing the chain
        cap = 3
        mu = [G(-1), G(-1), G(-1)]
        chain = mono(3, cap, (1, -1, 0), 2, LaurentPoly.one()) + mono(
            3, cap, (0, 1, -1), 3, LaurentPoly.one()
        )
        junk = mono(3, cap, (0, 1, 0), 1, LaurentPoly.one())  # z2 z1 d/dz1, s = -1
        X = semisimple(mu, cap) + chain + junk
        res = normalize(X, mu, x_cap=8)
        assert res.certified
        assert res.eps == (1, 1)
        keys = [s.pair_key() for s in res.steps]
        assert keys == sorted(keys)
        # the chain survives untouched
        assert res.normal_field.coefficient_at(MonomialIndex((1, -1, 0), 2)) == LaurentPoly.one()
        assert res.normal_field.coefficient_at(MonomialIndex((0, 1, -1), 3)) == LaurentPoly.one()

    def test_two_variable_window_mode_with_offdiagonal(self):
        # diagonal x-dependence (window mode) combined with a triangular
        # x-dependent off-diagonal entry and a higher-order term
        cap = 3
        mu = [G(-1), G(Fraction(1, 2))]
        X = (
            semisimple(mu, cap)
            + mono(2, cap, (0, 0), 2, LaurentPoly.x())          # x z2 d/dz2
            + mono(2, cap, (1, -1), 2, LaurentPoly.x(2))        # x^2 z1 d/dz2
            + mono(2, cap, (1, 0), 1, LaurentPoly.one())        # z1^2 d/dz1, s = -1
        )
        res = normalize(X, mu, x_cap=9)
        assert res.certified
        assert res.x_window == 9
        lin = res.normal_field.z_linear_matrix()
        assert lin[1][1] == LaurentPoly.constant(mu[1])
        assert lin[1][0].is_zero()

    def test_laurent_window_exact_mode(self):
        # annulus coefficients: x^-1 z1^2 d/dz1 is nonresonant for mu = -1
        # (exponent -1 differs from the resonant slot 1) and is eliminated
        # exactly, negative exponents and all
        cap = 4
        mu = [G(-1)]
        X = semisimple(mu, cap) + mono(1, cap, (1,), 1, LaurentPoly.x(-1))
        res = normalize(X, mu, x_cap=6)
        assert res.x_window is None
        assert res.certified
        assert not res.resonant
        assert res.normal_field == semisimple(mu, cap)

    def test_laurent_resonant_negative_exponent_reported(self):
        # for mu = 2 the slot K = (1) resonates at x^-2; with annulus input
        # the surviving term has a negative x-exponent and is reported as is
        cap = 3
        mu = [G(2)]
        X = semisimple(mu, cap) + mono(1, cap, (1,), 1, LaurentPoly.x(-2))
        res = normalize(X, mu, x_cap=4)
        assert res.certified
        assert [(t.K, t.x_exp) for t in res.resonant] == [((1,), -2)]

    def test_support_validation(self):
        cap = 3
        X = semisimple([G(-1)], cap) + mono(1, cap, (1,), 1, LaurentPoly.x(7))
        with pytest.raises(LinearPartError):
            normalize(X, [G(-1)], x_cap=5)


class TestSymmetryCoefficients:
    def test_monomial_symmetry_law(self):
        # exp(b(x) z^K L(e_j)) fixes x dx + L(mu) exactly when (x d/dx + s) b
        # vanishes, i.e. b is a multiple of x^{-s} with s = <mu,K> in Z_{<=0}
        # (or b = 0); both directions checked on exact data.
        from crossfield.lie import exp

        rng = random.Random(56)
        for _ in range(40):
            n = rng.choice([1, 2])
            cap = 4
            mu = rand_mu(rng, n, span=2, den=2, imag_prob=0.3)
            S = semisimple(mu, cap)
            idx = rng.choice(list(iter_l_indices(n, 1, cap - 1)))
            s = pairing(mu, idx.K)
            if s.is_integer() and int(s.re) <= 0:
                b = LaurentPoly.x(-int(s.re), G(Fraction(rng.randint(1, 3), 2)))
                W = VectorField.monomial(n, cap, idx, b)
                assert b.euler_apply(s).is_zero()
                assert exp(W).pushforward(S) == S
            # a coefficient outside the kernel never gives a symmetry
            b_bad = rand_laurent(rng, 0, 3, terms=1)
            if b_bad.is_zero() or b_bad.euler_apply(s).is_zero():
                continue
            W_bad = VectorField.monomial(n, cap, idx, b_bad)
            assert exp(W_bad).pushforward(S) != S


class TestCentralizer:
    def test_imaginary_mu(self):
        cr = centralizer_solve([G(0, 1)], (-5, 5), 4)
        assert [e.text() for e in cr.elements] == ["x*dx", "z1*dz1"]
        assert not cr.has_negative_x

    def test_negative_integer_mu(self):
        cr = centralizer_solve([G(-1)], (-5, 5), 4)
        texts = [e.text() for e in cr.elements]
        assert "x*z1^2*dz1" in texts and "x^2*z1^3*dz1" in texts
        assert not cr.has_negative_x

    def test_negative_resonance_shows_up(self):
        cr = centralizer_solve([G(Fraction(1, 2)), G(-3)], (-5, 5), 5)
        assert cr.has_negative_x

    def test_every_element_commutes(self):
        rng = random.Random(54)
        for _ in range(15):
            n = rng.choice([1, 2])
            mu = rand_mu(rng, n, span=3, den=2, imag_prob=0.4)
            cr = centralizer_solve(mu, (-4, 4), 4)
            S = semisimple(mu, 4)
            for e in cr.elements:
                assert S.bracket(e.field).is_zero()

    def test_completeness_by_brute_force(self):
        # every monomial in the window that commutes is in the basis
        rng = random.Random(55)
        for _ in range(10):
            n = rng.choice([1, 2])
            mu = rand_mu(rng, n, span=2, den=2, imag_prob=0.4)
            degree = 4
            cr = centralizer_solve(mu, (-4, 4), degree)
            basis = {(e.index.K, e.index.j, e.x_exp) for e in cr.elements if e.index}
            S = semisimple(mu, degree)
            for idx in iter_l_indices(n, 0, degree - 1):
                for l in range(-4, 5):
                    W = VectorField.monomial(n, degree, idx, LaurentPoly.x(l))
                    if S.bracket(W).is_zero():
                        assert (idx.K, idx.j, l) in basis

    def test_from_normal_form_result(self):
        X = semisimple([G(-1)], 4)
        res = normalize(X, [G(-1)])
        cr = centralizer_solve(res, (-3, 3), 4)
        assert any(e.kind == "euler" for e in cr.elements)


class TestCentralizerCheck:
    def test_holds_for_imaginary(self):
        ck = centralizer_check([G(0, 1)], (-5, 5), 4)
        assert ck.ok and ck.ntnr.holds and not ck.offenders

    def test_holds_for_negative_pair(self):
        ck = centralizer_check([G(Fraction(-1, 3)), G(Fraction(-1, 2))], (-6, 6), 6)
        assert ck.ok and ck.ntnr.holds and not ck.offenders

    def test_vacuous_with_audit_trail(self):
        ck = centralizer_check([G(Fraction(1, 2)), G(-3)], (-5, 5), 5)
        assert ck.ok and not ck.ntnr.holds and ck.offenders

    def test_vacuous_when_bounded_verdict_is_refuted(self):
        # past the box budget the verdict is enumerated to degree 8; the first
        # negative resonance, 10*mu_3 = 1, is found only as a degree-11
        # centralizer offender
        mu = [G(0, Fraction(1, 701)), G(0, Fraction(-1, 709)), G(Fraction(1, 10))]
        ck = centralizer_check(mu, (-6, 6), 11)
        assert ck.ntnr.holds and not ck.ntnr.exact
        assert ck.offenders and ck.ok
