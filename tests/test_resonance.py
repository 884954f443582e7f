import random
from fractions import Fraction
from itertools import product

import pytest

from crossfield import resonance
from crossfield.coeff import GaussianRational as G
from crossfield.resonance import (
    CLASSIFIED_BY_HOLONOMY,
    LINEARIZABLE,
    POINCARE,
    SIEGEL_NONREAL,
    SIEGEL_REAL_3A,
    SIEGEL_REAL_3B,
    SIEGEL_REAL_CLASSIFIED,
    classify_dim2,
    classify_dim3,
    decide_ntnr,
    enumerate_resonances,
    origin_in_hull,
    pairing,
    _hilbert_basis_single,
    _minimal_inhomogeneous,
)

from helpers import rand_gq


def F(a, b=1):
    return G(Fraction(a, b))


class TestEnumerate:
    def test_single_negative_eigenvalue(self):
        rep = enumerate_resonances([F(-1)], 3)
        assert [r.K for r in rep.resonant] == [(1,), (2,), (3,)]
        assert [r.x_exp for r in rep.resonant] == [1, 2, 3]
        assert not rep.negative_resonance_found

    def test_imaginary_eigenvalue(self):
        rep = enumerate_resonances([G(0, 1)], 5)
        assert not rep.resonant
        assert not rep.negative

    def test_negative_resonance_witness(self):
        rep = enumerate_resonances([F(1, 2), F(-3)], 5)
        w = rep.witness()
        assert w.K == (2, -1)
        assert w.p == (2, 0) and w.j == 2 and w.q == 4
        # the cone identity: sum p_i mu_i = mu_j + q
        assert 2 * F(1, 2) == F(-3) + G(w.q)

    def test_degree_zero_hits_are_flagged(self):
        # mu_1 - mu_2 = 2 is a degree-zero negative hit
        rep = enumerate_resonances([F(-1), F(-3)], 3)
        zero_hits = [w for w in rep.negative if w.degree_zero]
        assert zero_hits and zero_hits[0].K == (1, -1) and zero_hits[0].q == 2

    def test_every_listed_index_checks_out(self):
        rng = random.Random(41)
        for _ in range(40):
            mu = [rand_gq(rng, span=4, den=2) for _ in range(2)]
            rep = enumerate_resonances(mu, 5)
            for r in rep.resonant:
                s = pairing(mu, r.K)
                assert s.is_integer() and int(s.re) == r.s <= 0
            for w in rep.negative:
                q = pairing(mu, w.K)
                assert q.is_integer() and int(q.re) == w.q >= 1


class TestDecideNtnr:
    def test_two_negative_rationals(self):
        assert decide_ntnr([F(-1, 3), F(-1, 2)]).holds

    def test_mixed_sign_pair(self):
        r = decide_ntnr([F(1, 2), F(-3)])
        assert not r.holds and r.exact
        assert r.witness.p == (2, 0) and r.witness.q == 4

    def test_imaginary(self):
        assert decide_ntnr([G(0, 1)]).holds

    def test_negative_integer(self):
        # p = 0 is excluded from the cone, so mu = -2 passes
        assert decide_ntnr([F(-2)]).holds

    def test_poincare_pair_fails(self):
        # all-positive rational eigenvalues always violate the condition
        assert not decide_ntnr([F(2), F(3)]).holds
        assert not decide_ntnr([F(1, 2)]).holds

    def test_imaginary_pairs(self):
        assert decide_ntnr([G(0, 1), G(-1, -1)]).holds
        assert decide_ntnr([G(0, 1), G(0, -1)]).holds

    def test_cross_validation_with_enumeration(self):
        # the exact decision agrees with brute-force search below the bound,
        # and recovered witnesses satisfy the defining equation
        rng = random.Random(42)
        for _ in range(250):
            n = rng.choice([1, 2, 3])
            mu = [
                G(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0),
                )
                for _ in range(n)
            ]
            exact = decide_ntnr(mu)
            bounded = enumerate_resonances(mu, 9)
            if exact.holds:
                assert not bounded.negative_resonance_found
            else:
                w = exact.witness
                s = pairing(mu, w.K)
                assert s.is_integer() and int(s.re) == w.q >= 1

    def test_witness_bound_consistency(self):
        # a found witness reappears under enumeration at its own degree
        r = decide_ntnr([F(1, 2), F(-3)])
        d = sum(r.witness.K)
        rep = enumerate_resonances([F(1, 2), F(-3)], max(d, 1))
        assert any(w.K == r.witness.K for w in rep.negative)

    def test_bounded_fallback_for_large_n(self):
        r = decide_ntnr([F(-1), F(-2, 3), G(0, 1), F(-5)], fallback_bound=6)
        assert not r.exact and r.bound == 6

    def test_box_point_count_is_what_the_scans_visit(self, monkeypatch):
        # decisions that hold run every scan to the end, so the predicted
        # count is met exactly
        visited = []

        def counting(*args, **kw):
            for c in product(*args, **kw):
                visited.append(1)
                yield c

        monkeypatch.setattr(resonance, "_cartesian", counting)
        cases = [
            [G(-1, Fraction(-1, 4))],
            [G(-1, -1), G(Fraction(-2, 3), Fraction(1, 4))],
            [G(0, Fraction(-1, 5)), F(-1, 2), G(-2, 1)],
            [F(-2), G(Fraction(-1, 3), Fraction(-1, 4)), G(Fraction(-2, 3), Fraction(1, 5))],
        ]
        for mu in cases:
            visited.clear()
            S = resonance._imaginary_integers(mu)
            assert not resonance._negative_resonance_exists(mu, S)
            assert len(visited) == resonance._box_points(S) > 0
        assert resonance._box_points([0, 0, 0]) == 0

    def test_box_budget_selects_the_bounded_branch(self, monkeypatch):
        mu = [G(-1, -1), G(Fraction(-2, 3), Fraction(1, 4))]
        points = resonance._box_points(resonance._imaginary_integers(mu))
        monkeypatch.setattr(resonance, "MAX_BOX_POINTS", points)
        assert decide_ntnr(mu) == resonance.NtnrResult(True, True, None, None)
        monkeypatch.setattr(resonance, "MAX_BOX_POINTS", points - 1)
        r = decide_ntnr(mu, fallback_bound=5)
        assert (r.holds, r.exact, r.bound) == (True, False, 5)

    def test_counterexample_takes_the_bounded_branch(self):
        # 7.2e10 box points; the scans would run for hours
        mu = [G(0, Fraction(1, 31)), G(Fraction(1, 2), Fraction(-1, 37)), G(0, Fraction(1, 41))]
        assert resonance._box_points(resonance._imaginary_integers(mu)) > 7e10
        r = decide_ntnr(mu)
        assert not r.exact and r.bound == 8

    def test_hilbert_basis_once_per_decision(self, monkeypatch):
        calls = []
        basis = resonance._hilbert_basis_single
        monkeypatch.setattr(resonance, "_hilbert_basis_single",
                            lambda S: calls.append(S) or basis(S))
        assert decide_ntnr([G(0, 1), G(Fraction(1, 2), -1), G(-1, Fraction(1, 2))]).exact
        assert calls == [[2, -2, 1]]

    def test_box_bounds_against_brute_force(self):
        # Hilbert bases and minimal solutions from the bounded boxes agree
        # with a much larger brute-force box
        rng = random.Random(43)
        for _ in range(60):
            n = rng.choice([2, 3])
            S = [rng.randint(-4, 4) for _ in range(n)]
            if all(s == 0 for s in S):
                continue
            T = rng.randint(-4, 4)
            big = 12
            brute = [
                c
                for c in product(range(big + 1), repeat=n)
                if any(c) and sum(s * v for s, v in zip(S, c)) == 0
            ]
            brute_min = [
                c
                for c in brute
                if not any(
                    o != c and all(o[i] <= c[i] for i in range(n)) for o in brute
                )
            ]
            assert sorted(_hilbert_basis_single(S)) == sorted(brute_min)
            brute_in = [
                p
                for p in product(range(big + 1), repeat=n)
                if sum(s * v for s, v in zip(S, p)) == T
            ]
            brute_in_min = [
                p
                for p in brute_in
                if not any(
                    o != p and all(o[i] <= p[i] for i in range(n)) for o in brute_in
                )
            ]
            # a solution minimal within the box is minimal globally, and for
            # |S_i|, |T| <= 4 every minimal solution lies inside it
            assert sorted(_minimal_inhomogeneous(S, T)) == sorted(brute_in_min)


class TestClassify2:
    @pytest.mark.parametrize(
        "lam,case",
        [
            (G(2), LINEARIZABLE),
            (G(-1), CLASSIFIED_BY_HOLONOMY),
            (G(0, 1), LINEARIZABLE),
            (G(0), CLASSIFIED_BY_HOLONOMY),
            (G(Fraction(-7, 3)), CLASSIFIED_BY_HOLONOMY),
            (G(-1, 2), LINEARIZABLE),
        ],
    )
    def test_dichotomy(self, lam, case):
        assert classify_dim2(lam) == case


class TestHull:
    def test_interior_point(self):
        # 0 = (1 + i + (-1-i))/3
        assert origin_in_hull([G(1), G(0, 1), G(-1, -1)])

    def test_positive_reals_miss_origin(self):
        assert not origin_in_hull([G(1), G(2), G(3)])

    def test_vertex_counts(self):
        assert origin_in_hull([G(1), G(0), G(5)])

    def test_boundary_segment(self):
        # 0 on the segment [1, -1] with an off-line third point
        assert origin_in_hull([G(1), G(-1), G(2, 2)])

    def test_nonreal_miss(self):
        assert not origin_in_hull([G(1), G(0, 1), G(1, 1)])


class TestClassify3:
    def test_siegel_nonreal(self):
        c = classify_dim3(G(0, 1), G(-1, -1))
        assert c.case == SIEGEL_NONREAL and c.siegel and c.witness is None

    def test_real_3b_with_witness(self):
        c = classify_dim3(F(1, 2), F(-3))
        assert c.case == SIEGEL_REAL_3B and c.witness == {"p": 2, "q": 4}

    def test_real_classified(self):
        c = classify_dim3(F(-1, 3), F(-1, 2))
        assert c.case == SIEGEL_REAL_CLASSIFIED and c.witness is None

    def test_poincare(self):
        assert classify_dim3(G(2), G(3)).case == POINCARE
        assert classify_dim3(G(1, 1), G(2, -1)).case == POINCARE

    def test_real_3a(self):
        # mu < lam <= 0 and p*lam = mu + q: lam=-1, mu=-3: 1*(-1) = -3 + 2
        c = classify_dim3(G(-1), G(-3))
        assert c.case == SIEGEL_REAL_3A and c.witness == {"p": 1, "q": 2}

    def test_equal_negative_pair_is_classified(self):
        assert classify_dim3(G(-2), G(-2)).case == SIEGEL_REAL_CLASSIFIED

    def test_boundary_real_negative_with_nonreal(self):
        c = classify_dim3(G(-2), G(1, 1))
        assert c.case == SIEGEL_NONREAL

    def test_permutation_symmetry(self):
        rng = random.Random(44)
        for _ in range(120):
            lam = rand_gq(rng, span=4, den=2, imag_prob=0.35)
            mu = rand_gq(rng, span=4, den=2, imag_prob=0.35)
            assert classify_dim3(lam, mu).case == classify_dim3(mu, lam).case

    def test_resonance_consistency(self):
        # 3a/3b only without ntnr; SiegelNonreal implies ntnr.  (Poincare does
        # NOT imply ntnr over the rationals: (2,3) is Poincare yet 3*2 = 2+4
        # is a negative resonance; that half of the folklore is dropped.)
        rng = random.Random(45)
        seen = set()
        for _ in range(200):
            lam = rand_gq(rng, span=4, den=2, imag_prob=0.3)
            mu = rand_gq(rng, span=4, den=2, imag_prob=0.3)
            c = classify_dim3(lam, mu)
            seen.add(c.case)
            ntnr = decide_ntnr([lam, mu]).holds
            if c.case in (SIEGEL_REAL_3A, SIEGEL_REAL_3B):
                assert not ntnr
            if c.case == SIEGEL_NONREAL:
                assert ntnr
        assert SIEGEL_NONREAL in seen and SIEGEL_REAL_3B in seen

    def test_poincare_ntnr_counterexample_documented(self):
        c = classify_dim3(G(2), G(3))
        assert c.case == POINCARE
        assert not decide_ntnr([G(2), G(3)]).holds
