import math
import operator
import random
from fractions import Fraction
from itertools import combinations, islice, product

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
    _minimal_solutions,
)

from crossfield.series import iter_l_indices

from helpers import rand_gq


def F(a, b=1):
    return G(Fraction(a, b))


# --- reference oracles: the resonance routines before the plane hull test,
# the one box scan, the one knapsack table and the one witness walk ---------


def ref_origin_in_hull(points) -> bool:
    pts = resonance.as_eigenvalues(points)
    n = len(pts)
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            w = ref_solve_support([pts[i] for i in support])
            if w is not None and all(v >= 0 for v in w):
                return True
    return False


def ref_solve_support(pts):
    k = len(pts)
    rows = [
        [p.re for p in pts] + [Fraction(0)],
        [p.im for p in pts] + [Fraction(0)],
        [Fraction(1)] * k + [Fraction(1)],
    ]
    # Gaussian elimination on a 3 x (k+1) system.
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, 3) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(3):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, 3):
        if rows[i][k] != 0:
            return None
    if len(pivots) < k:
        return None
    w = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        w[col] = rows[i][k]
    return w


def ref_negative_resonance_exists(mu, S) -> bool:
    n = len(mu)
    rs = [m.re for m in mu]
    if any(S):
        hilbert = ref_hilbert_basis_single(S)
    else:
        hilbert = [tuple(1 if p == i else 0 for p in range(n)) for i in range(n)]
    gens = [sum((r * h for r, h in zip(rs, hv)), Fraction(0)) for hv in hilbert]
    for j in range(n):
        bases = ref_minimal_inhomogeneous(S, S[j]) if any(S) else [(0,) * n]
        for b in bases:
            alpha = sum((r * p for r, p in zip(rs, b)), Fraction(0)) - rs[j]
            if any(b):
                if ref_monoid_hits_positive_integer(alpha, gens):
                    return True
            else:
                # p = 0 is excluded (|p| >= 1), so force at least one
                # Hilbert-basis step before testing reachability.
                for g in gens:
                    if ref_monoid_hits_positive_integer(alpha + g, gens):
                        return True
    return False


def ref_hilbert_basis_single(S):
    n = len(S)
    bound = max(1, max(abs(s) for s in S))
    sols = []
    for c in product(range(bound + 1), repeat=n):
        if any(c) and sum(s * v for s, v in zip(S, c)) == 0:
            sols.append(c)
    return resonance._minimal_elements(sols)


def ref_minimal_inhomogeneous(S, T):
    n = len(S)
    bound = max(1, max(abs(s) for s in S)) + abs(T) + 1
    sols = []
    for p in product(range(bound + 1), repeat=n):
        if sum(s * v for s, v in zip(S, p)) == T:
            sols.append(p)
    return resonance._minimal_elements(sols)


def ref_monoid_hits_positive_integer(alpha: Fraction, gens) -> bool:
    gens = [g for g in gens if g != 0]
    if not gens:
        return alpha.denominator == 1 and alpha >= 1
    if any(g > 0 for g in gens):
        e = resonance._fraction_gcd(gens)
        m = math.lcm(alpha.denominator, e.denominator)
        A = int(alpha * m)
        E = int(e * m)
        return A % math.gcd(E, m) == 0
    # All generators negative: q <= alpha, finitely many targets, knapsack.
    if alpha < 1:
        return False
    scale = math.lcm(alpha.denominator, *(g.denominator for g in gens))
    weights = [int(-g * scale) for g in gens]
    for q in range(1, math.floor(alpha) + 1):
        target = int((alpha - q) * scale)
        if ref_reachable(target, weights):
            return True
    return False


def ref_reachable(target: int, weights) -> bool:
    if target == 0:
        return True
    dp = [False] * (target + 1)
    dp[0] = True
    for w in weights:
        if w <= 0 or w > target:
            continue
        for v in range(w, target + 1):
            if dp[v - w]:
                dp[v] = True
    return dp[target]


def ref_eq5_witness(x: Fraction, y: Fraction):
    if x == 0:
        if y.denominator == 1 and -y >= 1:
            return {"p": 1, "q": int(-y)}
        return None
    # p*x - y integral: a linear congruence for p.
    m = math.lcm(x.denominator, y.denominator)
    A = int(x * m)
    C = int(y * m) % m
    g = math.gcd(A, m)
    if C % g != 0:
        return None
    period = m // g
    # One residue solving p*A = C (mod m).
    p0 = next((p for p in range(1, period + 1) if (p * A - C) % m == 0), None)
    if p0 is None:
        return None
    if x > 0:
        p = p0
        while x * p - y < 1:
            p += period
        return {"p": p, "q": int(x * p - y)}
    # x < 0: q decreases with p; only finitely many candidates.
    p = p0
    while x * p - y >= 1:
        q = x * p - y
        if q.denominator == 1:
            return {"p": p, "q": int(q)}
        p += period
    return None


def ref_find_witness(mu):
    bound = 2
    while bound <= 256:
        report = enumerate_resonances(mu, bound)
        if report.negative:
            return report.witness()
        bound *= 2
    raise AssertionError(
        "negative resonance decided feasible but no witness below degree 256"
    )



# --- reference oracles: the walks before they decided integrality over the
# integers, through the Q[i] pairing at every index ---------------------------


def ref_enumerate_pairing(mu, d: int):
    mu = resonance.as_eigenvalues(mu)
    n = len(mu)
    resonant = []
    negative = []
    for K in iter_l_indices(n, 0, d, with_direction=False):
        s = pairing(mu, K)
        if not s.is_integer():
            continue
        val = s.re
        if sum(K) >= 1 and val <= 0:
            resonant.append(resonance.ResonantIndex(K, int(val)))
        if val >= 1:
            negative.append(resonance.NegativeWitness(K, int(val)))
    return resonance.ResonanceReport(mu, d, tuple(resonant), tuple(negative))


def ref_witness_walk(mu):
    walk = iter_l_indices(len(mu), 0, resonance._WITNESS_INDICES, with_direction=False)
    for K in islice(walk, resonance._WITNESS_INDICES):
        s = pairing(mu, K)
        if s.is_integer() and s.re >= 1:
            return resonance.NegativeWitness(K, int(s.re))
    return None


# the inputs of the CLI's test_far_witnesses_answer_quickly
FAR_WITNESS_MU = ([F(1, 300)], [F(2, 301), F(-3)], [F(1, 301), F(1, 307), F(1, 311)])


def seeded_mu():
    """Seeded eigenvalues with n = 1..4: zero, pure-imaginary and repeated
    (Jordan-equal) entries among them."""
    rng = random.Random(57)
    for _ in range(120):
        n = rng.choice([1, 2, 3, 4])
        mu = []
        for _ in range(n):
            kind = rng.random()
            if kind < 0.15:
                mu.append(G(0))
            elif kind < 0.3:
                mu.append(G(0, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))))
            elif kind < 0.45 and mu:
                mu.append(mu[-1])
            else:
                im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else 0
                mu.append(G(Fraction(rng.randint(-6, 6), rng.randint(1, 5)), im))
        yield mu


class TestEnumerate:
    def test_single_negative_eigenvalue(self):
        rep = enumerate_resonances([F(-1)], 3)
        assert [r.K for r in rep.resonant] == [(1,), (2,), (3,)]
        assert [r.x_exp for r in rep.resonant] == [1, 2, 3]
        assert not rep.negative

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
                assert not bounded.negative
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

    # n = 4 with S = (11, 39, 0, 1): 56,769,073 box points, past the budget;
    # the first negative resonance is 11*mu_4 - mu_1 = 1, of degree 10
    MU4 = [G(Fraction(1, 10), Fraction(k, 40)) for k in (11, 39, 0, 1)]

    def test_bounded_fallback_for_large_n(self):
        assert resonance._box_points(resonance._imaginary_integers(self.MU4)) == 56_769_073
        r = decide_ntnr(self.MU4, fallback_bound=6)
        assert (r.holds, r.exact, r.bound, r.witness) == (True, False, 6, None)
        # a negative resonance found by the enumeration proves that NTNR fails
        r = decide_ntnr(self.MU4, fallback_bound=10)
        assert (r.holds, r.exact, r.bound) == (False, True, None)
        assert r.witness.K == (-1, 0, 0, 11) and r.witness.q == 1

    def test_exact_for_large_n(self):
        holds = [F(-1, 3), F(-1, 2), G(0, 1), F(-2, 3)]
        assert decide_ntnr(holds) == resonance.NtnrResult(True, True, None, None)

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
        # the Hilbert side of the scan is T = 0 in the box of side max|S|
        calls = []
        scan = resonance._minimal_solutions
        monkeypatch.setattr(resonance, "_minimal_solutions",
                            lambda S, T, side: calls.append((S, T, side)) or scan(S, T, side))
        assert decide_ntnr([G(0, 1), G(Fraction(1, 2), -1), G(-1, Fraction(1, 2))]).exact
        assert [c for c in calls if c[1:] == (0, 2)] == [([2, -2, 1], 0, 2)]

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
            side = max(abs(s) for s in S)
            assert sorted(_minimal_solutions(S, 0, side)) == sorted(brute_min)
            brute_in = [
                p
                for p in product(range(big + 1), repeat=n)
                if any(p) and sum(s * v for s, v in zip(S, p)) == T
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
            assert sorted(_minimal_solutions(S, T, side + abs(T) + 1)) == sorted(brute_in_min)

    def test_witness_past_the_walk_budget(self, monkeypatch):
        # the first witness of 1/300 is K = (300,), the walk's 301st index;
        # past the budget the exact verdict stands without a witness
        monkeypatch.setattr(resonance, "_WITNESS_INDICES", 301)
        assert decide_ntnr([F(1, 300)]).witness == resonance.NegativeWitness((300,), 1)
        monkeypatch.setattr(resonance, "_WITNESS_INDICES", 300)
        assert decide_ntnr([F(1, 300)]) == resonance.NtnrResult(False, True, None, None)
        monkeypatch.undo()
        mu = [F(1, 301), F(1, 307), F(1, 311)]
        assert decide_ntnr(mu) == resonance.NtnrResult(False, True, None, None)


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

    def test_origin_alone(self):
        assert origin_in_hull([G(0)])
        assert not origin_in_hull([G(1, 1)])

    def test_repeated_points(self):
        assert not origin_in_hull([G(2, 1), G(2, 1)])
        assert origin_in_hull([G(-1), G(-1), G(2)])
        assert origin_in_hull([G(0), G(0), G(3, 1)])

    def test_collinear_one_side_misses(self):
        assert not origin_in_hull([G(1, 1), G(2, 2), G(3, 3)])
        assert not origin_in_hull([G(Fraction(-1, 2)), G(-1), G(-3)])

    def test_collinear_both_sides(self):
        assert origin_in_hull([G(1, 1), G(-2, -2)])
        assert origin_in_hull([G(1, 1), G(2, 2), G(-1, -1), G(5, -7)])

    def test_origin_inside_a_square(self):
        assert origin_in_hull([G(1, 1), G(-1, 2), G(-1, -1), G(2, -1)])


class TestReferenceOracles:
    """The short-way routines agree with the routines they replaced."""

    def test_hull(self):
        rng = random.Random(51)
        seen = set()
        for _ in range(4000):
            pts = []
            for _ in range(rng.randint(1, 5)):
                r = rng.random()
                if r < 0.1:
                    p = G(0)
                elif r < 0.2 and pts:
                    p = rng.choice(pts)  # repeated point
                elif r < 0.45 and pts:
                    p = rng.choice(pts) * G(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                else:
                    p = rand_gq(rng, span=3, den=3, imag_prob=0.7)
                pts.append(p)
            got = origin_in_hull(pts)
            assert got == ref_origin_in_hull(pts), pts
            seen.add((len(pts), got))
        assert seen == {(k, v) for k in range(1, 6) for v in (False, True)}

    def test_negative_resonance_exists(self):
        rng = random.Random(52)
        checked = {1: 0, 2: 0, 3: 0}
        verdicts = set()
        for _ in range(400):
            n = rng.choice([1, 2, 3])
            mu = [
                G(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if rng.random() < 0.7 else 0,
                )
                for _ in range(n)
            ]
            S = resonance._imaginary_integers(mu)
            if resonance._box_points(S) > 20_000:
                continue
            got = resonance._negative_resonance_exists(mu, S)
            assert got == ref_negative_resonance_exists(mu, S), mu
            checked[n] += 1
            verdicts.add((any(S) and 0 in S, got))
        assert min(checked.values()) >= 50
        assert verdicts == {(a, b) for a in (False, True) for b in (False, True)}

    def test_eq5_witness(self):
        rng = random.Random(53)
        signs = {-1: 0, 0: 0, 1: 0}
        for _ in range(12_000):
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            assert resonance._eq5_witness(x, y) == ref_eq5_witness(x, y), (x, y)
            signs[(x > 0) - (x < 0)] += 1
        assert min(signs.values()) >= 500

    def test_knapsack_all_negative_generators(self):
        rng = random.Random(54)
        hits = 0
        for _ in range(3000):
            alpha = Fraction(rng.randint(-4, 24), rng.randint(1, 6))
            gens = [Fraction(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            got = resonance._monoid_hits_positive_integer(alpha, gens)
            assert got == ref_monoid_hits_positive_integer(alpha, gens), (alpha, gens)
            hits += got
        assert 300 < hits < 2700

    def test_find_witness(self):
        rng = random.Random(55)
        found = 0
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            mu = [
                G(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                  Fraction(rng.choice([-1, 1]), rng.randint(1, 3)) if rng.random() < 0.3 else 0)
                for _ in range(n)
            ]
            # the reference doubles its bound up to 256, which takes minutes
            # at n = 3; keep the inputs it answers by degree 8
            if not enumerate_resonances(mu, 8).negative:
                continue
            assert resonance._find_witness(mu) == ref_find_witness(mu), mu
            found += 1
        assert found >= 150
        for mu in ([F(3, 100)], [F(2, 151), F(-3)], [F(-1), F(-3), G(0, 1)]):
            assert resonance._find_witness(mu) == ref_find_witness(mu), mu


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


class TestIntegralPairing:
    def test_enumeration_matches_pairing_walk(self):
        hits = 0
        for mu in [*seeded_mu(), *FAR_WITNESS_MU]:
            d = 6 if len(mu) <= 3 else 4
            got = enumerate_resonances(mu, d)
            assert got == ref_enumerate_pairing(mu, d), mu
            hits += bool(got.resonant) + bool(got.negative)
        assert hits >= 100

    def test_witness_matches_pairing_walk(self):
        # a walk with no witness runs the whole budget, about 0.5 s in the
        # reference: keep the seeded inputs with a hit by degree 8; the last
        # far-witness input walks the whole budget
        near = [mu for mu in seeded_mu() if enumerate_resonances(mu, 8).negative]
        found = 0
        for mu in [*near, *FAR_WITNESS_MU]:
            got = resonance._find_witness(mu)
            assert got == ref_witness_walk(mu), mu
            found += got is not None
        assert found >= 40

    def test_agrees_with_pairing_on_every_index(self):
        rng = random.Random(58)
        for mu in [*seeded_mu(), *FAR_WITNESS_MU]:
            pair = resonance.integral_pairing(mu)
            for K in iter_l_indices(len(mu), 0, 4, with_direction=False):
                s = pairing(mu, K)
                assert pair(K) == (int(s.re) if s.is_integer() else None), (mu, K)
            K = tuple(rng.randint(0, 400) for _ in mu)
            s = pairing(mu, K)
            assert pair(K) == (int(s.re) if s.is_integer() else None), (mu, K)


# --- reference oracles: the box scan's point test and the eigenvalue reads
# before they read integers from the canonical triples ------------------------


def ref_integral_pairing(mu):
    den = math.lcm(*(m.re.denominator for m in mu), *(m.im.denominator for m in mu))
    re = [int(m.re * den) for m in mu]
    im = [int(m.im * den) for m in mu]

    def pair(K):
        if sum(map(operator.mul, im, K)):
            return None
        q, r = divmod(sum(map(operator.mul, re, K)), den)
        return None if r else q

    return pair


def ref_imaginary_integers(mu):
    den = math.lcm(*(m.im.denominator for m in mu))
    return [int(m.im * den) for m in mu]


def ref_minimal_solutions(S, T, side):
    box = product(range(side + 1), repeat=len(S))
    sols = [p for p in box if any(p) and sum(s * v for s, v in zip(S, p)) == T]
    return resonance._minimal_elements(sols)


def triple_mu(rng, n):
    """n eigenvalues (a + b*i)/d: zero, real and pure-imaginary entries, and
    parts a/d, b/d that reduce to different denominators."""
    mu = []
    for _ in range(n):
        d = rng.randint(1, 12)
        a = 0 if rng.random() < 0.3 else rng.randint(-24, 24)
        b = 0 if rng.random() < 0.3 else rng.randint(-24, 24)
        mu.append(G(Fraction(a, d), Fraction(b, d)))
    return mu


class TestIntegerReads:
    """The triple reads and the lighter point test agree with the Fraction
    reads and the generator scan they replaced."""

    def test_eigenvalue_reads_match_the_fraction_reads(self):
        rng = random.Random(61)
        kinds = {"zero": 0, "pure_imaginary": 0, "unreduced": 0}
        hits = 0
        for i in range(2000):
            mu = triple_mu(rng, 1 + i % 4)
            kinds["zero"] += any(m.is_zero() for m in mu)
            kinds["pure_imaginary"] += any(m.re == 0 and m.im != 0 for m in mu)
            kinds["unreduced"] += any(m.re.denominator != m.im.denominator for m in mu)
            assert resonance._imaginary_integers(mu) == ref_imaginary_integers(mu), mu
            got, want = resonance.integral_pairing(mu), ref_integral_pairing(mu)
            for K in [(1,) * len(mu), *(tuple(rng.randint(-2, 12) for _ in mu) for _ in range(4))]:
                assert got(K) == want(K), (mu, K)
                hits += want(K) is not None
        assert min(kinds.values()) >= 200 and hits >= 500, (kinds, hits)

    def test_box_scan_matches_the_generator_scan(self):
        rng = random.Random(62)
        found = 0
        for i in range(2000):
            n = 1 + i % 4
            S = [0 if rng.random() < 0.2 else rng.randint(-5, 5) for _ in range(n)]
            T = 0 if rng.random() < 0.3 else rng.randint(-6, 6)
            side = rng.randint(0, (6, 5, 4, 3)[n - 1])
            got = _minimal_solutions(S, T, side)
            assert got == ref_minimal_solutions(S, T, side), (S, T, side)
            found += bool(got)
        assert found >= 600
