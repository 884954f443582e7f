"""Acceptance suite: one module per release gate, each at its stated tolerance.

Every criterion runs on deterministic seeds, asserts exact equality where the
data is exact and the documented tolerance where it is numeric, and enforces
its wall-clock budget.  The terminal summary prints one PASS/FAIL line per
criterion (see conftest).
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.holonomy import conjugacy_residual, holonomy_jet
from crossfield.lie import Automorphism, VectorField, exp, exp_ad, log
from crossfield.normalform import centralizer_solve, normalize
from crossfield.resonance import (
    classify_dim2,
    classify_dim3,
    decide_ntnr,
    enumerate_resonances,
    pairing,
)
from crossfield.series import MonomialIndex, TransverseSeries, iter_l_indices

from helpers import (
    euler_apply,
    rand_commuting_pair,
    rand_field,
    rand_gq,
    rand_laurent,
    rand_mu,
    rand_one_flat,
    rand_series,
    rand_x_normalized_automorphism,
    scale_series,
)

N, CAP = 2, 5


def crit(cid, desc):
    return pytest.mark.acceptance(criterion=cid, description=desc)


# --- criterion 1: algebra suite ------------------------------------------------


@crit(1, "algebra identities, 200+ exact instances each at n=2, d=5, under 60 s")
class TestCriterion1:
    def test_algebra_suite(self):
        start = time.time()
        rng = random.Random(1001)

        # ring axioms on truncated series
        for _ in range(200):
            f, g, h = (rand_series(rng, N, CAP, terms=3, min_exp=-2) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

        # Leibniz rule
        for _ in range(200):
            X = rand_field(rng, N, CAP, terms=2)
            f = rand_series(rng, N, CAP, terms=2)
            g = rand_series(rng, N, CAP, terms=2)
            assert X.apply(f * g) == X.apply(f) * g + f * X.apply(g)

        # Jacobi identity
        for _ in range(200):
            X, Y, Z = (rand_field(rng, N, CAP, terms=2) for _ in range(3))
            assert (
                X.bracket(Y.bracket(Z))
                + Y.bracket(Z.bracket(X))
                + Z.bracket(X.bracket(Y))
            ).is_zero()

        # bracket naturality under pushforward
        for _ in range(200):
            phi = exp(rand_one_flat(rng, N, CAP, terms=1))
            Zf = rand_field(rng, N, CAP, terms=2)
            W = rand_field(rng, N, CAP, terms=2)
            assert phi.pushforward(Zf.bracket(W)) == phi.pushforward(Zf).bracket(
                phi.pushforward(W)
            )

        # module rule [Z, fW] = f[Z, W] + Z(f) W
        for _ in range(200):
            Zf = rand_field(rng, N, CAP, terms=2)
            W = rand_field(rng, N, CAP, terms=2)
            f = rand_series(rng, N, CAP, terms=2)
            assert Zf.bracket(scale_series(W, f)) == scale_series(
                Zf.bracket(W), f
            ) + scale_series(W, Zf.apply(f))

        # exp(X + Y) = exp(X) o exp(Y) for commuting nilpotents
        for _ in range(200):
            X, Y = rand_commuting_pair(rng, CAP)
            assert X.bracket(Y).is_zero()
            assert exp(X + Y) == exp(X).compose(exp(Y))

        # exp/log round trips
        for _ in range(200):
            X = rand_one_flat(rng, N, CAP, terms=2)
            assert log(exp(X)) == X
            phi = exp(X)
            assert exp(log(phi)) == phi

        # Ad = exp(ad) at t in {1, 2, -1}
        for i in range(201):
            t = [1, 2, -1][i % 3]
            X = rand_one_flat(rng, N, CAP, terms=2)
            Z = rand_field(rng, N, CAP, terms=2)
            assert exp_ad(X.scale(t), Z) == exp(X, t).pushforward(Z)

        assert time.time() - start < 60.0


# --- criterion 2: keystone bracket ---------------------------------------------


@crit(2, "bracket with the semisimple part scales by (x d/dx + <mu,K>), 100+ exact")
class TestCriterion2:
    def test_keystone_identity(self):
        rng = random.Random(1002)
        for _ in range(120):
            n = rng.choice([1, 2, 3])
            cap = 4
            mu = rand_mu(rng, n)
            S = VectorField.semisimple(mu, cap)
            idx = rng.choice(list(iter_l_indices(n, 0, cap - 1)))
            f = rand_laurent(rng, -3, 3, terms=2)
            W = VectorField.monomial(n, cap, idx, f)
            s = pairing(mu, idx.K)
            assert S.bracket(W) == VectorField.monomial(n, cap, idx, euler_apply(f, s))


# --- criterion 3: normal form --------------------------------------------------


def resonant_example(cap):
    return (
        VectorField.semisimple([G(-1)], cap)
        + VectorField.monomial(1, cap, MonomialIndex((1,), 1), LaurentPoly.x())
    )


@crit(3, "resonant example exact at d=6, certificates zero, sweep order strict")
class TestCriterion3:
    def test_resonant_example_shape(self):
        cap = 6
        X = resonant_example(cap)
        res = normalize(X, [G(-1)])
        # exactly x dx - z dz + c x z^2 dz with c = 1
        assert res.normal_field == X
        assert [(t.K, t.j, t.x_exp) for t in res.resonant] == [((1,), 1, 1)]
        assert res.resonant[0].coeff == G(1)
        assert (res.normalizer.pushforward(X) - res.normal_field).is_zero()

    def test_decorated_input_reduces_to_shape(self):
        cap = 6
        X = (
            resonant_example(cap)
            + VectorField.monomial(1, cap, MonomialIndex((1,), 1), LaurentPoly.one())
            + VectorField.monomial(1, cap, MonomialIndex((3,), 1), LaurentPoly.x(2))
        )
        res = normalize(X, [G(-1)], x_cap=12)
        assert res.certified
        table = {r.K: r.x_exp for r in enumerate_resonances([G(-1)], cap - 1).resonant}
        for t in res.resonant:
            assert table[t.K] == t.x_exp
        assert res.normal_field.coefficient_at(MonomialIndex((1,), 1)) == LaurentPoly.x()

    def test_idempotence(self):
        cap = 6
        res = normalize(resonant_example(cap), [G(-1)])
        res2 = normalize(res.normal_field, [G(-1)])
        assert res2.normal_field == res.normal_field
        assert res2.steps == ()
        assert res2.normalizer == Automorphism.identity(1, cap)

    def test_order_progress_on_random_fields(self):
        rng = random.Random(1003)
        for _ in range(50):
            n = rng.choice([1, 2])
            cap = rng.choice([3, 4])
            mu = rand_mu(rng, n, span=2, den=2, imag_prob=0.3)
            extra = [
                rand_series(rng, n, cap, terms=3, min_deg=2, min_exp=0, max_exp=2)
                for _ in range(n)
            ]
            X = VectorField.semisimple(mu, cap) + VectorField(
                TransverseSeries.zero(n, cap), extra
            )
            res = normalize(X, mu, x_cap=24)
            keys = [s.pair_key() for s in res.steps]
            assert keys == sorted(keys) and len(keys) == len(set(keys))
            assert res.certified
            again = normalize(res.normal_field, mu, x_cap=64)
            assert again.steps == ()


# --- criterion 4: centralizer window -------------------------------------------


@crit(4, "no-negative-resonance gives a Taylor centralizer on [-6,6], d=6, exact")
class TestCriterion4:
    def test_truncated_centralizer_statement(self):
        start = time.time()
        rng = random.Random(1004)

        passing = 0
        while passing < 30:
            mu = rand_mu(rng, 2, span=3, den=2, imag_prob=0.5)
            verdict = decide_ntnr(mu)
            if not verdict.holds:
                continue
            passing += 1
            result = centralizer_solve(mu, (-6, 6), 6)
            assert not result.negative, (mu, result.negative)

        failing = 0
        while failing < 10:
            mu = rand_mu(rng, 2, span=3, den=2, imag_prob=0.2)
            verdict = decide_ntnr(mu)
            if verdict.holds:
                continue
            # only witnesses visible inside the window/degree budget count
            report = enumerate_resonances(mu, 5)
            visible = [w for w in report.negative if 1 <= w.q <= 6]
            if not visible:
                continue
            failing += 1
            result = centralizer_solve(mu, (-6, 6), 6)
            assert result.negative, mu
            found = {(e.index.K, e.x_exp) for e in result.negative}
            assert any((w.K, -w.q) in found for w in visible)

        assert time.time() - start < 120.0


# --- criterion 5: classification tables ----------------------------------------


@crit(5, "30-case classification table reproduces the exact di/trichotomy")
class TestCriterion5:
    # transverse eigenvalue -> expected two-variable case
    TABLE2 = [
        (G(2), "Linearizable"),  # positive real
        (G(Fraction(1, 2)), "Linearizable"),
        (G(0, 1), "Linearizable"),  # nonreal
        (G(-1, 2), "Linearizable"),
        (G(Fraction(3, 7), -1), "Linearizable"),
        (G(-1), "ClassifiedByHolonomy"),  # real <= 0
        (G(Fraction(-7, 3)), "ClassifiedByHolonomy"),
        (G(0), "ClassifiedByHolonomy"),
    ]

    # (lambda, mu) -> expected three-variable case and witness
    TABLE3 = [
        # Poincare: hull of {1, lambda, mu} misses 0
        ((G(2), G(3)), "Poincare", None),
        ((G(1, 1), G(2, -1)), "Poincare", None),
        ((G(0, 1), G(0, 1)), "Poincare", None),
        ((G(Fraction(1, 2), 1), G(1, -1)), "Poincare", None),
        # Siegel with a nonreal eigenvalue
        ((G(0, 1), G(-1, -1)), "SiegelNonreal", None),
        ((G(0, 2), G(-1)), "SiegelNonreal", None),
        ((G(-2), G(1, 1)), "SiegelNonreal", None),  # boundary: real < 0, nonreal mu
        ((G(-1, 1), G(-1, -1)), "SiegelNonreal", None),
        ((G(1, 1), G(-2, -2)), "SiegelNonreal", None),
        # Siegel real, classified by linear part and holonomy
        ((G(Fraction(-1, 3)), G(Fraction(-1, 2))), "SiegelRealClassified", None),
        ((G(-2), G(-2)), "SiegelRealClassified", None),
        ((G(0), G(0)), "SiegelRealClassified", None),
        ((G(Fraction(-2, 5)), G(Fraction(-3, 5))), "SiegelRealClassified", None),
        ((G(Fraction(-1, 2)), G(Fraction(-5, 7))), "SiegelRealClassified", None),
        # Siegel real, subcase (a): mu < lambda <= 0, p lambda = mu + q
        ((G(-1), G(-3)), "SiegelReal3a", {"p": 1, "q": 2}),
        ((G(-3), G(-1)), "SiegelReal3a", {"p": 1, "q": 2}),  # permuted
        ((G(-1), G(-2)), "SiegelReal3a", {"p": 1, "q": 1}),
        ((G(Fraction(-1, 2)), G(Fraction(-3, 2))), "SiegelReal3a", {"p": 1, "q": 1}),
        ((G(0), G(-1)), "SiegelReal3a", {"p": 1, "q": 1}),
        ((G(Fraction(-1, 2)), G(-4)), "SiegelReal3a", {"p": 3, "q": Fraction(5, 2)}),
        # Siegel real, subcase (b): mu <= 0 < lambda
        ((G(Fraction(1, 2)), G(-3)), "SiegelReal3b", {"p": 2, "q": 4}),
        ((G(-5), G(Fraction(1, 5))), "SiegelReal3b", {"p": 5, "q": 6}),
        ((G(1), G(-1)), "SiegelReal3b", {"p": 1, "q": 2}),
        ((G(2), G(Fraction(-1, 2))), "SiegelReal3b", "cone"),
        ((G(Fraction(1, 3)), G(Fraction(-5, 2))), "SiegelReal3b", "cone"),
        ((G(Fraction(3, 2)), G(0)), "SiegelReal3b", {"p": 2, "q": 3}),
    ]

    def test_table_size(self):
        assert len(self.TABLE2) + len(self.TABLE3) >= 30

    def test_dimension_two_dichotomy(self):
        for lam, expected in self.TABLE2:
            assert classify_dim2(lam) == expected, str(lam)

    def test_dimension_three_trichotomy(self):
        for (lam, mu), expected, witness in self.TABLE3:
            c = classify_dim3(lam, mu)
            assert c.case == expected, (str(lam), str(mu), c.case)
            if witness == "cone":
                assert c.witness is not None and "u" in c.witness
            elif witness is not None:
                # the eq-5 witness must satisfy p*max = min + q exactly
                hi = max(lam.re, mu.re)
                lo = min(lam.re, mu.re)
                p, q = c.witness["p"], c.witness["q"]
                assert p * hi == lo + q and p >= 1 and q >= 1
            else:
                assert c.witness is None

    def test_3a_row_witness_values(self):
        # spot-check the hand-derived witnesses where uniqueness is clear
        assert classify_dim3(G(-1), G(-3)).witness == {"p": 1, "q": 2}
        assert classify_dim3(G(Fraction(1, 2)), G(-3)).witness == {"p": 2, "q": 4}


# --- criterion 6: holonomy numerics --------------------------------------------


def _rk4_oracle_c2():
    def f(theta, z):
        x = cmath.exp(2j * math.pi * theta)
        return 2j * math.pi * (-z + x * z * z)

    def run(z0, steps):
        h = 1.0 / steps
        t, z = 0.0, z0
        for _ in range(steps):
            k1 = f(t, z)
            k2 = f(t + h / 2, z + h / 2 * k1)
            k3 = f(t + h / 2, z + h / 2 * k2)
            k4 = f(t + h, z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return z

    def ret(r):
        return (16 * run(r, 800) - run(r, 400)) / 15

    def e(r):
        return (ret(r) - r) / (r * r)

    r = 1e-3
    r1 = 2 * e(r / 2) - e(r)
    r2 = 2 * e(r / 4) - e(r / 2)
    return (4 * r2 - r1) / 3


@crit(6, "holonomy: linear 1e-8, resonant c2 1e-7 with oracle, residuals 1e-6")
class TestCriterion6:
    def test_linear_field_exactness(self):
        X = VectorField.semisimple([G(0, 1)], 3)
        h = holonomy_jet(X, 2, tol=1e-10)
        assert abs(h.coefficient(1, (1,)) - math.exp(-2 * math.pi)) < 1e-8

    def test_resonant_second_coefficient(self):
        # the independent point-ODE + Richardson oracle comes first
        oracle = _rk4_oracle_c2()
        assert abs(oracle - 2j * math.pi) < 1e-6
        h = holonomy_jet(resonant_example(4), 2, tol=1e-10)
        c2 = h.coefficient(1, (2,))
        assert abs(c2 - 2j * math.pi) < 1e-7
        assert abs(c2 - oracle) < 1e-6

    def test_random_conjugations(self):
        start = time.time()
        rng = random.Random(1006)
        d = 3
        done = 0
        while done < 20:
            n = rng.choice([1, 2])
            # moderate data: |e^{2 pi i mu}| = e^{-2 pi Im(mu)} stays O(1)
            # only when the imaginary parts are small
            mu = tuple(
                G(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    Fraction(rng.choice([-1, 0, 0, 1]), 4),
                )
                for _ in range(n)
            )
            extra = [
                rand_series(rng, n, d, terms=1, min_deg=2, min_exp=0, max_exp=1)
                for _ in range(n)
            ]
            X = VectorField.semisimple(mu, d) + VectorField(
                TransverseSeries.zero(n, d), extra
            )
            psi = rand_x_normalized_automorphism(rng, n, d)
            assert conjugacy_residual(X, psi, d, tol=1e-10) < 1e-6
            done += 1
        assert time.time() - start < 120.0


# --- criterion 7: CLI golden files ---------------------------------------------


@crit(7, "CLI golden files byte-exact for every command, error positions included")
class TestCriterion7:
    def test_all_golden_cases(self, capsys, monkeypatch):
        from test_cli import CASES, GOLDEN, golden_run

        for name, argv, code, check_err in CASES:
            rc, out, err = golden_run(argv, capsys, monkeypatch)
            assert rc == code, (name, err)
            assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
            if check_err:
                assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8"), name
