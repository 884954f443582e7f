import cmath
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from crossfield import holonomy
from crossfield.cli import FieldDocument, main
from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.holonomy import (
    MAX_WINDINGS,
    _DP_A,
    _DP_B4,
    _DP_C,
    HolonomyJet,
    IntegrationError,
    LeafEscapeError,
    TWO_PI_I,
    _eval_coeff,
    _integrate,
    _jet_layout,
    _jet_rhs,
    _numeric_terms,
    conjugacy_residual,
    holonomy_jet,
    path_lift,
    transport_conjugacy,
)
from crossfield.lie import Automorphism, VectorField, exp
from crossfield.series import MonomialIndex, TransverseSeries, iter_exponents

from helpers import linear_matrix, rand_mu, rand_x_normalized, rand_x_normalized_automorphism

DATA = Path(__file__).parent / "data"


def mono(n, cap, K, j, coeff):
    return VectorField.monomial(n, cap, MonomialIndex(K, j), coeff)


def field_mu_i(cap=4):
    return VectorField.euler(1, cap) + VectorField.diagonal([G(0, 1)], cap)


def field_resonant(cap=4):
    return (
        VectorField.euler(1, cap)
        + VectorField.diagonal([G(-1)], cap)
        + mono(1, cap, (1,), 1, LaurentPoly.x())
    )


def rk4_point_oracle(z0: complex, steps: int) -> complex:
    """Plain fixed-step RK4 for dz/dtheta = 2 pi i (-z + e^{2 pi i theta} z^2).

    Deliberately independent of the package integrator: different method,
    different code path, no shared state.
    """

    def f(theta, z):
        x = cmath.exp(2j * math.pi * theta)
        return 2j * math.pi * (-z + x * z * z)

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


def oracle_c2() -> complex:
    """Brute-force second jet coefficient of the resonant example's holonomy.

    Point returns at three radii, each Richardson-extrapolated in the step
    size (RK4 is O(h^4)); the known linear part e^{-2 pi i} = 1 is subtracted
    and two Richardson passes in the radius remove the c3 r and c4 r^2 tails.
    """

    def return_map(r):
        coarse = rk4_point_oracle(r, 400)
        fine = rk4_point_oracle(r, 800)
        return (16 * fine - coarse) / 15

    def second_coeff(r):
        return (return_map(r) - r) / (r * r)

    r = 1e-3
    r1 = 2 * second_coeff(r / 2) - second_coeff(r)
    r2 = 2 * second_coeff(r / 4) - second_coeff(r / 2)
    return (4 * r2 - r1) / 3


class TestJet:
    def test_linear_exactness_imaginary(self):
        h = holonomy_jet(field_mu_i(), 2, tol=1e-10)
        c1 = h.coefficient(1, (1,))
        assert abs(c1 - math.exp(-2 * math.pi)) < 1e-9

    def test_linear_exactness_negative_one(self):
        X = VectorField.euler(1, 3) + VectorField.diagonal([G(-1)], 3)
        h = holonomy_jet(X, 2, tol=1e-10)
        assert abs(h.coefficient(1, (1,)) - 1.0) < 1e-9

    def test_linear_exactness_two_variables(self):
        mu = [G(0, 1), G(-2)]
        X = VectorField.semisimple(mu, 3)
        h = holonomy_jet(X, 1, tol=1e-10)
        M = linear_matrix(h)
        for i, m in enumerate(mu):
            expect = cmath.exp(2j * math.pi * m.as_complex())
            assert abs(M[i][i] - expect) < 1e-9
        assert abs(M[0][1]) < 1e-12 and abs(M[1][0]) < 1e-12

    def test_resonant_second_coefficient_against_closed_form(self):
        h = holonomy_jet(field_resonant(), 2, tol=1e-10)
        assert abs(h.coefficient(1, (2,)) - 2j * math.pi) < 1e-7

    def test_resonant_second_coefficient_against_oracle(self):
        # the independent point-ODE + Richardson oracle pins the value first
        c2 = oracle_c2()
        assert abs(c2 - 2j * math.pi) < 1e-6
        h = holonomy_jet(field_resonant(), 2, tol=1e-10)
        assert abs(h.coefficient(1, (2,)) - c2) < 1e-6

    def test_winding_composition(self):
        # holonomy_jet composes one integrated turn; the reference integrates
        # all w turns in one run.  Bound: 1e3 * tol relative to the largest
        # coefficient (measured: at most 2e-11 relative at tol 1e-11).
        degree, tol = 3, 1e-11
        for X in (field_resonant(), _golden_field("twovar.vf")):
            _, index = _jet_layout(X.n, degree)
            y0 = identity_state(X.n, degree)
            for windings in (2, 3, -2):
                y = _integrate(full_layout_rhs(X, degree, windings), y0, tol)
                direct = HolonomyJet(X.n, degree, {
                    i: {K: y[pos] for (j, K), pos in index.items() if j == i}
                    for i in range(1, X.n + 1)
                })
                scale = max(abs(c) for comp in direct.coeffs.values() for c in comp.values())
                composed = holonomy_jet(X, degree, tol=tol, windings=windings)
                assert composed.max_abs_diff(direct) <= 1e3 * tol * scale, windings

    def test_degree_one_matches_finite_difference_jacobian(self):
        X = field_resonant()
        tol = 1e-10
        h = holonomy_jet(X, 1, tol=tol)
        # eps must sit above the integrator's absolute error floor (~tol)
        eps = 1e-4
        plus = path_lift(X, (1.0, (eps,)), TWO_PI_I, tol)[1][0]
        minus = path_lift(X, (1.0, (-eps,)), TWO_PI_I, tol)[1][0]
        fd = (plus - minus) / (2 * eps)
        assert abs(fd - h.coefficient(1, (1,))) < math.sqrt(tol)

    def test_rejects_non_normalized(self):
        bad = VectorField.zero(1, 3)
        with pytest.raises(ValueError):
            holonomy_jet(bad, 2)

    def test_degree_past_the_cap_names_both_degrees(self):
        with pytest.raises(ValueError, match="jet degree 5 exceeds the field's truncation degree 4"):
            holonomy_jet(field_resonant(4), 5)


class TestPathLift:
    def test_trivial_transverse_dynamics(self):
        X = VectorField.euler(1, 4)
        _, z = path_lift(X, (1.0, (0.5,)), TWO_PI_I, 1e-12)
        assert abs(z[0] - 0.5) < 1e-12

    def test_radial_exponential(self):
        X = VectorField.euler(1, 4) + VectorField.diagonal([G(1)], 4)
        _, z = path_lift(X, (1.0, (0.01,)), 1.0, 1e-12)
        assert abs(z[0] / 0.01 - math.e) < 1e-9

    def test_circle_matches_jet_linear_part(self):
        X = field_mu_i()
        _, z = path_lift(X, (1.0, (1e-3,)), TWO_PI_I, 1e-12)
        h = holonomy_jet(X, 1, tol=1e-12)
        assert abs(z[0] / 1e-3 - h.coefficient(1, (1,))) < 1e-6

    def test_start_validation(self):
        # both endpoints must be nonzero and finite: x0 = 0, an end that
        # underflows to 0, an end that overflows, and x0 = inf
        X = field_mu_i()
        for x0, rate in ((0.0, TWO_PI_I), (1.0, -1e4), (1.0, 1e4), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="nonzero and finite"):
                path_lift(X, (x0, (0.1,)), rate, 1e-10)

    def test_leaf_escape(self):
        # z = z0 x passes the escape radius 8 on the way from x = 1 to 1e4
        X = VectorField.euler(1, 3) + VectorField.diagonal([G(1)], 3)
        with pytest.raises(LeafEscapeError, match=r"\|z\| > 8\.0"):
            path_lift(X, (1.0, (1.0,)), math.log(1e4), 1e-10)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(holonomy, "_MAX_STEPS", 2)
        with pytest.raises(IntegrationError, match="step budget"):
            path_lift(field_resonant(), (1.0, (0.3,)), TWO_PI_I, 1e-13)

    def test_step_size_underflow(self, monkeypatch):
        # every step is rejected with a finite error norm: h shrinks fivefold
        # per rejection from 1/16 until it is below 1e-14
        def step(f, t, h, y, k1, tol):
            return 1e300, y, k1

        monkeypatch.setattr(holonomy, "_dp5_step", lambda m: step)
        with pytest.raises(IntegrationError, match="step size underflow at t=0 "):
            path_lift(field_resonant(), (1.0, (0.3,)), TWO_PI_I, 1e-10)

    @pytest.mark.parametrize("name,start", [
        ("resonant.vf", (0.7 - 0.2j, (0.03 + 0.01j,))),
        ("twovar.vf", (0.8 + 0.3j, (0.05 - 0.02j, 0.03j))),
    ])
    def test_one_leg_matches_radial_then_rotation(self, name, start):
        # transport_conjugacy's single leg to x = 1 against the radial leg to
        # |x| = 1 followed by the rotation: the same homotopy class, so the
        # same end point up to the integrator's error
        X = _golden_field(name)
        x0 = start[0]
        radial, turn = -math.log(abs(x0)), cmath.phase(x0) % (2 * math.pi)
        x1, one = path_lift(X, start, complex(radial, -turn), 1e-12)
        u0, z = path_lift(X, start, radial, 1e-12)
        x2, two = path_lift(X, (u0, z), -1j * turn, 1e-12)
        assert abs(x1 - 1) < 1e-14 and abs(x2 - 1) < 1e-14
        assert max(abs(a - b) for a, b in zip(one, two)) < 1e-10


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_entry_points_reject_bad_tol(self, tol):
        X = field_resonant()
        with pytest.raises(ValueError, match="tol"):
            holonomy_jet(X, 2, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            path_lift(X, (1.0, (0.1,)), TWO_PI_I, tol)
        with pytest.raises(ValueError, match="tol"):
            conjugacy_residual(X, Automorphism.identity(1, 4), 2, tol=tol)


class TestConjugacy:
    def test_identity_residual(self):
        r = conjugacy_residual(field_resonant(), Automorphism.identity(1, 4), 2)
        assert r < 1e-9

    def test_scaling_residual(self):
        psi = Automorphism.linear([[G(2)]], 4)
        assert conjugacy_residual(field_resonant(), psi, 2) < 1e-8

    def test_random_polynomial_conjugations(self):
        rng = random.Random(61)
        X = field_resonant(cap=3)
        for _ in range(5):
            psi = rand_x_normalized_automorphism(rng, 1, 3)
            assert conjugacy_residual(X, psi, 3, tol=1e-10) < 1e-6

    def test_two_variable_conjugation(self):
        rng = random.Random(62)
        X = VectorField.semisimple([G(0, 1), G(-1)], 3)
        psi = rand_x_normalized_automorphism(rng, 2, 3)
        assert conjugacy_residual(X, psi, 3, tol=1e-10) < 1e-6


class TestTransport:
    def test_identity_fixed_point(self):
        X = field_resonant()
        pt = (0.7 - 0.2j, (0.03 + 0.01j,))
        _, z = transport_conjugacy(X, X, HolonomyJet.identity(1, 4), pt, 1e-12)
        assert abs(z[0] - pt[1][0]) < 1e-9

    def test_consistency_with_algebraic_conjugation(self):
        X = field_resonant()
        W = mono(1, 4, (1,), 1, LaurentPoly.one())
        psi = exp(W)
        Y = psi.pushforward(X)
        pj = HolonomyJet.from_automorphism(psi, 4)
        pt = (0.8 + 0.1j, (0.02 + 0.01j,))
        # psi's point map carries Y-leaves to X-leaves, so phi = psi|_{x=1}
        # conjugates h_Y to h_X and the transport reproduces psi pointwise
        _, z = transport_conjugacy(Y, X, pj, pt, 1e-12)
        expected = pj.apply_point(pt[1])[0]
        assert abs(z[0] - expected) < 1e-7
        # and stays put under an extra winding
        _, z2 = transport_conjugacy(Y, X, pj, pt, 1e-12, extra_windings=1)
        assert abs(z2[0] - expected) < 1e-7

    def test_non_conjugacy_detected_by_windings(self):
        X = field_resonant()
        W = mono(1, 4, (1,), 1, LaurentPoly.one())
        psi = exp(W)
        Y = psi.pushforward(X)
        bad = HolonomyJet(1, 4, {1: {(1,): 1.0, (2,): 0.37}})
        pt = (0.8 + 0.1j, (0.02 + 0.01j,))
        _, za = transport_conjugacy(Y, X, bad, pt, 1e-12)
        _, zb = transport_conjugacy(Y, X, bad, pt, 1e-12, extra_windings=1)
        assert abs(za[0] - zb[0]) > 1e-9

    @pytest.mark.parametrize("extra", [0.5, True])
    def test_rejects_windings_that_are_not_ints(self, extra):
        # with 0.5 the leg to x = 1 would end at x = -1, and the leg back
        # would still start from x = 1
        X = field_resonant()
        with pytest.raises(ValueError, match="extra_windings"):
            transport_conjugacy(X, X, HolonomyJet.identity(1, 4), (0.7 + 0.2j, (0.01,)),
                                extra_windings=extra)


class TestWindingsValidation:
    @pytest.mark.parametrize("windings", [0, MAX_WINDINGS + 1, -MAX_WINDINGS - 1, 10**6, 1.0, True])
    def test_rejected(self, windings):
        with pytest.raises(ValueError, match="windings"):
            holonomy_jet(field_resonant(), 2, windings=windings)

    def test_negative_windings_reverse_the_loop(self):
        X = field_resonant()
        forward = holonomy_jet(X, 3, tol=1e-11)
        backward = holonomy_jet(X, 3, tol=1e-11, windings=-1)
        assert forward.after(backward).max_abs_diff(HolonomyJet.identity(1, 3)) < 1e-8


# --- brute-force references for the jet kernels and the integrator ------------
# The dict products below are the loop version the packed kernel replaced;
# they stay here as the oracle for the loop_* plan, HolonomyJet.after and the
# RHS.  ref_integrate is the DP5(4) loop before first-same-as-last and fused
# passes.


def ref_jet_mul(a, b, degree):
    out = {}
    for K1, c1 in a.items():
        d1 = sum(K1)
        for K2, c2 in b.items():
            if d1 + sum(K2) > degree:
                continue
            K = tuple(x + y for x, y in zip(K1, K2))
            out[K] = out.get(K, 0j) + c1 * c2
    return out


class RefPowers:
    """Truncated powers and monomials of a jet family, built on demand."""

    def __init__(self, coeffs, n, degree):
        self.n = n
        self.degree = degree
        self.base = [dict(coeffs.get(i, {})) for i in range(1, n + 1)]
        self._pows = {}

    def power(self, i, k):
        if k == 0:
            return {(0,) * self.n: 1.0 + 0j}
        if (i, k) not in self._pows:
            self._pows[(i, k)] = ref_jet_mul(self.power(i, k - 1), self.base[i], self.degree)
        return self._pows[(i, k)]

    def monomial(self, K):
        out = {(0,) * self.n: 1.0 + 0j}
        for i, k in enumerate(K):
            if k:
                out = ref_jet_mul(out, self.power(i, k), self.degree)
        return out


def ref_after(f, g):
    """f o g by dict substitution."""
    pows = RefPowers(g.coeffs, f.n, f.degree)
    out = {}
    for i in range(1, f.n + 1):
        acc = {}
        for K, c in f.coeffs.get(i, {}).items():
            for K2, c2 in pows.monomial(K).items():
                acc[K2] = acc.get(K2, 0j) + c * c2
        out[i] = acc
    return HolonomyJet(f.n, f.degree, out)


def ref_rhs(X, degree, windings):
    """The jet RHS with per-call dict powers, on the packed layout."""
    n = X.n
    terms = _numeric_terms(X)
    monos, index = _jet_layout(n, degree)
    factor = 2j * math.pi * windings

    def rhs(theta, y):
        x = cmath.exp(2j * math.pi * windings * theta)
        jets = {i: {K: y[index[(i, K)]] for K in monos if y[index[(i, K)]] != 0}
                for i in range(1, n + 1)}
        pows = RefPowers(jets, n, degree)
        out = [0j] * len(index)
        for i in range(1, n + 1):
            for M, xterms in terms[i - 1]:
                c = _eval_coeff(xterms, x)
                if c == 0:
                    continue
                for K, v in pows.monomial(M).items():
                    if sum(K) >= 1:
                        out[index[(i, K)]] += factor * c * v
        return out

    return rhs


# --- the interpreted product plan the compiled kernels replaced ---------------
# _product_table, _dense_mul, _monomials, _pack, _pack_terms, _jet_rhs and
# HolonomyJet.after
# as they were before the kernels were compiled, verbatim but for the loop_
# names: the compiled kernels must match them bit for bit on finite states.


def loop_product_table(monos, degree):
    """Rows (a, [(o, b), ...]) of the truncated product of two packed blocks.

    monos lists the monomials of degree 1..degree in grlex order; position a
    pairs with every b with |K_a| + |K_b| <= degree, and o is the position of
    K_a + K_b.  Rows and pairs both run in grlex order.
    """
    pos = {K: p for p, K in enumerate(monos)}
    rows = []
    for a, Ka in enumerate(monos):
        room = degree - sum(Ka)
        pairs = [
            (pos[tuple(x + y for x, y in zip(Ka, Kb))], b)
            for b, Kb in enumerate(monos)
            if sum(Kb) <= room
        ]
        if pairs:
            rows.append((a, pairs))
    return rows


def loop_dense_mul(rows, A, B, m):
    """Truncated product of the packed blocks A and B (length m), a outer, b inner."""
    r = [0j] * m
    for a, pairs in rows:
        x = A[a]
        if x:
            for o, b in pairs:
                r[o] += x * B[b]
    return r


def loop_monomials(rows, m, blocks, exps):
    """Dense z^M over the packed blocks z_j, for each exponent tuple M in exps.

    Each M needs 1 <= |M|.  Powers follow z_j^k = z_j^(k-1) z_j, z^M
    multiplies its powers left to right over j, and every power and every
    distinct M is built once.
    """
    powers = [[z] for z in blocks]
    out = {}
    for M in exps:
        if M in out:
            continue
        acc = None
        for j, k in enumerate(M):
            if k:
                pw = powers[j]
                while len(pw) < k:
                    pw.append(loop_dense_mul(rows, pw[-1], pw[0], m))
                acc = pw[k - 1] if acc is None else loop_dense_mul(rows, acc, pw[k - 1], m)
        out[M] = acc
    return out


def loop_pack_terms(comp, degree):
    """The (K, c) of a jet component with |K| <= degree; a constant term is an error."""
    out = []
    for K, c in comp.items():
        d = sum(K)
        if d == 0:
            raise ValueError("jets with a constant term cannot be composed")
        if d <= degree:
            out.append((K, c))
    return out


def loop_pack(comp, pos, degree):
    """Dense block of a jet component over the grlex positions `pos`."""
    block = [0j] * len(pos)
    for K, c in loop_pack_terms(comp, degree):
        block[pos[K]] = c
    return block


def loop_jet_rhs(X: VectorField, degree: int, windings: int):
    """Right-hand side of the jet ODE on the packed state of _jet_layout.

    dz/dtheta = 2 pi i w B(e^{2 pi i w theta}, z): per call the n blocks are
    sliced out of the state, each field monomial z^M with a nonzero
    coefficient at this theta is built once for all directions, and
    2 pi i w c times it is added into the block of its direction.
    """
    n = X.n
    monos, _ = _jet_layout(n, degree)
    m = len(monos)
    rows = loop_product_table(monos, degree)
    factor = TWO_PI_I * windings
    # terms of degree 0 or past the jet degree leave no trace in degrees 1..d
    plan = [
        (i * m, [(M, xterms) for M, xterms in comp if 1 <= sum(M) <= degree])
        for i, comp in enumerate(_numeric_terms(X))
    ]

    def rhs(theta, y):
        x = cmath.exp(TWO_PI_I * windings * theta)
        scaled = []
        for off, comp in plan:
            for M, xterms in comp:
                c = _eval_coeff(xterms, x)
                if c != 0:
                    scaled.append((off, M, factor * c))
        blocks = [y[off:off + m] for off in range(0, n * m, m)]
        z_M = loop_monomials(rows, m, blocks, [M for _, M, _ in scaled])
        out = [0j] * (n * m)
        for off, M, fc in scaled:
            for o, v in enumerate(z_M[M], off):
                if v:
                    out[o] += fc * v
        return out

    return rhs


def loop_after(self, other: "HolonomyJet") -> "HolonomyJet":
    """Composition self o other: substitute other's jets into self.

    other is packed into the dense blocks of _jet_layout and each monomial
    of self is built once through the product table; terms past the
    degree drop out.  Neither jet may have a constant term.
    """
    if self.n != other.n or self.degree != other.degree:
        raise ValueError("jet shapes differ")
    n, degree = self.n, self.degree
    monos, _ = _jet_layout(n, degree)
    m = len(monos)
    pos = {K: p for p, K in enumerate(monos)}
    blocks = [loop_pack(other.coeffs.get(i, {}), pos, degree) for i in range(1, n + 1)]
    terms = [loop_pack_terms(self.coeffs.get(i, {}), degree) for i in range(1, n + 1)]
    z_K = loop_monomials(loop_product_table(monos, degree), m, blocks,
                         [K for comp in terms for K, _ in comp])
    out = {}
    for i, comp in enumerate(terms, 1):
        acc = [0j] * m
        for K, c in comp:
            for o, v in enumerate(z_K[K]):
                if v:
                    acc[o] += c * v
        out[i] = dict(zip(monos, acc))
    return HolonomyJet(n, degree, out)


# the fifth-order weights, spelled out: _integrate takes them from _DP_A[6]
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)


def ref_integrate(f, t0, t1, y0, tol, max_steps=200_000, on_step=None):
    """The seven-call DP5(4) loop that _integrate's first-same-as-last form replaced."""
    if t1 == t0:
        return list(y0)
    span = t1 - t0
    t = t0
    y = list(y0)
    h = span / 16.0
    hmin = abs(span) * 1e-14
    steps = 0
    while (span > 0 and t < t1) or (span < 0 and t > t1):
        steps += 1
        if steps > max_steps:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        if (span > 0 and t + h > t1) or (span < 0 and t + h < t1):
            h = t1 - t
        ks = []
        for stage in range(7):
            ys = y
            for idx, a in enumerate(_DP_A[stage]):
                if a != 0.0:
                    ha = h * a
                    ys = [v + ha * k for v, k in zip(ys, ks[idx])]
            ks.append(f(t + _DP_C[stage] * h, ys))
        y5 = y4 = y
        for idx in range(7):
            b5, b4 = _DP_B5[idx], _DP_B4[idx]
            if b5 != 0.0:
                hb = h * b5
                y5 = [v + hb * k for v, k in zip(y5, ks[idx])]
            if b4 != 0.0:
                hb = h * b4
                y4 = [v + hb * k for v, k in zip(y4, ks[idx])]
        err = 0.0
        for v5, v4, v in zip(y5, y4, y):
            scale = tol + tol * max(abs(v), abs(v5))
            err = max(err, abs(v5 - v4) / scale)
        if err <= 1.0:
            t += h
            y = y5
            if on_step is not None:
                on_step(t, y)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) < hmin:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3g})")
    return y


def ref_integrate_unit(f, y0, tol, on_step=None):
    """ref_integrate from t = 0 to t = 1, called as _integrate is."""
    return ref_integrate(f, 0.0, 1.0, y0, tol, on_step=on_step)


def rand_block(rng, m, zero_prob=0.3):
    return [0j if rng.random() < zero_prob else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(m)]


def rand_jet(rng, n, degree):
    monos, _ = _jet_layout(n, degree)
    return HolonomyJet(n, degree, {
        i: dict(zip(monos, rand_block(rng, len(monos)))) for i in range(1, n + 1)
    })


def assert_close(got, want, rel=1e-12):
    """Entry-wise match of two {key: complex} maps, relative to the largest entry."""
    scale = max([1.0] + [abs(v) for v in want.values()])
    for key in set(got) | set(want):
        assert abs(got.get(key, 0j) - want.get(key, 0j)) <= rel * scale, key


JET_SHAPES = [(n, d) for n in (1, 2, 3) for d in range(1, 6)]


class TestProductPlanAgainstReference:
    @pytest.mark.parametrize("n,degree", JET_SHAPES)
    def test_dense_mul(self, n, degree):
        # the loop plan is the kernels' bitwise oracle; the dicts check it
        rng = random.Random(7000 + 10 * n + degree)
        monos, _ = _jet_layout(n, degree)
        m = len(monos)
        rows = loop_product_table(monos, degree)
        for _ in range(4):
            A, B = rand_block(rng, m), rand_block(rng, m)
            got = dict(zip(monos, loop_dense_mul(rows, A, B, m)))
            want = ref_jet_mul({K: v for K, v in zip(monos, A) if v},
                               {K: v for K, v in zip(monos, B) if v}, degree)
            assert_close(got, want)

    @pytest.mark.parametrize("n,degree", JET_SHAPES)
    def test_after(self, n, degree):
        rng = random.Random(7100 + 10 * n + degree)
        for _ in range(3):
            f, g = rand_jet(rng, n, degree), rand_jet(rng, n, degree)
            got, want = f.after(g), ref_after(f, g)
            for i in range(1, n + 1):
                assert_close(got.coeffs[i], want.coeffs[i])

    @pytest.mark.parametrize("n,degree", JET_SHAPES)
    def test_rhs_at_random_state(self, n, degree):
        rng = random.Random(7200 + 10 * n + degree)
        X = rand_x_normalized(rng, rand_mu(rng, n), degree + 1, terms=4)
        _, index = _jet_layout(n, degree)
        for windings in (1, -1, 2):
            support, _ = _jet_rhs(X, degree, windings)
            y = on_support(rand_block(rng, len(index)), support)
            theta = rng.random()
            got = full_layout_rhs(X, degree, windings)(theta, y)
            want = ref_rhs(X, degree, windings)(theta, y)
            assert_close(dict(enumerate(got)), dict(enumerate(want)))

    def test_after_rejects_constant_terms(self):
        # the constant term is rejected when the jet is built
        f = HolonomyJet.identity(1, 2)
        with pytest.raises(ValueError, match="constant"):
            g = HolonomyJet(1, 2, {1: {(0,): 0.5, (1,): 1.0}})
            f.after(g)


def _golden_field(name):
    path = DATA / name
    return FieldDocument.parse(path.read_text(encoding="utf-8"), source=str(path)).field(None)


def on_support(y, support):
    """y with every entry off `support` replaced by 0j."""
    keep = set(support)
    return [v if p in keep else 0j for p, v in enumerate(y)]


def full_layout_rhs(X, degree, windings):
    """_jet_rhs read and written on the whole packed layout: the state's
    entries off the support are ignored and their derivative is 0j."""
    support, rhs = _jet_rhs(X, degree, windings)
    size = len(_jet_layout(X.n, degree)[1])

    def full(theta, y):
        out = [0j] * size
        for p, v in zip(support, rhs(theta, [y[p] for p in support])):
            out[p] = v
        return out

    return full


def identity_state(n, degree):
    _, index = _jet_layout(n, degree)
    y0 = [0j] * len(index)
    ident = HolonomyJet.identity(n, degree)
    for (i, K), pos in index.items():
        y0[pos] = ident.coefficient(i, K)
    return y0


def counting(integrate, calls):
    """integrate with its right-hand side wrapped to count calls into calls[0]."""

    def run(f, *args, **kwargs):
        def counted(t, y):
            calls[0] += 1
            return f(t, y)

        return integrate(counted, *args, **kwargs)

    return run


class TestIntegrationAgainstReference:
    @pytest.mark.parametrize("X,degree", [
        pytest.param(_golden_field("resonant.vf"), 2, id="resonant"),
        pytest.param(_golden_field("twovar.vf"), 2, id="twovar"),
        pytest.param(rand_x_normalized(random.Random(73), rand_mu(random.Random(74), 2), 4),
                     4, id="seeded-n2-d4"),
    ])
    def test_same_steps_and_state(self, X, degree):
        y0 = identity_state(X.n, degree)
        finals, counts = [], []
        for rhs in (ref_rhs(X, degree, 1), full_layout_rhs(X, degree, 1)):
            calls = [0]
            finals.append(counting(_integrate, calls)(rhs, y0, 1e-10))
            counts.append(calls[0])
        assert counts[0] == counts[1]
        assert_close(dict(enumerate(finals[1])), dict(enumerate(finals[0])))


def dense_field(n, degree, seed):
    """A seeded diagonal linear part plus every z^K dz_j with 2 <= |K| <= degree,
    each with a nonzero Q[i] coefficient: the support is the whole layout but
    the other directions' linear entries."""
    rng = random.Random(seed)
    higher = _jet_layout(n, degree)[0][n:]

    def coefficient():
        return LaurentPoly.constant(G(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 4),
                                      Fraction(rng.randint(-3, 3), 4)))

    return VectorField.semisimple(rand_mu(rng, n), degree) + VectorField(
        TransverseSeries.zero(n, degree),
        [TransverseSeries(n, degree, {K: coefficient() for K in higher}) for _ in range(n)])


# |e^{2 pi i mu}| = e^{240 pi} is past the largest float
OVERFLOW_DOCUMENT = "n: 1\ndegree: 4\nmu: -120*i\nfield: x*dx - 120*i*z1*dz1 + x*z1^2*dz1\n"


def _seeded_jet_case(n, degree):
    rng = random.Random(7300 + 10 * n + degree)
    X = rand_x_normalized(rng, rand_mu(rng, n), degree + 1, terms=4)
    return pytest.param(X, degree, id=f"seeded-n{n}-d{degree}")


class TestIntegratorAgainstReference:
    """_integrate gives bit-identical floats to the seven-call loop, in 6 s + 1 calls."""

    @staticmethod
    def assert_same_run(f, y0):
        ref_calls, calls = [0], [0]
        want = counting(ref_integrate, ref_calls)(f, 0.0, 1.0, y0, 1e-10)
        got = counting(_integrate, calls)(f, y0, 1e-10)
        assert hexes(got) == hexes(want)
        steps, rest = divmod(ref_calls[0], 7)
        assert rest == 0 and calls[0] == 6 * steps + 1

    @pytest.mark.parametrize("X,degree", [_seeded_jet_case(n, d) for n, d in JET_SHAPES] + [
        pytest.param(_golden_field("resonant.vf"), 4, id="resonant"),
        pytest.param(_golden_field("twovar.vf"), 3, id="twovar"),
    ])
    def test_jet_state_bit_identical(self, X, degree):
        support, rhs = _jet_rhs(X, degree, 1)
        self.assert_same_run(rhs, [identity_state(X.n, degree)[p] for p in support])

    @pytest.mark.parametrize("n,degree,width", [(2, 5, 38), (3, 4, 96)])
    def test_dense_field_bit_identical(self, n, degree, width):
        X = dense_field(n, degree, 7900 + n)
        support, rhs = _jet_rhs(X, degree, 1)
        assert len(support) == width
        self.assert_same_run(rhs, [identity_state(n, degree)[p] for p in support])

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_width_bit_identical(self, m):
        # from width 6 on, an entry local named like the list y5 would clash
        rng = random.Random(7800 + m)
        rates = [complex(rng.uniform(-1, 1), rng.uniform(-4, 4)) for _ in range(m)]

        def f(t, y):
            return [r * v + 0.5j * t * y[i - 1] ** 2 for i, (r, v) in enumerate(zip(rates, y))]

        self.assert_same_run(f, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for _ in range(m)])

    def test_signed_zeros_bit_identical(self):
        # signed-zero states and zero rates: the stages with negative weights
        # multiply +-0.0.  The later sums wash most signed zeros out of the
        # state, so every stage argument is compared too; the first-stage
        # calls the reference loop repeats are left out of its record
        rng = random.Random(7850)
        rates = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                 complex(-0.5, -0.0), complex(-0.0, 3.0), complex(0.25, -2.0), 1j] * 2
        y0 = [rand_signed_entry(rng) for _ in rates]
        zeros = [v for v in y0 if v == 0]
        assert {math.copysign(1, v.real) for v in zeros} == {1, -1}

        def f(t, y):
            return [r * v for r, v in zip(rates, y)]

        def recorded(calls):
            def g(t, y):
                calls.append((t.hex(), hexes(y)))
                return f(t, y)

            return g

        self.assert_same_run(f, y0)
        want, got = [], []
        ref_integrate(recorded(want), 0.0, 1.0, y0, 1e-10)
        _integrate(recorded(got), y0, 1e-10)
        assert got == [call for k, call in enumerate(want) if k == 0 or k % 7]

    def test_equal_widths_share_one_step(self, monkeypatch):
        monkeypatch.setattr(holonomy, "_DP5_STEPS", {})
        seen = recorded_compiles(monkeypatch)
        _integrate(lambda t, y: [1j * v for v in y], [1j, 2.0, 0.5], 1e-10)
        step = holonomy._DP5_STEPS[3]
        _integrate(lambda t, y: [t - v for v in y], [0j, 1.0, -1j], 1e-8)
        assert holonomy._DP5_STEPS == {3: step}
        assert len(seen) == 1

    def test_overflow_stops_where_the_reference_state_does(self):
        # the item-16 document: the reference loop's first accepted state that
        # is not finite is where holonomy_jet raises
        X = FieldDocument.parse(OVERFLOW_DOCUMENT, source="o").field(None)
        support, rhs = _jet_rhs(X, 2, 1)

        def watch(t, y):
            if not all(map(cmath.isfinite, y)):
                raise IntegrationError(f"state is not finite at t={t:.6g}")

        with pytest.raises(IntegrationError) as ref:
            ref_integrate(rhs, 0.0, 1.0, [identity_state(1, 2)[p] for p in support], 1e-10,
                          on_step=watch)
        with pytest.raises(IntegrationError, match=re.escape(f"{ref.value};")):
            holonomy_jet(X, 2)

    @staticmethod
    def assert_same_lift(monkeypatch, X, start):
        rate = cmath.log((1.5 - 0.4j) / start[0])
        results, counts = [], []
        for integrate in (ref_integrate_unit, _integrate):
            calls = [0]
            monkeypatch.setattr(holonomy, "_integrate", counting(integrate, calls))
            results.append(path_lift(X, start, rate, 1e-11))
            counts.append(calls[0])
        assert results[1] == results[0]
        steps, rest = divmod(counts[0], 7)
        assert rest == 0 and counts[1] == 6 * steps + 1

    def test_path_lift_bit_identical(self, monkeypatch):
        self.assert_same_lift(monkeypatch, _golden_field("twovar.vf"),
                              (0.8 + 0.3j, (0.05 - 0.02j, 0.03j)))

    def test_path_lift_bit_identical_at_n3(self, monkeypatch):
        X = rand_x_normalized(random.Random(75), rand_mu(random.Random(76), 3), 4)
        self.assert_same_lift(monkeypatch, X, (0.8 + 0.3j, (0.05 - 0.02j, 0.03j, -0.04 + 0.01j)))


IMPORT_PROBE = """
import builtins
real, names = builtins.compile, []

def recording(source, filename, *args, **kwargs):
    names.append(filename)
    return real(source, filename, *args, **kwargs)

builtins.compile = recording
import crossfield, crossfield.cli
from crossfield import holonomy
assert holonomy._DP5_STEPS == {}, holonomy._DP5_STEPS
assert not {"<dp5 step>", "<holonomy kernel>"} & set(names), names
"""


def test_import_compiles_no_kernel():
    # kernels are built on first use, so import time holds none of their cost
    src = str(Path(holonomy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# --- compiled kernels against the loop plan, bit for bit ----------------------


def hexes(values):
    """float.hex of both components of each value: == would equate -0.0 and 0.0."""
    return [(v.real.hex(), v.imag.hex()) for v in values]


def jet_hexes(jet):
    return {i: [(K, *hexes([c])[0]) for K, c in comp.items()] for i, comp in jet.coeffs.items()}


def rand_signed_entry(rng):
    """A state entry: about 30 % exact zeros of either sign, and some nonzero
    entries with a -0.0 component."""
    u = rng.random()
    if u < 0.3:
        return complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
    re, im = rng.uniform(-2, 2), rng.uniform(-2, 2)
    if u < 0.4:
        return complex(-0.0, im)
    if u < 0.5:
        return complex(re, -0.0)
    return complex(re, im)


def rand_signed_jet(rng, n, degree):
    monos, _ = _jet_layout(n, degree)
    return HolonomyJet(n, degree, {
        i: {K: rand_signed_entry(rng) for K in monos} for i in range(1, n + 1)
    })


@pytest.fixture(params=["module-caps", "tiny-caps"])
def caps(request, monkeypatch):
    """The module's compile caps, or caps so small that every kernel spans
    several units and every sum of more than two terms is split."""
    if request.param == "tiny-caps":
        monkeypatch.setattr(holonomy, "_UNIT_PRODUCTS", 3)
        monkeypatch.setattr(holonomy, "_SUM_TERMS", 2)
    return request.param


def recorded_compiles(monkeypatch):
    """(source, code) of every compile() call holonomy makes from now on."""
    seen = []

    def recording(source, *args):
        code = compile(source, *args)
        seen.append((source, code))
        return code

    monkeypatch.setattr(holonomy, "compile", recording, raising=False)
    return seen


def _sparse_jet_case(seed):
    """A field of the holonomy benchmark's shape: n = 2, jet degree 5, a
    diagonal linear part with Im mu in {-1/4, 0, 1/4}, and 1-3 terms
    c x^e z^K dz_j with 2 <= |K| <= 5 and e in {0, 1}."""
    rng = random.Random(seed)
    n, degree = 2, 5
    mu = [G(Fraction(rng.randint(-4, 4), 2), Fraction(rng.choice((-1, 0, 0, 1)), 4))
          for _ in range(n)]
    higher = _jet_layout(n, degree)[0][n:]
    extra = [{} for _ in range(n)]
    for _ in range(rng.randint(1, 3)):
        coeff = G(Fraction(rng.randint(1, 5), 3), Fraction(rng.randint(-1, 1), 2))
        extra[rng.randrange(n)][rng.choice(higher)] = LaurentPoly.x(rng.randint(0, 1), coeff)
    X = VectorField.semisimple(mu, degree) + VectorField(
        TransverseSeries.zero(n, degree), [TransverseSeries(n, degree, e) for e in extra])
    return pytest.param(X, degree, id=f"sparse-{seed}")


SPARSE_CASES = [_sparse_jet_case(seed) for seed in (7700, 7701, 7702, 7703)]


# x**0 is folded only where it leads a coefficient's sum: here z1^2*dz2 has
# x^-1 ahead of its constant, z1*z2*dz1 has x^-2, x^-1, 1 and x^2 (a sum
# that starts at its constant rounds differently), and z2^2*dz1 starts at
# its constant
LAURENT_FIRST = ("n: 2\ndegree: 3\nx-cap: 4\n"
                 "field: x*dx + (1/2+1/4*i)*z1*dz1 - z2*dz2 + (2/7-1/3*i)*x^-1*z1^2*dz2"
                 " + 5/3*z1^2*dz2 + (1/7+2/3*i)*x^-2*z1*z2*dz1 + i*x^-1*z1*z2*dz1"
                 " - 1/3*z1*z2*dz1 + 2*x^2*z1*z2*dz1 + (1/3-i)*z2^2*dz1 + 3/4*x*z2^2*dz1\n")
# the holonomy benchmark's holonomy-5: no term carries x
X_FREE = "n: 2\ndegree: 3\nfield: x*dx + (-1+1/4*i)*z1*dz1 - z2*dz2 + 3/2*z1*z2^2*dz1\n"


def _document_field(text):
    return FieldDocument.parse(text, source="rhs").field(None)


class TestCompiledKernelsBitwise:
    @pytest.mark.parametrize("n,degree,document", [
        *(pytest.param(n, d, None, id=f"{n}-{d}") for n, d in JET_SHAPES),
        pytest.param(2, 3, LAURENT_FIRST, id="x-inverse-first"),
        pytest.param(2, 3, X_FREE, id="x-free"),
    ])
    def test_rhs(self, n, degree, document, caps):
        if document is None:
            rng = random.Random(7400 + 10 * n + degree)
            X = rand_x_normalized(rng, rand_mu(rng, n), degree + 1, terms=4)
        else:
            rng = random.Random(7490)
            X = _document_field(document)
        _, index = _jet_layout(n, degree)
        for windings in (1, -1, 2):
            (support, rhs), ref = _jet_rhs(X, degree, windings), loop_jet_rhs(X, degree, windings)
            off = sorted(set(range(len(index))) - set(support))
            for _ in range(3):
                y = on_support([rand_signed_entry(rng) for _ in index], support)
                theta = rng.random()
                want = ref(theta, y)
                got = rhs(theta, [y[p] for p in support])
                assert hexes(got) == hexes([want[p] for p in support]), windings
                assert hexes([want[p] for p in off]) == hexes([0j] * len(off)), windings

    def test_x_free_field_calls_no_exp(self, monkeypatch):
        # x = exp(f theta) is built only when some term still needs x
        calls, real_exp = [], cmath.exp

        def exp(z):
            calls.append(z)
            return real_exp(z)

        monkeypatch.setattr(cmath, "exp", exp)
        y = identity_state(2, 3)
        for document, per_call in ((X_FREE, 0), (LAURENT_FIRST, 1)):
            support, rhs = _jet_rhs(_document_field(document), 3, 1)
            calls.clear()
            for theta in (0.0, 0.3, 0.7):
                rhs(theta, [y[p] for p in support])
            assert len(calls) == 3 * per_call, document

    @pytest.mark.parametrize("n,degree", JET_SHAPES)
    def test_after(self, n, degree, caps):
        rng = random.Random(7500 + 10 * n + degree)
        for _ in range(3):
            f, g = rand_signed_jet(rng, n, degree), rand_signed_jet(rng, n, degree)
            assert jet_hexes(f.after(g)) == jet_hexes(loop_after(f, g))

    @pytest.mark.parametrize("X,degree", [
        pytest.param(_golden_field("resonant.vf"), 4, id="resonant"),
        pytest.param(_golden_field("twovar.vf"), 3, id="twovar"),
        _seeded_jet_case(3, 2),
        *SPARSE_CASES,
    ])
    def test_holonomy_jet(self, X, degree, caps):
        # one turn integrated with the loop RHS, composed with the loop after
        _, index = _jet_layout(X.n, degree)
        y0 = identity_state(X.n, degree)
        for windings in (-1, 2, 3):
            y = _integrate(loop_jet_rhs(X, degree, 1 if windings > 0 else -1), y0, 1e-10)
            turn = HolonomyJet(X.n, degree, {
                i: {K: y[pos] for (j, K), pos in index.items() if j == i}
                for i in range(1, X.n + 1)
            })
            want = turn
            for _ in range(abs(windings) - 1):
                want = loop_after(turn, want)
            got = holonomy_jet(X, degree, 1e-10, windings)
            assert jet_hexes(got) == jet_hexes(want), windings

    def test_tiny_caps_split_units_and_sums(self, monkeypatch):
        monkeypatch.setattr(holonomy, "_UNIT_PRODUCTS", 3)
        monkeypatch.setattr(holonomy, "_SUM_TERMS", 2)
        seen = recorded_compiles(monkeypatch)
        # twovar.vf with z2 coupled into dz1 and z1^2*dz2: its support is 17
        # of the 18 state entries, so the kernel stays large
        X = FieldDocument.parse(
            "n: 2\ndegree: 3\nfield: x*dx + i*z1*dz1 - z2*dz2 + z2*dz1 + x*z2^2*dz2"
            " + z1*z2*dz1 + z1^2*dz2\n", source="coupled").field(None)
        assert len(_jet_rhs(X, 3, 1)[0]) == 17
        assert len(seen) > 10
        # a later unit loads from the value list and appends to it
        assert all("= s[" in src and "s += (" in src for src, _ in seen[1:-1])
        # a sum past two terms goes on from the previous statement's value
        assert any(re.search(r"\n    v\d+ = v\d+ \+ v\d+\*v\d+", src) for src, _ in seen)


def _digest_field(rng, n, degree):
    """A diagonal linear part with Im mu in {-1/4, 0, 1/4} plus 1-4 terms
    c(x) z^K dz_j with 2 <= |K| <= degree, c of 1-3 terms x^e, -2 <= e <= 2:
    Laurent, x-free and x-led coefficients all occur."""
    mu = [G(Fraction(rng.randint(-4, 4), 2), Fraction(rng.choice((-1, 0, 0, 1)), 4))
          for _ in range(n)]
    higher = list(iter_exponents(n, 2, degree))
    extra = [{} for _ in range(n)]
    for _ in range(rng.randint(1, 4)):
        poly = {}
        for _ in range(rng.randint(1, 3)):
            poly[rng.randint(-2, 2)] = G(Fraction(rng.randint(-5, 5) or 1, 3),
                                         Fraction(rng.randint(-1, 1), 2))
        extra[rng.randrange(n)][rng.choice(higher)] = LaurentPoly(poly)
    return VectorField.semisimple(mu, degree) + VectorField(
        TransverseSeries.zero(n, degree), [TransverseSeries(n, degree, e) for e in extra])


def test_seeded_jets_digest():
    # float.hex of 120 jets (n 1-3, degree 2-5, windings 1, -1, 2), recorded
    # before _jet_rhs folded x-free coefficients and _dp5_step took complex
    # weights; Python 3.10 to 3.13 give the same digest
    digest = hashlib.sha256()
    rng = random.Random(2028)
    for k in range(120):
        n, degree = rng.randint(1, 3), rng.randint(2, 5)
        jet = holonomy_jet(_digest_field(rng, n, degree), degree, 1e-10, (1, -1, 2)[k % 3])
        for v in jet.vector:
            digest.update(f"{v.real.hex()} {v.imag.hex()};".encode())
    assert digest.hexdigest() == "27b6ff0a66c4f9876745570a675c4dee6520f5b7143b6f85b07dfb1145799526"


class TestSupport:
    """The integrator carries only the entries the field can reach."""

    @pytest.mark.parametrize("X,degree", SPARSE_CASES + [
        pytest.param(_golden_field("twovar.vf"), 3, id="twovar"),
        _seeded_jet_case(3, 2),
    ])
    def test_off_support_entries_stay_zero(self, X, degree):
        # the full layout under the loop RHS: every accepted state is +0j off
        # the support, bit for bit
        support, _ = _jet_rhs(X, degree, 1)
        off = sorted(set(range(len(_jet_layout(X.n, degree)[1]))) - set(support))
        assert off
        states = []
        final = _integrate(loop_jet_rhs(X, degree, 1), identity_state(X.n, degree), 1e-10,
                           on_step=lambda t, y: states.append(y))
        assert states[-1] is final
        for y in states:
            assert hexes([y[p] for p in off]) == hexes([0j] * len(off))

    def test_integrator_sees_only_the_support(self, monkeypatch):
        X, degree = SPARSE_CASES[0].values
        sizes = []

        def recording(f, y0, tol):
            sizes.append(len(y0))
            return _integrate(f, y0, tol)

        monkeypatch.setattr(holonomy, "_integrate", recording)
        jet = holonomy_jet(X, degree, 1e-10, windings=2)
        full = len(_jet_layout(X.n, degree)[1])
        assert len(jet.vector) == full
        assert sizes == [len(_jet_rhs(X, degree, 1)[0])] and sizes[0] < full

    def test_dense_field_reaches_all_but_the_other_linear_entries(self):
        # every z^K dz_j with 2 <= |K| <= 3 reaches every entry of degree >= 2;
        # with no linear coupling, z_i's linear part stays on z_i
        monos, index = _jet_layout(2, 3)
        higher = {K: LaurentPoly.constant(G(1)) for K in monos[2:]}
        X = VectorField.semisimple([G(0, 1), G(-2)], 3) + VectorField(
            TransverseSeries.zero(2, 3), [TransverseSeries(2, 3, higher)] * 2)
        support, _ = _jet_rhs(X, 3, 1)
        unreached = {index[(1, (0, 1))], index[(2, (1, 0))]}
        assert support == sorted(set(range(len(index))) - unreached)


class TestNonFinite:
    """An overflowing jet is an IntegrationError, never NaN with success."""

    def test_overflowing_turn_raises(self):
        X = FieldDocument.parse(OVERFLOW_DOCUMENT, source="o").field(None)
        with pytest.raises(IntegrationError, match="not finite"):
            holonomy_jet(X, 2)

    def test_overflowing_composition_raises(self):
        # one turn is e^{120 pi} ~ 5e163; two turns are past the largest float
        X = VectorField.semisimple([G(0, -60)], 4)
        assert math.isfinite(abs(holonomy_jet(X, 2).coefficient(1, (1,))))
        with pytest.raises(IntegrationError, match=r"2-fold jet is not finite; z1's linear "
                           r"entry .* about 10\^327 for w = 2$"):
            holonomy_jet(X, 2, windings=2)

    def test_cut_off_names_the_largest_predicted_entry(self):
        X = VectorField.semisimple([G(0, 1), G(0, -60)], 3)
        assert holonomy._overflow_note(X, 2).startswith("; z2's linear entry")
        assert holonomy._overflow_note(X, 2).endswith(" about 10^327 for w = 2")
        # backwards the first direction grows: 4 pi / ln 10 = 5.5 decades
        backwards = holonomy._overflow_note(X, -2)
        assert backwards.startswith("; z1's") and backwards.endswith(" about 10^5 for w = -2")
        # with coupled directions the diagonal predicts nothing
        coupled = FieldDocument.parse("n: 2\ndegree: 2\nfield: x*dx + z2*dz1 + z1*dz2\n")
        assert holonomy._overflow_note(coupled.field(), 1) == ""

    @pytest.mark.parametrize("document", [
        "n: 1\ndegree: 2\nmu: -120*i\nfield: x*dx - 120*i*z1*dz1\n",
        "n: 2\ndegree: 2\nmu: -120*i, 0\nfield: x*dx - 120*i*z1*dz1 + z1^2*dz2\n",
    ], ids=["n1", "n2"])
    def test_nan_error_norm_raises_with_the_cut_off(self, document, tmp_path, capsys):
        # a stage overflows before any accepted state does, so the step's
        # error norm is NaN; that ends the run at once, not at the step budget
        path = tmp_path / "overflow.vf"
        path.write_text(document, encoding="utf-8")
        start = time.perf_counter()
        assert main(["holonomy", "--field", str(path), "--degree", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: state is not finite at t=\S+; z1's linear entry .*"
                            r" about 10\^327 for w = 1\n", err), err

    def test_max_abs_diff_propagates_nan(self):
        nan_jet = HolonomyJet(1, 2, {1: {(1,): complex(math.nan, math.nan), (2,): math.nan}})
        assert math.isnan(nan_jet.max_abs_diff(nan_jet))
        assert math.isnan(HolonomyJet.identity(1, 2).max_abs_diff(nan_jet))
        assert math.isnan(nan_jet.max_abs_diff(HolonomyJet.identity(1, 2)))
        half = HolonomyJet(1, 2, {1: {(1,): 1, (2,): math.nan}})
        assert math.isnan(half.max_abs_diff(HolonomyJet.identity(1, 2)))
        assert HolonomyJet.identity(1, 2).max_abs_diff(HolonomyJet(1, 2, {1: {(1,): 3}})) == 2.0


class TestPackedJet:
    def test_construction_packs_once(self):
        # terms past the degree drop out; coeffs reads the nonzero entries
        jet = HolonomyJet(1, 2, {1: {(3,): 5.0, (2,): 0.5, (1,): 1}})
        assert jet.vector == [1 + 0j, 0.5 + 0j]
        assert jet.coeffs == {1: {(1,): 1, (2,): 0.5}}
        assert list(HolonomyJet(2, 1, {2: {(1, 0): 3}}).coeffs.items()) == [(1, {}), (2, {(1, 0): 3})]

    @pytest.mark.parametrize("n,coeffs,match", [
        (1, {2: {(1,): 1}}, "direction 2"),
        (1, {1: {(1, 0): 1}}, r"exponent \(1, 0\)"),
        (1, {1: {(-1,): 1}}, r"exponent \(-1,\)"),
        (2, {1: {(4, -1): 1}}, r"exponent \(4, -1\)"),  # past the degree, not dropped
    ], ids=["direction", "length", "negative", "negative-past-degree"])
    def test_construction_rejects_bad_entries(self, n, coeffs, match):
        with pytest.raises(ValueError, match=match):
            HolonomyJet(n, 2, coeffs)

    @pytest.mark.parametrize("i,K,match", [
        (3, (1, 0), "direction 3"),
        (1, (1,), r"exponent \(1,\)"),
        (1, (2, -1), r"exponent \(2, -1\)"),
    ], ids=["direction", "length", "negative"])
    def test_coefficient_rejects_entries_that_cannot_exist(self, i, K, match):
        with pytest.raises(ValueError, match=match):
            HolonomyJet.identity(2, 2).coefficient(i, K)

    def test_coefficient_is_zero_off_the_layout(self):
        # a valid K of degree 0 or past the degree has no entry: +0j
        jet = HolonomyJet.identity(2, 2)
        assert hexes([jet.coefficient(1, K) for K in ((0, 0), (2, 1), [0, 3])]) == hexes([0j] * 3)
        assert jet.coefficient(2, [0, 1]) == 1

    def test_after_ignores_dict_order(self):
        # the same dense jet in two key orders sums in one order: the layout's
        rng = random.Random(7600)
        monos, _ = _jet_layout(2, 4)
        for _ in range(20):
            f = {i: {K: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for K in monos}
                 for i in (1, 2)}
            flipped = {i: dict(reversed(comp.items())) for i, comp in reversed(f.items())}
            g = rand_jet(rng, 2, 4)
            forward = HolonomyJet(2, 4, f).after(g)
            backward = HolonomyJet(2, 4, flipped).after(g)
            assert jet_hexes(forward) == jet_hexes(backward)

    def test_apply_point_rejects_a_point_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="expected 2 transverse coordinates"):
            HolonomyJet.identity(2, 2).apply_point((0.1,))

    def test_max_abs_diff_rejects_other_shapes(self):
        for other in (HolonomyJet.identity(2, 2), HolonomyJet.identity(1, 3)):
            with pytest.raises(ValueError, match="jet shapes differ"):
                HolonomyJet.identity(1, 2).max_abs_diff(other)

    def test_transport_checks_shapes_before_lifting(self):
        # at x0 = 1 with no extra windings no path is lifted
        X = _golden_field("twovar.vf")
        phi = HolonomyJet.identity(2, 2)
        with pytest.raises(ValueError, match="expected 2 transverse coordinates"):
            transport_conjugacy(X, X, phi, (1.0, (0.01,)))
        with pytest.raises(ValueError, match="share n"):
            transport_conjugacy(X, X, HolonomyJet.identity(1, 2), (1.0, (0.01, 0.02)))
        with pytest.raises(ValueError, match="tol"):
            transport_conjugacy(X, X, phi, (1.0, (0.01, 0.02)), tol=math.nan)
        with pytest.raises(ValueError, match="x-normalized"):
            transport_conjugacy(X, VectorField.zero(2, 3), phi, (1.0, (0.01, 0.02)))


def code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


class TestGeneratedCode:
    @pytest.mark.parametrize("unit_products", [4096, 3])
    def test_constants_enter_through_the_namespace(self, monkeypatch, unit_products):
        monkeypatch.setattr(holonomy, "_UNIT_PRODUCTS", unit_products)
        seen = recorded_compiles(monkeypatch)
        doc = ("name: thirds\nn: 2\ndegree: 3\nx-cap: 4\nmu: 1/3+2/7*i, -1/5\n"
               "field: x*dx + (1/3+2/7*i)*z1*dz1 - 1/5*z2*dz2"
               " + (2/7-1/3*i)*x^-1*z1^2*dz2 + 1/9*z1*z2*dz1 + 5/7*x^2*z1*z2*dz1"
               " + 3/11*i*z2^3*dz1\n")
        X = FieldDocument.parse(doc, source="thirds").field(None)
        jet = holonomy_jet(X, 3, 1e-8, 2)
        conj = rand_signed_jet(random.Random(76), 2, 3)
        conj.after(jet)
        assert seen
        for _, code in seen:
            for obj in code_objects(code):
                for const in obj.co_consts:
                    ok = (const is None or isinstance(const, types.CodeType)
                          or type(const) is int
                          or (type(const) is complex and const == 0j))
                    assert ok, (obj.co_name, const)
