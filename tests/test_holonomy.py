import cmath
import math
import random
from pathlib import Path

import pytest

from crossfield import holonomy
from crossfield.cli import FieldDocument
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
    PathSpec,
    _dense_mul,
    _eval_coeff,
    _integrate,
    _jet_layout,
    _jet_rhs,
    _numeric_terms,
    _product_table,
    conjugacy_residual,
    holonomy_jet,
    path_lift,
    transport_conjugacy,
)
from crossfield.lie import Automorphism, VectorField, exp
from crossfield.series import MonomialIndex

from helpers import rand_mu, rand_x_normalized, rand_x_normalized_automorphism

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
        M = h.linear_matrix()
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
                y = _integrate(_jet_rhs(X, degree, windings), 0.0, 1.0, y0, tol)
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
        plus = path_lift(X, (1.0, (eps,)), PathSpec.circle(), tol)[1][0]
        minus = path_lift(X, (1.0, (-eps,)), PathSpec.circle(), tol)[1][0]
        fd = (plus - minus) / (2 * eps)
        assert abs(fd - h.coefficient(1, (1,))) < math.sqrt(tol)

    def test_rejects_non_normalized(self):
        bad = VectorField.zero(1, 3)
        with pytest.raises(ValueError):
            holonomy_jet(bad, 2)


class TestPathLift:
    def test_trivial_transverse_dynamics(self):
        X = VectorField.euler(1, 4)
        _, z = path_lift(X, (1.0, (0.5,)), PathSpec.circle(), 1e-12)
        assert abs(z[0] - 0.5) < 1e-12

    def test_radial_exponential(self):
        X = VectorField.euler(1, 4) + VectorField.diagonal([G(1)], 4)
        _, z = path_lift(X, (1.0, (0.01,)), PathSpec.segment_log(1.0, math.e), 1e-12)
        assert abs(z[0] / 0.01 - math.e) < 1e-9

    def test_circle_matches_jet_linear_part(self):
        X = field_mu_i()
        _, z = path_lift(X, (1.0, (1e-3,)), PathSpec.circle(), 1e-12)
        h = holonomy_jet(X, 1, tol=1e-12)
        assert abs(z[0] / 1e-3 - h.coefficient(1, (1,))) < 1e-6

    def test_start_validation(self):
        X = field_mu_i()
        with pytest.raises(ValueError):
            path_lift(X, (2.0, (0.1,)), PathSpec.circle(), 1e-10)

    def test_leaf_escape(self):
        X = VectorField.euler(1, 3) + VectorField.diagonal([G(1)], 3)
        path = PathSpec.segment_log(1.0, 1e4)
        path.escape_radius = 2.0
        with pytest.raises(LeafEscapeError):
            path_lift(X, (1.0, (1.0,)), path, 1e-10)

    def test_step_budget(self):
        X = field_resonant()
        path = PathSpec.circle()
        path.max_steps = 2
        with pytest.raises(IntegrationError):
            path_lift(X, (1.0, (0.3,)), path, 1e-13)


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_entry_points_reject_bad_tol(self, tol):
        X = field_resonant()
        with pytest.raises(ValueError, match="tol"):
            holonomy_jet(X, 2, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            path_lift(X, (1.0, (0.1,)), PathSpec.circle(), tol)
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


# --- brute-force references for the packed product plan and the integrator ----
# The dict products below are the loop version the packed kernel replaced;
# they stay here as the oracle for _dense_mul, HolonomyJet.after and the RHS.
# ref_integrate is the DP5(4) loop before first-same-as-last and fused passes.


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
    return HolonomyJet(f.n, f.degree, out, f.base_point)


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
        rng = random.Random(7000 + 10 * n + degree)
        monos, _ = _jet_layout(n, degree)
        m = len(monos)
        rows = _product_table(monos, degree)
        for _ in range(4):
            A, B = rand_block(rng, m), rand_block(rng, m)
            got = dict(zip(monos, _dense_mul(rows, A, B, m)))
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
            y = rand_block(rng, len(index))
            theta = rng.random()
            got = _jet_rhs(X, degree, windings)(theta, y)
            want = ref_rhs(X, degree, windings)(theta, y)
            assert_close(dict(enumerate(got)), dict(enumerate(want)))

    def test_after_rejects_constant_terms(self):
        f = HolonomyJet.identity(1, 2)
        g = HolonomyJet(1, 2, {1: {(0,): 0.5, (1,): 1.0}})
        with pytest.raises(ValueError, match="constant"):
            f.after(g)


def _golden_field(name):
    path = DATA / name
    return FieldDocument.parse(path.read_text(encoding="utf-8"), source=str(path)).field(None)


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
        for rhs in (ref_rhs(X, degree, 1), _jet_rhs(X, degree, 1)):
            calls = [0]
            finals.append(counting(_integrate, calls)(rhs, 0.0, 1.0, y0, 1e-10))
            counts.append(calls[0])
        assert counts[0] == counts[1]
        assert_close(dict(enumerate(finals[1])), dict(enumerate(finals[0])))


def _seeded_jet_case(n, degree):
    rng = random.Random(7300 + 10 * n + degree)
    X = rand_x_normalized(rng, rand_mu(rng, n), degree + 1, terms=4)
    return pytest.param(X, degree, id=f"seeded-n{n}-d{degree}")


class TestIntegratorAgainstReference:
    """_integrate gives bit-identical floats to the seven-call loop, in 6 s + 1 calls."""

    @pytest.mark.parametrize("X,degree", [_seeded_jet_case(n, d) for n, d in JET_SHAPES] + [
        pytest.param(_golden_field("resonant.vf"), 4, id="resonant"),
        pytest.param(_golden_field("twovar.vf"), 3, id="twovar"),
    ])
    def test_jet_state_bit_identical(self, X, degree):
        y0 = identity_state(X.n, degree)
        rhs = _jet_rhs(X, degree, 1)
        ref_calls, calls = [0], [0]
        want = counting(ref_integrate, ref_calls)(rhs, 0.0, 1.0, y0, 1e-10)
        got = counting(_integrate, calls)(rhs, 0.0, 1.0, y0, 1e-10)
        assert got == want
        steps, rest = divmod(ref_calls[0], 7)
        assert rest == 0 and calls[0] == 6 * steps + 1

    def test_path_lift_bit_identical(self, monkeypatch):
        X = _golden_field("twovar.vf")
        start = (0.8 + 0.3j, (0.05 - 0.02j, 0.03j))
        path = PathSpec.segment_log(start[0], 1.5 - 0.4j)
        results, counts = [], []
        for integrate in (ref_integrate, _integrate):
            calls = [0]
            monkeypatch.setattr(holonomy, "_integrate", counting(integrate, calls))
            results.append(path_lift(X, start, path, 1e-11))
            counts.append(calls[0])
        assert results[1] == results[0]
        steps, rest = divmod(counts[0], 7)
        assert rest == 0 and counts[1] == 6 * steps + 1
