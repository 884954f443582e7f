import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from crossfield import coeff, lie, series
from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import (
    Automorphism,
    _invert_matrix,
    _linear_action_nilpotent,
    NotNilpotentError,
    NotTangentToIdentityError,
    SingularLinearPartError,
    VectorField,
    exp,
    exp_ad,
    exp_decomposition,
    log,
)
from crossfield.normalform import normalize
from crossfield.parsing import parse_field, parse_series
from crossfield.resonance import pairing
from crossfield.series import (
    DimensionMismatchError,
    MonomialIndex,
    TransverseSeries,
    iter_exponents,
    iter_l_indices,
)

from helpers import (
    derivative,
    euler_apply,
    lie_series,
    scale_series,
    rand_field,
    rand_invertible_matrix,
    rand_gq,
    rand_gq_nonzero,
    rand_laurent,
    rand_mu,
    rand_one_flat,
    rand_x_normalized,
    rand_series,
    rand_commuting_pair,
    rand_x_normalized_automorphism,
    rand_z_one_flat,
    ref_apply,
    ref_fold,
    ref_log,
)


def var(n, cap, i):
    return TransverseSeries.variable(n, cap, i)


def mono_field(n, cap, K, j, coeff=1):
    return VectorField.monomial(n, cap, MonomialIndex(K, j), coeff)


def rand_nilpotent_matrix(rng, n):
    """A strictly upper triangular Laurent matrix conjugated by a few
    elementary matrices I + a e_ij (inverse I - a e_ij)."""
    zero = LaurentPoly.zero()
    C = [[rand_laurent(rng, -1, 1, terms=1) if j > i else zero for j in range(n)]
         for i in range(n)]
    for _ in range(2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rand_laurent(rng, -1, 1, terms=1)
        for row in C:  # C (I - a e_ij)
            row[j] = row[j] - row[i] * a
        C[i] = [p + q * a for p, q in zip(C[i], C[j])]  # (I + a e_ij) C
    return C


def ref_graded_action_nilpotent(C, deg: int, n: int) -> bool:
    """Is the z-linear action on degree-`deg` monomials nilpotent?

    The matrix acts as a derivation: z^K -> sum_i k_i C[i][l] z^{K - e_i + e_l},
    a square matrix over the Laurent ring; over an integral domain it is
    nilpotent iff its dim-th power vanishes.
    """
    monos = [
        tuple(sum(1 for c in combo if c == v) for v in range(n))
        for combo in combinations_with_replacement(range(n), deg)
    ]
    index = {K: p for p, K in enumerate(monos)}
    dim = len(monos)
    M = [[LaurentPoly.zero() for _ in range(dim)] for _ in range(dim)]
    for K, col in index.items():
        for i in range(n):
            k = K[i]
            if k == 0:
                continue
            for l in range(n):
                c = C[i][l]
                if c.is_zero():
                    continue
                K2 = list(K)
                K2[i] -= 1
                K2[l] += 1
                M[index[tuple(K2)]][col] = M[index[tuple(K2)]][col] + c * k
    power = M
    steps = max(1, dim.bit_length())
    for _ in range(steps):
        if all(p.is_zero() for row in power for p in row):
            return True
        power = ref_mat_mul(power, power)
    return all(p.is_zero() for row in power for p in row)


def ref_mat_mul(A, B):
    dim = len(A)
    out = [[LaurentPoly.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(dim):
                b = B[k][j]
                if b.is_zero():
                    continue
                out[i][j] = out[i][j] + a * b
    return out


class TestApply:
    def test_euler_on_monomial(self):
        X = VectorField.euler(1, 4)
        f = TransverseSeries.monomial(1, 4, (1,), LaurentPoly.x(3))
        assert X.apply(f) == f.scale(3)

    def test_monomial_field(self):
        X = mono_field(1, 4, (1,), 1)  # z1^2 d/dz1
        assert X.apply(var(1, 4, 1)) == var(1, 4, 1) * var(1, 4, 1)

    def test_leibniz_randomized(self):
        rng = random.Random(21)
        for _ in range(150):
            X = rand_field(rng, 2, 4)
            f = rand_series(rng, 2, 4)
            g = rand_series(rng, 2, 4)
            assert X.apply(f * g) == X.apply(f) * g + f * X.apply(g)


class TestBracket:
    def test_antisymmetry(self):
        rng = random.Random(22)
        X = rand_field(rng, 2, 4)
        assert X.bracket(X).is_zero()

    def test_hand_example(self):
        # [z d/dz, z^2 d/dz] = z * 2z d/dz - z^2 d/dz = z^2 d/dz
        Z1 = mono_field(1, 4, (0,), 1)
        Z2 = mono_field(1, 4, (1,), 1)
        assert Z1.bracket(Z2) == Z2

    def test_operator_oracle(self):
        # the bracket's components agree with the operator X(Y(f)) - Y(X(f))
        rng = random.Random(23)
        for _ in range(100):
            X = rand_field(rng, 2, 3)
            Y = rand_field(rng, 2, 3)
            f = rand_series(rng, 2, 3)
            assert X.bracket(Y).apply(f) == X.apply(Y.apply(f)) - Y.apply(X.apply(f))

    def test_jacobi_randomized(self):
        rng = random.Random(24)
        for _ in range(60):
            X, Y, Z = (rand_field(rng, 2, 3, terms=2) for _ in range(3))
            s = (
                X.bracket(Y.bracket(Z))
                + Y.bracket(Z.bracket(X))
                + Z.bracket(X.bracket(Y))
            )
            assert s.is_zero()

    def test_module_rule(self):
        # [Z, fW] = f [Z, W] + Z(f) W
        rng = random.Random(25)
        for _ in range(100):
            Z = rand_field(rng, 2, 4, terms=2)
            W = rand_field(rng, 2, 4, terms=2)
            f = rand_series(rng, 2, 4, terms=2)
            lhs = Z.bracket(scale_series(W, f))
            rhs = scale_series(Z.bracket(W), f) + scale_series(W, Z.apply(f))
            assert lhs == rhs

    def test_semisimple_scaling_identity(self):
        # [x d/dx + L(mu), f z^K L(e_j)] = ((x d/dx + <mu,K>) f) z^K L(e_j)
        rng = random.Random(26)
        from crossfield.resonance import pairing
        from crossfield.series import iter_l_indices

        for _ in range(100):
            n = rng.choice([1, 2, 3])
            cap = 4
            mu = rand_mu(rng, n)
            S = VectorField.semisimple(mu, cap)
            indices = [i for i in iter_l_indices(n, 0, cap - 1)]
            idx = rng.choice(indices)
            f = rand_laurent(rng, -3, 3, terms=2)
            W = VectorField.monomial(n, cap, idx, f)
            expected = VectorField.monomial(n, cap, idx, euler_apply(f, pairing(mu, idx.K)))
            assert S.bracket(W) == expected


def ref_diff_x(f):
    """d/dx of every coefficient of f, as a series."""
    data = {}
    for K, c in f._terms.items():
        d = derivative(c)
        if not d.is_zero():
            data[K] = d
    return TransverseSeries(f.n, f.cap, data)


def ref_field_apply(X, f):
    """X(f) built from whole derivative series, series products and sums."""
    if f.n != X.n or f.cap != X.cap:
        raise DimensionMismatchError("field and series shapes differ")
    out = TransverseSeries.zero(X.n, X.cap)
    if not X.a.is_zero():
        out = X.a * ref_diff_x(f)
    for i in range(X.n):
        if not X.b[i].is_zero():
            out = out + X.b[i] * f.diff_z(i + 1)
    return out


def ref_bracket(X, Y):
    """[X, Y] as two reference applications and a subtraction per component."""
    a = ref_field_apply(X, Y.a) - ref_field_apply(Y, X.a)
    b = [ref_field_apply(X, Y.b[i]) - ref_field_apply(Y, X.b[i]) for i in range(X.n)]
    return VectorField(a, b)


def assert_canonical_series(s):
    """Every stored term is a nonzero LaurentPoly at a degree within the cap."""
    for K, c in s._terms.items():
        assert sum(K) <= s.cap, (K, s.cap)
        assert isinstance(c, LaurentPoly) and not c.is_zero(), K


def assert_same(got, want):
    assert got == want and str(got) == str(want)
    comps = [got] if isinstance(got, TransverseSeries) else (got.a,) + got.b
    for comp in comps:
        assert_canonical_series(comp)


def kernel_field(rng, n, cap):
    """A field with x-exponents -2..2, d/dx part present or not, and each
    z-component zeroed with probability 1/3."""
    X = rand_field(rng, n, cap, terms=3, min_exp=-2, max_exp=2)
    a = X.a if rng.random() < 0.6 else TransverseSeries.zero(n, cap)
    b = [TransverseSeries.zero(n, cap) if rng.random() < 1 / 3 else c for c in X.b]
    return VectorField(a, b)


def sweep_step(rng, n, cap, minus_one=False):
    """W = f(x) z^K z_j d/dz_j for a random index; with minus_one, K has a
    -1 entry (W = f(x) z^(K + e_j) d/dz_j with z_j absent)."""
    indices = [idx for idx in iter_l_indices(n, 0, cap - 1) if minus_one == (-1 in idx.K)]
    idx = rng.choice(indices)
    return VectorField.monomial(n, cap, idx, rand_laurent(rng, -2, 2, terms=2) + LaurentPoly.x(3))


class TestDerivationKernel:
    """apply and bracket accumulate their products in one raw accumulator;
    they must agree with the separate derivative-product-sum construction."""

    CASES = [(n, cap) for n in (1, 2, 3) for cap in range(1, 7)]

    @pytest.mark.parametrize("n,cap", CASES)
    def test_apply_matches_reference(self, n, cap):
        rng = random.Random(1000 + 10 * n + cap)
        for _ in range(6):
            X = kernel_field(rng, n, cap)
            f = rand_series(rng, n, cap, terms=5, min_exp=-2, max_exp=2)
            assert_same(X.apply(f), ref_field_apply(X, f))

    @pytest.mark.parametrize("n,cap", CASES)
    def test_bracket_matches_reference(self, n, cap):
        rng = random.Random(2000 + 10 * n + cap)
        for _ in range(4):
            X, Y = kernel_field(rng, n, cap), kernel_field(rng, n, cap)
            assert_same(X.bracket(Y), ref_bracket(X, Y))

    @pytest.mark.parametrize("n,cap", CASES)
    def test_sweep_steps_match_reference(self, n, cap):
        rng = random.Random(3000 + 10 * n + cap)
        for draw in range(6):
            W = sweep_step(rng, n, cap, minus_one=n > 1 and draw % 2 == 1)
            X = kernel_field(rng, n, cap)
            f = rand_series(rng, n, cap, terms=5, min_exp=-2, max_exp=2)
            assert_same(W.apply(f), ref_field_apply(W, f))
            assert_same(W.bracket(X), ref_bracket(W, X))
            assert_same(X.bracket(W), ref_bracket(X, W))

    def test_cancellation_to_exact_zero(self):
        rng = random.Random(4000)
        cases = 0
        for n in (1, 2, 3):
            for cap in range(1, 7):
                X = kernel_field(rng, n, cap)
                c = rand_gq_nonzero(rng)
                for got, want in ((X.bracket(X), ref_bracket(X, X)),
                                  (X.bracket(X.scale(c)), ref_bracket(X, X.scale(c)))):
                    assert got.is_zero()
                    assert_same(got, want)
                    cases += 1
                # (x d/dx + m z1 d/dz1)(x^(-m k) z1^k) = 0: the d/dx and d/dz1
                # products cancel term by term
                m = rng.randint(-2, 2)
                E = VectorField.euler(n, cap) + VectorField.diagonal([G(m)] + [G(0)] * (n - 1), cap)
                K = [(k,) + (0,) * (n - 1) for k in range(1, cap + 1)]
                f = TransverseSeries(n, cap, {k: LaurentPoly.x(-m * k[0], rand_gq_nonzero(rng))
                                              for k in K})
                got = E.apply(f)
                assert got.is_zero()
                assert_same(got, ref_field_apply(E, f))
                cases += 1
                if n < 2 or cap < 2:
                    continue
                # g(x) (z2 d/dz1 - z1 d/dz2) kills z1^2 + z2^2, one product
                # from each component per term
                g = rand_laurent(rng, -2, 2, terms=2) + LaurentPoly.x(3)
                z1, z2 = var(n, cap, 1), var(n, cap, 2)
                zero = TransverseSeries.zero(n, cap)
                R = VectorField(zero, [z2.scale(g), -z1.scale(g)] + [zero] * (n - 2))
                got = R.apply(z1 * z1 + z2 * z2)
                assert got.is_zero()
                assert_same(got, ref_field_apply(R, z1 * z1 + z2 * z2))
                cases += 1
                if n == 2:
                    P, Q = rand_commuting_pair(rng, cap)
                    assert P.bracket(Q).is_zero()
                    assert_same(P.bracket(Q), ref_bracket(P, Q))
                    cases += 1
        assert cases == 18 * 3 + 10 + 5

    def test_sweep_step_product_count(self, monkeypatch):
        # a one-term W applied to a T-term series: no derivative series and
        # no series product, one Laurent product per surviving term of
        # df/dz_j, and W's coefficient scaled at most once per exponent k
        rng = random.Random(5000)
        counts = {"diff_z": 0, "series_mul": 0, "products": 0, "scalings": 0}
        diff_z, series_mul = TransverseSeries.diff_z, TransverseSeries.__mul__
        laurent_mul, laurent_scale = LaurentPoly.__mul__, LaurentPoly.scale

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def product(self, other):
            if isinstance(other, LaurentPoly):
                counts["products"] += 1
            return laurent_mul(self, other)

        monkeypatch.setattr(TransverseSeries, "diff_z", counted("diff_z", diff_z))
        monkeypatch.setattr(TransverseSeries, "__mul__", counted("series_mul", series_mul))
        monkeypatch.setattr(LaurentPoly, "__mul__", product)
        monkeypatch.setattr(LaurentPoly, "scale", counted("scalings", laurent_scale))
        runs = []
        for n in (1, 2, 3):
            for cap in range(2, 7):
                for _ in range(3):
                    W = sweep_step(rng, n, cap)
                    f = rand_series(rng, n, cap, terms=8, min_exp=-2, max_exp=2)
                    for key in counts:
                        counts[key] = 0
                    got = W.apply(f)
                    T = len(f.terms())
                    assert counts["diff_z"] == counts["series_mul"] == 0
                    assert counts["products"] <= T, (n, cap, str(W), str(f))
                    assert counts["scalings"] <= cap, (n, cap, str(W), str(f))
                    runs.append((W, f, got))
        monkeypatch.undo()
        assert len(runs) == 45
        for W, f, got in runs:
            assert_same(got, ref_field_apply(W, f))


class TestFlatness:
    def test_examples(self):
        assert mono_field(1, 4, (1,), 1).is_k_flat(1)
        assert not VectorField.euler(1, 4).is_k_flat(1)
        Z = VectorField.zero(2, 4)
        for k in range(1, 5):
            assert Z.is_k_flat(k)

    def test_nilpotent_examples(self):
        assert mono_field(1, 4, (1,), 1).is_nilpotent()
        assert not mono_field(1, 4, (0,), 1).is_nilpotent()  # z d/dz
        assert mono_field(2, 4, (-1, 1), 1, 1).is_nilpotent()  # z2 d/dz1
        assert mono_field(2, 4, (1, -1), 2, 1).is_nilpotent()  # z1 d/dz2
        assert not VectorField.euler(1, 4).is_nilpotent()
        assert not VectorField.diagonal([G(0, 1)], 4).is_nilpotent()

    def test_one_flat_is_nilpotent(self):
        rng = random.Random(27)
        for _ in range(50):
            assert rand_one_flat(rng, 2, 4).is_nilpotent()

    def test_helpers_at_cap_one(self):
        # m^2 vanishes at cap 1: the z-parts come out zero, with no draws
        rng = random.Random(28)
        for n in (1, 2):
            X = rand_one_flat(rng, n, 1)
            assert X.is_nilpotent() and all(c.is_zero() for c in X.b)
            assert rand_z_one_flat(rng, n, 1) == VectorField.zero(n, 1)
            assert rand_x_normalized_automorphism(rng, n, 1).is_x_normalized()
        state = rng.getstate()
        assert rand_series(rng, 2, 1, min_deg=2).is_zero()
        assert rng.getstate() == state

    def test_nilpotent_mod_x(self):
        W = VectorField.monomial(1, 4, MonomialIndex((0,), 1), LaurentPoly.x())
        assert not W.is_nilpotent()
        assert W.is_nilpotent_mod_x()
        # a constant diagonal stays non-nilpotent in every window, and
        # annulus coefficients are outside the Taylor quotient entirely
        assert not mono_field(1, 4, (0,), 1).is_nilpotent_mod_x()
        W2 = VectorField.monomial(1, 4, MonomialIndex((0,), 1), LaurentPoly.x(-1))
        assert not W2.is_nilpotent_mod_x()
        with pytest.raises(NotNilpotentError):
            exp(W2, 1, x_window=5)
        with pytest.raises(NotNilpotentError):
            exp(W2, -1, x_window=5)

    def test_linear_nilpotency_matches_graded_pieces(self):
        # C^n = 0 against the action on every graded piece of degree <= cap
        rng = random.Random(61)
        kinds = {True: 0, False: 0}
        for n in range(1, 5):
            for cap in range(1, 6):
                for perturb in (False, True, True):
                    C = rand_nilpotent_matrix(rng, n)
                    if perturb:  # one entry off: nilpotent or not
                        i, j = rng.randrange(n), rng.randrange(n)
                        C[i][j] = C[i][j] + rand_laurent(rng, -1, 1, terms=1)
                    want = all(ref_graded_action_nilpotent(C, deg, n)
                               for deg in range(1, cap + 1))
                    assert _linear_action_nilpotent(C, cap) == want, (C, cap)
                    kinds[want] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_window_routes_agree(self):
        # adjoint series and substitution pushforward coincide on the
        # retained window in the x-truncated mode as well
        n, cap, win = 1, 4, 7
        W = VectorField.monomial(1, cap, MonomialIndex((0,), 1), LaurentPoly.x())
        X = (
            VectorField.euler(n, cap)
            + VectorField.diagonal([G(-1)], cap)
            + mono_field(n, cap, (1,), 1)
        )
        via_ad = exp_ad(W, X, x_window=win)
        via_push = exp(W, 1, x_window=win).pushforward(X).truncate_x(win)
        assert via_ad == via_push


class TestExp:
    def test_flow_jet(self):
        # exp(z^2 d/dz)(z) at cap 4: z + z^2 + z^3 + z^4 (jet of z/(1-z))
        X = mono_field(1, 4, (1,), 1)
        phi = exp(X)
        z = var(1, 4, 1)
        assert phi.img_z[0] == z + z * z + z * z * z + z * z * z * z
        assert phi.img_x == TransverseSeries.x_series(1, 4)

    def test_time_zero(self):
        X = mono_field(1, 4, (1,), 1)
        assert exp(X, 0) == Automorphism.identity(1, 4)

    def test_inverse_pair(self):
        rng = random.Random(28)
        for _ in range(30):
            X = rand_one_flat(rng, 2, 4)
            phi = exp(X)
            assert phi.compose(exp(X, -1)) == Automorphism.identity(2, 4)

    def test_requires_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            exp(VectorField.euler(1, 3))

    def test_commuting_sum(self):
        # exp(X+Y) = exp(X) o exp(Y) when [X, Y] = 0
        rng = random.Random(29)
        for _ in range(60):
            X, Y = rand_commuting_pair(rng, 4)
            assert X.bracket(Y).is_zero()
            assert exp(X + Y) == exp(X).compose(exp(Y))

    def test_exact_time_scalars(self):
        X = mono_field(1, 3, (1,), 1)
        phi = exp(X, Fraction(1, 2))
        z = var(1, 3, 1)
        assert phi.img_z[0] == z + z * z.scale(Fraction(1, 2)) + (z * z * z).scale(
            Fraction(1, 4)
        )

    @pytest.mark.parametrize("t", [0.5, 0.5 + 0j])
    def test_inexact_time_rejected(self, t):
        with pytest.raises(TypeError):
            exp(mono_field(1, 3, (1,), 1), t)

    def test_integer_powers(self):
        X = mono_field(1, 5, (2,), 1)
        assert exp(X, 2) == exp(X).compose(exp(X))

    @pytest.mark.parametrize("window", [None, 1])
    def test_compose_matches_eager_composition(self, window):
        # folding N's factor and then (W, 1, window) gives exp(W) o N,
        # truncated in the window, with the factors and the inverse of the
        # eager map.  Some eager maps reach past the window, so the
        # truncation is exercised
        rng = random.Random(74)
        beyond = 0
        for _ in range(20):
            W = rand_one_flat(rng, 2, 4, max_exp=1)
            N = exp(rand_one_flat(rng, 2, 4, max_exp=1), 1, x_window=window)
            eager = exp(W, 1, x_window=window).compose(N)
            got = lie._from_factors(2, 4, N._gens + ((W, G(1), window),))
            assert got._gens == eager._gens
            assert got.invert() == eager.invert()
            beyond += eager != _in_window(eager, window)
            assert got == _in_window(eager, window)
        assert window is None or beyond

    def test_compose_refuses_two_windows(self):
        # maps whose factors lie in different x-windows live in different
        # rings; a map without factors composes with either
        X = rand_one_flat(random.Random(75), 2, 4, max_exp=1)
        for first, second in ((1, 3), (None, 2), (0, None)):
            phi, psi = exp(X, 1, x_window=first), exp(X, 1, x_window=second)
            with pytest.raises(ValueError, match="x-windows"):
                phi.compose(psi)
            with pytest.raises(ValueError, match="x-windows"):
                Automorphism.linear([[G(2), G(0)], [G(0), G(1)]], 4).compose(phi).compose(psi)
            out = phi.compose(Automorphism(psi.img_x, psi.img_z))
            assert out._gens is None and out.img_z == tuple(phi.apply(c) for c in psi.img_z)

    def test_window_zero_keeps_x(self):
        # the x-image stays x in window 0, in exp and in its inverse
        X = mono_field(1, 3, (1,), 1, LaurentPoly({0: G(1), 1: G(1)}))
        x = TransverseSeries.x_series(1, 3)
        phi = exp(X, 1, x_window=0)
        assert phi.img_x == x and phi.invert().img_x == x
        assert phi.invert() == exp(X, -1, x_window=0)


class TestLog:
    def test_identity(self):
        assert log(Automorphism.identity(2, 4)).is_zero()

    def test_hand_example(self):
        # z -> z + z^2 at cap 3: log = z^2 d/dz - z^3 d/dz
        z = var(1, 3, 1)
        phi = Automorphism(TransverseSeries.x_series(1, 3), [z + z * z])
        X = log(phi)
        assert X == mono_field(1, 3, (1,), 1) - mono_field(1, 3, (2,), 1)

    def test_round_trips(self):
        rng = random.Random(31)
        for _ in range(40):
            X = rand_one_flat(rng, 2, 4)
            assert log(exp(X)) == X
            phi = exp(rand_one_flat(rng, 2, 4))
            assert exp(log(phi)) == phi

    def test_log_output_is_one_flat(self):
        rng = random.Random(32)
        for _ in range(20):
            X = rand_one_flat(rng, 2, 4)
            assert log(exp(X)).is_k_flat(1)

    def test_requires_tangency(self):
        with pytest.raises(NotTangentToIdentityError):
            log(Automorphism.linear([[G(2)]], 3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_series_loop(self, n):
        # log's two raw accumulators against the loop that forms every step
        # and partial sum as a series: moving and fixed x-images, Taylor and
        # Laurent coefficients, and a bare map with no Lie generators
        rng = random.Random(120 + n)
        for cap in range(3, 8):
            for min_exp in (0, -1):
                moving = shifted_map(rng, n, cap, min_exp)
                fixed = exp(rand_z_one_flat(rng, n, cap, terms=3, min_exp=min_exp))
                for phi in (moving, fixed, fresh(moving)):
                    got, want = log(phi), ref_log(phi)
                    assert got == want and str(got) == str(want), (n, cap, str(phi))


class TestPushforward:
    def test_identity(self):
        rng = random.Random(33)
        X = rand_field(rng, 2, 4)
        assert Automorphism.identity(2, 4).pushforward(X) == X

    def test_homological_step(self):
        # conjugating x dx - z dz + x z dz by exp(x z dz) removes the x z dz term
        n, cap = 1, 4
        W = VectorField.monomial(n, cap, MonomialIndex((0,), 1), LaurentPoly.x())
        X = VectorField.euler(n, cap) + VectorField.diagonal([G(-1)], cap) + W
        lin = VectorField.euler(n, cap) + VectorField.diagonal([G(-1)], cap)
        assert exp_ad(W, X) == lin
        pushed = exp(W, 1, x_window=8).pushforward(X)
        assert pushed.truncate_x(8) == lin

    def test_bracket_naturality(self):
        # Phi*[Z, W] = [Phi*Z, Phi*W]
        rng = random.Random(34)
        for _ in range(25):
            phi = exp(rand_one_flat(rng, 2, 3))
            Z = rand_field(rng, 2, 3, terms=2)
            W = rand_field(rng, 2, 3, terms=2)
            assert phi.pushforward(Z.bracket(W)) == phi.pushforward(Z).bracket(
                phi.pushforward(W)
            )

    def test_adjoint_equals_pushforward(self):
        # exp(ad_{tX}) Z = Ad_{tX} Z for t in {1, 2, -1}
        rng = random.Random(35)
        for i in range(60):
            t = [1, 2, -1][i % 3]
            X = rand_one_flat(rng, 2, 4, terms=2)
            Z = rand_field(rng, 2, 4, terms=2)
            lhs = exp_ad(X.scale(t), Z)
            rhs = exp(X, t).pushforward(Z)
            assert lhs == rhs

    def test_symmetry_family_at_sampled_times(self):
        # once exp(X) fixes Z, every exp(tX) does; sampled at exact times
        rng = random.Random(66)
        X, Z = rand_commuting_pair(rng, 4)
        assert exp(X).pushforward(Z) == Z
        for t in (2, -1, Fraction(1, 2)):
            assert exp(X, t).pushforward(Z) == Z

    def test_symmetry_iff_commutes(self):
        rng = random.Random(36)
        hits = 0
        for _ in range(60):
            X = rand_z_one_flat(rng, 2, 4, terms=1)
            Z = rand_field(rng, 2, 4, terms=2)
            commutes = X.bracket(Z).is_zero()
            fixed = exp(X).pushforward(Z) == Z
            assert commutes == fixed
            hits += commutes
        # both branches must actually occur
        assert 0 < hits
        # and a guaranteed commuting pair exercises the forward direction
        X, Y = rand_commuting_pair(rng, 4)
        assert exp(X).pushforward(Y) == Y


class TestInvert:
    def test_identity(self):
        ident = Automorphism.identity(2, 3)
        assert ident.invert() == ident

    def test_linear(self):
        phi = Automorphism.linear([[G(2)]], 3)
        assert phi.invert() == Automorphism.linear([[G(Fraction(1, 2))]], 3)

    def test_hand_example(self):
        z = var(1, 3, 1)
        phi = Automorphism(TransverseSeries.x_series(1, 3), [z + z * z])
        inv = phi.invert()
        assert inv.img_z[0] == z - z * z + (z * z * z).scale(2)

    def test_round_trip_randomized(self):
        rng = random.Random(37)
        ident = Automorphism.identity(2, 4)
        for _ in range(30):
            phi = rand_x_normalized_automorphism(rng, 2, 4)
            # force the split path: no cached inverse and no Lie generators
            object.__setattr__(phi, "_inv", None)
            object.__setattr__(phi, "_gens", None)
            inv = phi.invert()
            assert phi.compose(inv) == ident
            assert inv.compose(phi) == ident

    def test_singular(self):
        with pytest.raises(SingularLinearPartError):
            Automorphism.linear([[G(0)]], 3).invert()

    def test_linear_composed_with_shifted_map(self):
        # the x-image moves, so the map cannot be split; its linear factor
        # folds like an exp factor
        rng = random.Random(36)
        for n in (1, 2):
            for cap in (1, 3, 5):
                for min_exp in (0, -1):
                    step = shifted_map(rng, n, cap, min_exp)
                    phi = Automorphism.linear(rand_invertible_matrix(rng, n), cap).compose(step)
                    assert phi.img_x != TransverseSeries.x_series(n, cap)
                    inv = phi.invert()
                    ident = Automorphism.identity(n, cap)
                    assert phi.compose(inv) == ident and inv.compose(phi) == ident
                    assert inv.invert() == phi


# --- the substitution and inversion as they were: oracles ------------------


def ref_invert(phi):
    """The inverse of an x-normalized map by cap - 1 fixed-point rounds,
    each at the full cap: sigma = A^-1 (z - high(sigma)), substituted
    through ref_apply."""
    n, cap = phi.n, phi.cap
    A = lie._constant_matrix([c.linear_part() for c in phi.img_z])
    Ainv = _invert_matrix(A)
    x = TransverseSeries.x_series(n, cap)
    zs = [var(n, cap, j + 1) for j in range(n)]

    def linear(M, z):
        return [
            sum((z[j].scale(M[i][j]) for j in range(n)), TransverseSeries.zero(n, cap))
            for i in range(n)
        ]

    high = [img - lin for img, lin in zip(phi.img_z, linear(A, zs))]
    sigma = linear(Ainv, zs)
    for _ in range(max(cap - 1, 0)):
        corr = [ref_apply(Automorphism(x, sigma), h) for h in high]
        sigma = linear(Ainv, [z - c for z, c in zip(zs, corr)])
    return Automorphism(x, sigma)


def shifted_map(rng, n, cap, min_exp=0):
    """exp(V) with V.a != 0 and V 1-flat, so the x-image is x + u, u != 0."""
    while True:
        a = rand_series(rng, n, cap, 2, min_deg=1, min_exp=min_exp, max_exp=2)
        if not a.is_zero():
            return exp(VectorField(a, rand_z_one_flat(rng, n, cap, min_exp=min_exp).b))


def fresh(phi):
    """The same map with no memoized monomials or inverse."""
    return Automorphism(phi.img_x, phi.img_z)


def count_products(monkeypatch):
    """Count series products from here on: a one-item list.

    A product is a call of the product kernel, from TransverseSeries.__mul__
    or from Automorphism.apply and its memos, whose right side is not one
    degree-0 coefficient; apply's sums of f_K^(m)/m! z'^K scale z'^K and
    are not counted.
    """
    calls = [0]
    kernel = series.accumulate_products

    def counting(data, cap, left, right, x_window=None):
        if not (len(right) == 1 and right[0][1] == 0):
            calls[0] += 1
        return kernel(data, cap, left, right, x_window)

    monkeypatch.setattr(series, "accumulate_products", counting)
    monkeypatch.setattr(lie, "accumulate_products", counting)
    return calls


class TestSubstitutionOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_shifted_matches_reference(self, n):
        rng = random.Random(90 + n)
        for cap in range(1, 7):
            for min_exp in (0, -2):
                phi = shifted_map(rng, n, cap, min_exp)
                assert not (phi.img_x - TransverseSeries.x_series(n, cap)).is_zero()
                for _ in range(2):
                    f = rand_series(rng, n, cap, terms=5, min_exp=-2, max_exp=2)
                    got, want = phi.apply(f), ref_apply(phi, f)
                    assert got == want and str(got) == str(want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_unshifted_matches_reference(self, n):
        rng = random.Random(95 + n)
        for cap in range(1, 7):
            phi = exp(rand_z_one_flat(rng, n, cap, min_exp=-1, max_exp=2))
            if n <= 2:
                phi = Automorphism.linear(rand_invertible_matrix(rng, n), cap).compose(phi)
            assert phi.img_x == TransverseSeries.x_series(n, cap)
            for _ in range(2):
                f = rand_series(rng, n, cap, terms=5, min_exp=-2, max_exp=2)
                got, want = phi.apply(f), ref_apply(phi, f)
                assert got == want and str(got) == str(want)

    def test_apply_composed_as_in_corpus(self):
        # lin o exp(V), as the composed_pushforward identity builds it, and
        # the same with V.a != 0 so that u != 0
        rng = random.Random(99)
        for cap in (1, 2, 5, 6):
            M = rand_invertible_matrix(rng, 2)
            for step in (exp(rand_z_one_flat(rng, 2, cap, max_exp=1)), shifted_map(rng, 2, cap)):
                phi = Automorphism.linear(M, cap).compose(step)
                Z = rand_field(rng, 2, cap)
                for f in (Z.a, *Z.b, rand_series(rng, 2, cap, terms=5, min_exp=-2)):
                    got, want = phi.apply(f), ref_apply(phi, f)
                    assert got == want and str(got) == str(want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invert_matches_reference(self, n):
        # lin o exp(V) and lin^-1 o exp(V) fold their factors; a map built
        # bare from its images has none and is split first
        rng = random.Random(103 + n)
        for cap in range(1, 7 if n < 3 else 5):
            for _ in range(3):
                M = rand_invertible_matrix(rng, n)
                V = rand_z_one_flat(rng, n, cap, terms=3, min_exp=-1, max_exp=2)
                lin = Automorphism.linear(M, cap)
                bare = Automorphism(
                    TransverseSeries.x_series(n, cap),
                    [
                        img + rand_series(rng, n, cap, 3, min_deg=2, min_exp=-1, max_exp=2)
                        for img in lin.img_z
                    ],
                )
                assert bare._gens is None
                for phi in (lin.compose(exp(V)), lin.invert().compose(exp(V)), bare):
                    assert phi._inv is None
                    got, want = phi.invert(), ref_invert(phi)
                    assert got == want and str(got) == str(want)
                    ident = Automorphism.identity(n, cap)
                    assert phi.compose(got) == ident and got.compose(phi) == ident

    def test_apply_product_count(self, monkeypatch):
        # one product per power of u and per layer, plus one per z'^K;
        # ref_apply makes two per (term K, Taylor order m) pair
        rng = random.Random(109)
        calls = count_products(monkeypatch)
        cases = 0
        for n in (1, 2, 3):
            for cap in range(2, 7):
                for _ in range(3):
                    phi = fresh(shifted_map(rng, n, cap))
                    f = rand_series(rng, n, cap, terms=8, min_exp=-2, max_exp=-1)
                    calls[0] = 0
                    phi.apply(f)
                    assert calls[0] <= len(f.terms()) + (n + 2) * cap, (n, cap, str(f))
                    cases += 1
        assert cases == 45

    def test_apply_one_product_per_power_of_u(self, monkeypatch):
        # every monomial up to the cap, with coefficients whose derivatives
        # never vanish, so that every layer m = 0..cap is filled
        n, cap = 2, 4
        z1, z2 = var(n, cap, 1), var(n, cap, 2)
        phi = exp(VectorField(z1 + z2, [z1 * z1, z1 * z2]))
        f = TransverseSeries(n, cap, {K: LaurentPoly.x(-1) for K in iter_exponents(n, 0, cap)})
        calls = count_products(monkeypatch)
        got = phi.apply(f)
        powers = n * (cap - 1)  # img_z[i]^2 .. img_z[i]^cap, once each
        mixed = cap * (cap - 1) // 2  # z'^K with both exponents nonzero
        layers = cap + (cap - 1)  # layer m times u^m; u^2 .. u^cap
        assert calls[0] == powers + mixed + layers
        monkeypatch.undo()
        assert got == ref_apply(phi, f)

    def test_apply_one_product_per_monomial(self, monkeypatch):
        # z'^K is z'^(K - e_i) * z'_i, memoized per window: one product for
        # each monomial of degree 2..cap, and none when the map is reused
        n, cap = 3, 4
        phi = fresh(exp(rand_z_one_flat(random.Random(113), n, cap, terms=3)))
        f = TransverseSeries(n, cap, {K: LaurentPoly.one() for K in iter_exponents(n, 0, cap)})
        calls = count_calls(monkeypatch, lie, "_product")
        got = phi.apply(f)
        assert calls[0] == len(list(iter_exponents(n, 2, cap))) == 31
        assert phi.apply(f) == got and calls[0] == 31
        monkeypatch.undo()
        assert got == ref_apply(phi, f)


def count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from here on: a one-item list."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestOncePerMap:
    """A map's checks, its shift u with the powers u^m, and its monomials
    z'^K are built once per map; only the work on f is done per call."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_repeated_applies_on_interleaved_maps(self, n):
        # two moving maps and a fixed one of one shape, applied in turn, so
        # that a memo or power list kept for the wrong map shows
        rng = random.Random(130 + n)
        for cap in range(3, 8):
            maps = [
                shifted_map(rng, n, cap, min_exp=-1),
                shifted_map(rng, n, cap),
                exp(rand_z_one_flat(rng, n, cap, terms=3, min_exp=-1)),
            ]
            series = [rand_series(rng, n, cap, terms=5, min_exp=-2, max_exp=2) for _ in range(2)]
            for _ in range(3):
                for phi in maps:
                    for f in series:
                        got, want = phi.apply(f), ref_apply(phi, f)
                        assert got == want and str(got) == str(want), (n, cap)

    def test_windowed_and_plain_applies_keep_apart(self):
        # one fixed map applied in two windows and without one, in turn:
        # each window has its own z'^K memo
        rng = random.Random(134)
        n, cap = 2, 5
        phi = exp(rand_z_one_flat(rng, n, cap, terms=3, max_exp=2))
        fs = [rand_series(rng, n, cap, terms=5, max_exp=3) for _ in range(2)]
        for _ in range(2):
            for f in fs:
                want = ref_apply(phi, f)
                for w in (1, None, 3):
                    got = phi.apply(f, w)
                    assert got == (want if w is None else want.truncate_x(w))

    @pytest.mark.parametrize("img_x,img_z,x_window,message", [
        ("x", ["1 + z1"], None, "z-images must lie in m"),
        ("x + 1", ["z1"], None, "x-image must differ from x by an element of m"),
        ("x + x*z1", ["z1"], 2, "an x-window needs the x-image x"),
        ("x", ["x^-1*z1"], 2, "an x-window needs Taylor coefficients"),
    ])
    def test_failed_checks_raise_on_every_call(self, img_x, img_z, x_window, message):
        cap = 3
        phi = Automorphism(parse_series(img_x, 1, cap), [parse_series(c, 1, cap) for c in img_z])
        f = var(1, cap, 1) * var(1, cap, 1)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                phi.apply(f, x_window)
        if x_window is not None:
            # the map itself passes: only its window fails, on every call
            assert phi.apply(f) == ref_apply(phi, f)
            with pytest.raises(ValueError, match=message):
                phi.apply(f, x_window)

    def test_windowed_series_is_checked_on_every_call(self):
        phi = exp(rand_z_one_flat(random.Random(135), 1, 3))
        taylor, laurent = var(1, 3, 1), TransverseSeries.monomial(1, 3, (1,), LaurentPoly.x(-1))
        for _ in range(2):
            assert phi.apply(taylor, 2) == ref_apply(phi, taylor).truncate_x(2)
            with pytest.raises(ValueError, match="an x-window needs Taylor coefficients"):
                phi.apply(laurent, 2)

    def test_second_apply_forms_no_series_product(self, monkeypatch):
        # the z'^K memo and the powers of u are in place after the first
        # call, so the second runs only the kernel calls that read f: the
        # first call's, less its one kernel call per memo product
        rng = random.Random(136)
        for n in (1, 2, 3):
            for cap in (3, 5, 7):
                phi = shifted_map(rng, n, cap)
                f = rand_series(rng, n, cap, terms=6, min_exp=-2, max_exp=-1)
                products = count_calls(monkeypatch, lie, "_product")
                kernel = count_calls(monkeypatch, lie, "accumulate_products")
                first = phi.apply(f)
                first_calls = kernel[0] - products[0]
                assert products[0] > 0
                products[0] = kernel[0] = 0
                assert phi.apply(f) == first
                assert products[0] == 0 and kernel[0] == first_calls, (n, cap)
                monkeypatch.undo()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_images_convert_once_per_window(self, monkeypatch, n):
        # the memo holds z'^K as kernel items: the first apply in a window
        # converts each z-image once, and applying the fixed map again
        # converts none of them (apply converts its operand f on every call)
        rng = random.Random(137 + n)
        for cap in (3, 5):
            phi = exp(rand_z_one_flat(rng, n, cap, terms=3))
            f = TransverseSeries(n, cap, {K: LaurentPoly.one() for K in iter_exponents(n, 0, cap)})
            converted = []
            cells = lie._series_cells
            monkeypatch.setattr(
                lie, "_series_cells", lambda terms: converted.append(terms) or cells(terms)
            )
            def images_converted():
                return [sum(t is c._terms for t in converted) for c in phi.img_z]

            for w in (None, 2):
                converted.clear()
                first = phi.apply(f, w)
                assert images_converted() == [1] * n
                converted.clear()
                assert phi.apply(f, w) == first and images_converted() == [0] * n, (cap, w)
            monkeypatch.undo()

    @pytest.mark.parametrize("cap", [3, 4, 5, 6, 7])
    def test_log_steps_form_no_series(self, monkeypatch, cap):
        # tangent_to_identity subtracts once per coordinate, and a moving
        # map's shift u = img_x - x is one more subtraction, once per map;
        # the steps themselves scale and subtract nothing
        rng = random.Random(140 + cap)
        n = 2
        moving = shifted_map(rng, n, cap)
        fixed = exp(rand_z_one_flat(rng, n, cap, terms=3))
        subs = count_calls(monkeypatch, TransverseSeries, "__sub__")
        scales = count_calls(monkeypatch, TransverseSeries, "scale")
        for phi, once in ((moving, 1), (moving, 0), (fixed, 0)):
            subs[0] = 0
            log(phi)
            assert (subs[0], scales[0]) == (n + 1 + once, 0)


class TestFoldedFactors:
    """Derivations, Taylor layers and Lie-series coefficients fold their
    factors into the product kernel's raw right cells: no finished series
    is scaled, and no polynomial is built for a Taylor layer."""

    @pytest.mark.parametrize("cap", [3, 4, 5, 6])
    def test_lie_series_and_brackets_scale_no_series(self, monkeypatch, cap):
        # exp_ad's 1/k, a fold's t/k and t, and a bracket's sign all go
        # into cells; the results match oracles that scale whole series
        rng = random.Random(150 + cap)
        n = 2
        W = rand_one_flat(rng, n, cap, terms=3, min_exp=-1)
        X, Y = rand_field(rng, n, cap, terms=3, min_exp=-1), rand_field(rng, n, cap, terms=3)
        upper = (cap + 1) // 2 + 1  # z-degree of a factor that acts additively
        runs = [
            rand_z_one_flat(rng, n, cap, terms=3, min_exp=-1),
            VectorField(TransverseSeries.zero(n, cap), rand_z_one_flat(rng, n, cap).b),
        ] + [
            VectorField(TransverseSeries.zero(n, cap), [
                rand_series(rng, n, cap, 2, min_deg=upper, min_exp=-1) for _ in range(n)
            ])
            for _ in range(3)
        ]
        ts = (G(2), G(Fraction(-1, 3), 1), G(1), G(-1), G(Fraction(1, 2)))
        factors = tuple((V, t, None) for V, t in zip(runs, ts))
        scales = count_calls(monkeypatch, TransverseSeries, "scale")
        got = (exp_ad(W, X), lie._from_factors(n, cap, factors), X.bracket(Y))
        assert scales[0] == 0, cap
        monkeypatch.undo()
        assert got[0] == exp(W).pushforward(X)
        assert got[1] == ref_fold(n, cap, factors)
        assert got[2] == ref_bracket(X, Y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moving_apply_builds_no_layer_polynomial(self, monkeypatch, n):
        # once the map's u and z'^K are in place, a moving x-image's
        # Taylor layers f_K^(m)/m! are raw cells: no LaurentPoly is built
        # for them, only the finished layers and the result
        rng = random.Random(160 + n)
        for cap in (3, 5, 7):
            phi = shifted_map(rng, n, cap, min_exp=-1)
            f, g = (rand_series(rng, n, cap, terms=6, min_exp=-2, max_exp=3) for _ in range(2))
            phi.apply(f)
            built = count_calls(monkeypatch, coeff, "_lp_raw")
            inits = count_calls(monkeypatch, LaurentPoly, "__init__")
            scales = count_calls(monkeypatch, LaurentPoly, "scale")
            got = phi.apply(g)
            assert (built[0], inits[0], scales[0]) == (0, 0, 0), (n, cap)
            monkeypatch.undo()
            assert got == ref_apply(phi, g)

    @pytest.mark.parametrize("n", [1, 2])
    def test_substitution_sign_goes_into_every_layer(self, n):
        # a sign folded into f's cells reaches the Taylor layers that a
        # moving x-image multiplies by u^m too
        rng = random.Random(170 + n)
        for cap in (3, 5):
            phi = shifted_map(rng, n, cap, min_exp=-1)
            f = rand_series(rng, n, cap, terms=6, min_exp=-2, max_exp=3)
            data = {}
            phi._apply_into(data, series._series_cells(f._terms, -1), None)
            assert TransverseSeries(n, cap, series.finish_products(data)) == -ref_apply(phi, f)
            phi._apply_into(data, series._series_cells(f._terms), None)
            assert series.finish_products(data) == {}


class TestFinishedOnce:
    """A Lie series, a log and a pushforward keep their intermediate terms,
    steps and layers as kernel items: each makes one finish_products call
    per component it returns."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("moving", [False, True])
    def test_one_finish_per_returned_component(self, monkeypatch, n, moving):
        rng = random.Random(180 + 2 * n + moving)
        cap = 5
        make = rand_one_flat if moving else rand_z_one_flat
        W = make(rng, n, cap, terms=3, min_exp=-1)
        X = rand_field(rng, n, cap, terms=3, min_exp=-1)
        phi = shifted_map(rng, n, cap, min_exp=-1)
        psi = exp(rand_z_one_flat(rng, n, cap, terms=3))
        inv = phi.invert()  # folded before counting, as pushforward reads it
        coords = lie._coordinates(n, cap)
        # every series below has at least two nonzero terms or steps
        assert any(W.apply(W.apply(c)) for c in coords)
        assert any(psi.apply(psi.apply(c) - c) - (psi.apply(c) - c) for c in coords)
        runs = {
            "fold": lambda: exp(W),
            "exp_ad": lambda: exp_ad(W, X),
            "log": lambda: log(psi),
            "pushforward": lambda: phi.pushforward(X),
        }
        finished = count_calls(monkeypatch, lie, "finish_products")
        got = {}
        for name, run in runs.items():
            finished[0] = 0
            got[name] = run()
            assert finished[0] == n + 1, name
        monkeypatch.undo()

        def bracket_step(V, w, c):
            return W.bracket(V, w).scale(c)

        assert got["fold"] == ref_fold(n, cap, ((W, G(1), None),))
        assert got["exp_ad"] == lie_series(bracket_step, X, Fraction(1), None)
        assert got["log"] == ref_log(psi)
        assert got["pushforward"] == VectorField(
            phi.apply(X.apply(inv.img_x)), [phi.apply(X.apply(c)) for c in inv.img_z]
        )


class TestInverseLinks:
    """A map holds its inverse; the inverse holds no link back, so a dropped
    pair is freed by reference counting, with no cycle for gc to find, and
    inverting the inverse recomputes a map equal to the original."""

    def _freed_without_gc(self, build):
        gc.disable()
        try:
            refs = [weakref.ref(obj) for obj in build()]
            return all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_pairs_form_no_cycle(self):
        rng = random.Random(111)
        M = rand_invertible_matrix(rng, 2)
        V = rand_z_one_flat(rng, 2, 4)

        def split():
            phi = fresh(Automorphism.linear(M, 4).compose(exp(V)))
            return phi, phi.invert(), phi.invert().invert()

        def folded():
            phi = shifted_map(rng, 2, 4)
            return phi, phi.invert(), phi.invert().invert()

        def identity():
            ident = Automorphism.identity(2, 4)
            return ident, ident.invert()

        for build in (split, folded, identity):
            assert self._freed_without_gc(build), build.__name__

    def test_links_resolve_to_the_same_objects(self):
        rng = random.Random(112)
        phi = shifted_map(rng, 2, 4)
        inv = phi.invert()
        assert phi.invert() is inv and inv.invert() == phi
        ident = Automorphism.identity(2, 4)
        assert ident.invert() == ident

    def test_inverse_outlives_its_map(self):
        # u != 0: the split cannot recompute the map, the Lie fold can
        rng = random.Random(113)
        phi = shifted_map(rng, 2, 4)
        img_x, img_z, gens = phi.img_x, phi.img_z, phi._gens
        inv = phi.invert()
        del phi
        back = inv.invert()
        assert back == Automorphism(img_x, img_z)
        assert back._gens == gens
        assert inv.invert() is back and back.invert() == inv
        assert inv.compose(back) == Automorphism.identity(2, 4)
        # the recomputed map carries the Lie generators, so a composition
        # with it still inverts although its x-image is not x
        step = exp(rand_z_one_flat(rng, 2, 4))
        psi = back.compose(step)
        assert psi.compose(psi.invert()) == Automorphism.identity(2, 4)

    def test_held_inverse_frees_its_map(self):
        rng = random.Random(114)
        M = rand_invertible_matrix(rng, 2)
        held = []

        def split():
            phi = fresh(Automorphism.linear(M, 4).compose(exp(rand_z_one_flat(rng, 2, 4))))
            held.append(phi.invert())
            return [phi]

        def folded():
            phi = shifted_map(rng, 2, 4)
            held.append(phi.invert())
            return [phi]

        def linear_factor():
            phi = Automorphism.linear(M, 4).compose(shifted_map(rng, 2, 4))
            held.append(phi.invert())
            return [phi]

        for build in (split, folded, linear_factor):
            assert self._freed_without_gc(build), build.__name__
        for inv in held:
            assert inv.compose(inv.invert()) == Automorphism.identity(2, 4)


class TestExpDecomposition:
    def test_linear_input(self):
        phi = Automorphism.linear([[G(2), G(1)], [G(0), G(3)]], 4)
        A, Z = exp_decomposition(phi)
        assert A == phi and Z.is_zero()

    def test_hand_example(self):
        # z -> 2z + z^2: A: z -> 2z, Z = log(z -> z + z^2/2)
        z = var(1, 3, 1)
        phi = Automorphism(
            TransverseSeries.x_series(1, 3), [z.scale(2) + z * z]
        )
        A, Z = exp_decomposition(phi)
        assert A == Automorphism.linear([[G(2)]], 3)
        half_sq = Automorphism(
            TransverseSeries.x_series(1, 3), [z + (z * z).scale(Fraction(1, 2))]
        )
        assert Z == log(half_sq)
        # point maps compose phi = A o exp(Z); operators in the other order
        assert exp(Z).compose(A) == phi

    def test_recomposition_randomized(self):
        rng = random.Random(38)
        for _ in range(30):
            phi = rand_x_normalized_automorphism(rng, 2, 4)
            A, Z = exp_decomposition(phi)
            assert Z.is_k_flat(1)
            assert exp(Z).compose(A) == phi

    def test_symmetry_factors(self):
        # if an x-normalized map fixes a linear field, so do both factors
        rng = random.Random(39)
        cap = 4
        mu = (G(-1), G(2))
        X = VectorField.semisimple(mu, cap)
        for _ in range(20):
            # diagonal scaling commutes with L(mu); exp of a centralizer
            # monomial (x z1^2 dz1 for mu_1 = -1) is a symmetry too
            d1, d2 = rand_gq(rng), rand_gq(rng)
            if d1.is_zero() or d2.is_zero():
                continue
            A = Automorphism.linear([[d1, G(0)], [G(0), d2]], cap)
            W = VectorField.monomial(
                2, cap, MonomialIndex((1, 0), 1), LaurentPoly.x()
            ).scale(rand_gq(rng))
            phi = A.compose(exp(W))
            assert phi.pushforward(X) == X
            A2, Z2 = exp_decomposition(phi)
            assert A2.pushforward(X) == X
            assert exp(Z2).pushforward(X) == X


def eager_sweep(X, res):
    """Reference normalizer and inverse of res, composed eagerly step by step.

    Replays normalize()'s sweep from its recorded steps.  After each one it
    composes exp(W) onto the running normalizer by substitution, and
    substitutes the running inverse into the images of exp(-W), truncating
    both in the x-window mode: the normalizer was composed this way before
    the sweep used Lie series, and the inverse before it was folded from
    Lie generators.
    """
    n, cap, window = X.n, X.cap, res.x_window
    field = X if window is None else X.truncate_x(window)
    normalizer = inv = Automorphism.identity(n, cap)
    for idx in res.steps:
        f, _ = field.coefficient_at(idx).euler_solve(pairing(res.mu, idx.K))
        W = VectorField.monomial(n, cap, idx, f)
        field = exp_ad(W, field, x_window=window)
        normalizer = _in_window(exp(W, 1, x_window=window).compose(normalizer), window)
        step = exp(W, -1, x_window=window)
        inv = _in_window(
            Automorphism(inv.apply(step.img_x), [inv.apply(c) for c in step.img_z]), window
        )
    return normalizer, inv


FIELD_A = "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + z1^2*dz1 + x*z1*z2*dz2 + z2^2*dz1 + z1^3*dz2"
FIELD_B = (
    "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + i*z3*dz3 + z1^2*dz1 + x*z1*z2*dz2"
    " + z2^2*dz3 + z1*z3*dz2"
)


def window_fields():
    """Seeded fields with an x-dependent diagonal: normalize runs windowed."""
    rng = random.Random(71)
    for _ in range(4):
        n = rng.choice([1, 2])
        cap = 4
        mu = rand_mu(rng, n, span=2, den=1)
        X = rand_x_normalized(rng, mu, cap, terms=2, max_exp=1)
        X = X + mono_field(n, cap, (0,) * n, 1, LaurentPoly({1: rand_gq_nonzero(rng)}))
        yield X, mu, rng.randint(3, 6)


def exact_fields():
    """Seeded fields with a constant linear part, and fields A and B."""
    rng = random.Random(72)
    for _ in range(4):
        n = rng.choice([1, 2])
        mu = rand_mu(rng, n, span=3, den=2)
        yield rand_x_normalized(rng, mu, 5, terms=3, max_exp=2), mu, None
    for text, n, cap in ((FIELD_A, 2, 6), (FIELD_B, 3, 7)):
        X = parse_field(text, n, cap)
        yield X, [X.constant_linear_matrix()[i][i] for i in range(n)], None


class TestLazyInverse:
    @pytest.mark.parametrize("mode", ["exact", "window"])
    def test_normalizer_inverse_matches_eager_composition(self, mode):
        cases = exact_fields() if mode == "exact" else window_fields()
        for X, mu, x_cap in cases:
            res = normalize(X, mu, x_cap=x_cap)
            assert (res.x_window is None) == (mode == "exact")
            assert res.steps
            eager, eager_inv = eager_sweep(X, res)
            assert res.normalizer == eager
            inv = res.normalizer.invert()
            assert inv == eager_inv
            assert res.normalizer.invert() is inv
            assert inv.invert() == res.normalizer
            ident = Automorphism.identity(X.n, X.cap)
            for one_way in (res.normalizer.compose(inv), inv.compose(res.normalizer)):
                assert _in_window(one_way, res.x_window) == ident

    def test_generators_hold_no_normalizer(self):
        # the normalizer keeps one Lie generator (W, 1, window) per sweep
        # step, in step order, and no map
        X, mu, x_cap = next(window_fields())
        res = normalize(X, mu, x_cap=x_cap)
        gens = res.normalizer._gens
        assert len(gens) == len(res.steps)
        for (W, t, window), idx in zip(gens, res.steps):
            assert isinstance(W, VectorField) and t == 1 and window == res.x_window
            assert [index for index, _ in W.l_terms()] == [idx]

    def test_inverse_fold_substitutes_nothing(self, monkeypatch):
        X = parse_field(FIELD_A, 2, 8)
        res = normalize(X, [G(Fraction(1, 2)), G(-3)])
        calls = [0]
        apply = Automorphism.apply

        def counting(self, f):
            calls[0] += 1
            return apply(self, f)

        monkeypatch.setattr(Automorphism, "apply", counting)
        inv = res.normalizer.invert()
        monkeypatch.undo()
        assert calls[0] == 0
        assert res.normalizer.compose(inv) == Automorphism.identity(2, 8)

    def test_nested_compositions(self):
        # a composition whose left factor is itself a composition, with and
        # without an x-window, inverts to the product of the step inverses
        rng = random.Random(73)
        for window in (None, 3):
            Xs = [rand_one_flat(rng, 2, 4, max_exp=1) for _ in range(3)]
            steps = [exp(X, 1, x_window=window) for X in Xs]
            phi = steps[1].compose(steps[0])
            assert phi == _in_window(phi, window)  # cap 4 reaches no x^4
            phi = steps[2].compose(phi)
            psi = phi.compose(steps[0])
            expected = exp(Xs[0], -1, x_window=window).compose(phi.invert())
            assert psi.invert() == expected
            ident = Automorphism.identity(2, 4)
            for one_way in (psi.compose(psi.invert()), psi.invert().compose(psi)):
                assert _in_window(one_way, window) == ident
        # two different windows do not compose; in one window, with Taylor
        # or Laurent coefficients, the inverse holds modulo the window
        for first, second, min_exp in ((1, 3, 0), (3, 1, 0), (2, 2, -1), (1, 3, -1)):
            X, Y = (rand_one_flat(rng, 2, 4, min_exp=min_exp, max_exp=1) for _ in range(2))
            if first != second:
                with pytest.raises(ValueError, match="x-windows"):
                    exp(X, 1, x_window=first).compose(exp(Y, 1, x_window=second))
            window = min(first, second)
            psi = exp(X, 1, x_window=window).compose(exp(Y, 1, x_window=window))
            eager = exp(Y, -1, x_window=window).compose(exp(X, -1, x_window=window))
            inv = psi.invert()
            assert _in_window(inv, window) == _in_window(eager, window)
            assert _in_window(psi.compose(inv), window) == ident


def _in_window(phi, window):
    """phi's images truncated at x-degree window, the x-image as img_x - x,
    plus x, so window 0 keeps x; a map without factors.  phi itself when
    window is None."""
    if window is None:
        return phi
    x = TransverseSeries.x_series(phi.n, phi.cap)
    return Automorphism((phi.img_x - x).truncate_x(window) + x,
                        [c.truncate_x(window) for c in phi.img_z])


def ref_exp_compose(W: VectorField, N: Automorphism, x_window: int | None = None) -> Automorphism:
    """exp(W) o N, as the Lie series sum_k W^k(N's images)/k!.

    The same map as ``exp(W, 1, x_window).compose(N)``, with its images
    truncated at x-degree x_window when a window is given; but neither
    exp(W) nor a substitution into N is formed.  N's factors lie in that
    window too.  The result has N's Lie generators followed by
    (W, 1, x_window); or none if N has none.
    For a monomial field W = f(x) z^K z_j d/dz_j, as in every sweep step of
    normalize(), each term is one d/dz_j and one one-term product.
    """
    if W.n != N.n or W.cap != N.cap:
        raise DimensionMismatchError("field and automorphism shapes differ")
    ref_require_nilpotent(W, x_window)
    one = G.ONE
    images = ref_exp_images(W, one, x_window, (N.img_x,) + N.img_z)
    phi = Automorphism(images[0], images[1:])
    if N._gens is not None:
        object.__setattr__(phi, "_gens", N._gens + ((W, one, x_window),))
    return phi


def ref_require_nilpotent(X: VectorField, x_window) -> None:
    if x_window is None:
        if not X.is_nilpotent():
            raise NotNilpotentError("exp requires a nilpotent field at the cap")
    elif not X.is_nilpotent_mod_x():
        raise NotNilpotentError(
            "exp requires a field nilpotent in the x-truncated ring"
        )


def ref_exp_images(X: VectorField, t: G, x_window, series):
    """The Lie series sum_k t^k/k! X^k(s) of each s in series, as the list
    [x-image, z-images...].

    The coordinates give the images of exp(tX); the images of a map N give
    those of exp(tX) o N.  The sum is finite for nilpotent X.
    """

    def step(s, w, c):
        return X.apply(s, w).scale(c)

    return [lie_series(step, s, t, x_window) for s in series]


class TestOneFold:
    """normalize() folds its normalizer once, after the sweep, from the
    factors it recorded; the code before composed each step onto the running
    map with exp_compose, kept here as ``ref_exp_compose``."""

    @pytest.mark.parametrize("mode", ["exact", "window"])
    def test_folded_normalizer_matches_step_by_step_chain(self, mode):
        cases = exact_fields() if mode == "exact" else window_fields()
        for X, mu, x_cap in cases:
            res = normalize(X, mu, x_cap=x_cap)
            n, cap, window = X.n, X.cap, res.x_window
            assert (window is None) == (mode == "exact")
            field = X if window is None else X.truncate_x(window)
            chain = Automorphism.identity(n, cap)
            for idx in res.steps:
                f, _ = field.coefficient_at(idx).euler_solve(pairing(res.mu, idx.K))
                W = VectorField.monomial(n, cap, idx, f)
                field = exp_ad(W, field, x_window=window)
                chain = ref_exp_compose(W, chain, window)
            assert res.normalizer.img_x == chain.img_x
            assert res.normalizer.img_z == chain.img_z
            assert res.normalizer._gens == chain._gens

    @pytest.mark.parametrize("mode", ["exact", "window"])
    def test_sweep_factors_are_nilpotent(self, mode):
        # the fold trusts its factors, so each recorded step must be one
        # exp would accept
        cases = exact_fields() if mode == "exact" else window_fields()
        for X, mu, x_cap in cases:
            res = normalize(X, mu, x_cap=x_cap)
            assert len(res.normalizer._gens) == len(res.steps) > 0
            for W, t, window in res.normalizer._gens:
                assert t == 1 and window == res.x_window
                assert W.is_nilpotent() if window is None else W.is_nilpotent_mod_x()


def upper_field(rng, n, cap, min_exp=0):
    """A field with no d/dx part whose every term raises z-degree by some
    k with 2k >= cap."""
    zero = TransverseSeries.zero(n, cap)
    deg = (cap + 3) // 2
    return VectorField(zero, [
        rand_series(rng, n, cap, terms=2, min_deg=deg, min_exp=min_exp, max_exp=2) for _ in range(n)
    ])


def shown(phi):
    """Equality and the printed bytes."""
    return phi, str(phi)


class TestAdditiveRuns:
    """_from_factors applies a run of two or more exp factors that raise
    z-degree by k >= cap/2, and have no d/dx part, as one field V = sum t*W;
    ref_fold runs one Lie series per factor."""

    @pytest.mark.parametrize("window", [None, 0, 2])
    def test_composed_upper_factors_fold_as_one_field(self, window):
        rng = random.Random(76)
        for n, cap in ((1, 4), (2, 4), (2, 5), (3, 4), (2, 6)):
            V1 = upper_field(rng, n, cap, min_exp=0 if window is not None else -1)
            V2 = upper_field(rng, n, cap)
            t1, t2 = G(Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))), G(1)
            phi = exp(V1, t1, x_window=window).compose(exp(V2, t2, x_window=window))
            gens = ((V2, t2, window), (V1, t1, window))
            assert phi._gens == gens
            assert all(lie._acts_additively(f, cap) for f in gens)
            folded = lie._from_factors(n, cap, gens)
            assert shown(folded) == shown(ref_fold(n, cap, gens))
            assert folded._gens == gens
            if window is None:
                assert folded == phi

    def test_runs_break_at_other_factors(self):
        # a linear factor, a factor with a d/dx part and one raising z-degree
        # by k < cap/2 each end a run; x*z1^2*dx raises z-degree by 2 = cap/2,
        # but exp of it moves x by a term of degree 4
        rng = random.Random(77)
        n, cap = 2, 4
        one = G.ONE
        U = [upper_field(rng, n, cap) for _ in range(4)]
        dx = VectorField(TransverseSeries.monomial(n, cap, (2, 0), LaurentPoly.x(1)), U[0].b)
        breakers = [
            (dx, one, None),
            (rand_z_one_flat(rng, n, cap), G(-1), None),
            (rand_invertible_matrix(rng, n), None, None),
        ]
        for brk in breakers:
            gens = ((U[0], one, None), (U[1], G(-1), None), brk, (U[2], one, None), (U[3], G(2), None))
            assert [lie._acts_additively(f, cap) for f in gens if f is not brk] == [True] * 4
            folded = lie._from_factors(n, cap, gens)
            assert shown(folded) == shown(ref_fold(n, cap, gens))
            assert folded._gens == gens
        x = TransverseSeries.x_series(n, cap)
        assert ref_fold(n, cap, [breakers[0]]).img_x != x + dx.a

    @pytest.mark.parametrize("mode", ["exact", "window"])
    def test_normalizer_inverse_starts_with_a_run(self, mode):
        # invert() folds the reversed factors -t*W: the sweep's upper run
        # comes first
        cases = exact_fields() if mode == "exact" else window_fields()
        runs = 0
        for X, mu, x_cap in cases:
            res = normalize(X, mu, x_cap=x_cap)
            inv = res.normalizer.invert()
            n, cap = X.n, X.cap
            runs += all(lie._acts_additively(f, cap) for f in inv._gens[:2])
            assert shown(inv) == shown(ref_fold(n, cap, inv._gens))
            ident = Automorphism.identity(n, cap)
            for one_way in (res.normalizer.compose(inv), inv.compose(res.normalizer)):
                assert _in_window(one_way, res.x_window) == ident
        assert runs >= 2
