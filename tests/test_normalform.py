import json
import random
from fractions import Fraction

import pytest

from crossfield import lie, normalform
from crossfield.coeff import GaussianRational as G
from crossfield.coeff import LaurentPoly
from crossfield.lie import Automorphism, VectorField, exp_ad
from crossfield.normalform import (
    CentralizerElement,
    CentralizerResult,
    LinearPartError,
    NormalFormResult,
    ResonantTerm,
    _check_support,
    _diagonal_step,
    _intertwines,
    _linear_matrix_or_error,
    _needs_x_window,
    centralizer_check,
    centralizer_solve,
    normalize,
)
from crossfield.parsing import parse_field
from crossfield.resonance import as_eigenvalues, pairing
from crossfield.series import MonomialIndex, TransverseSeries, iter_exponents, iter_l_indices

from helpers import (
    abs_bound,
    euler_apply,
    rand_gq_nonzero,
    rand_laurent,
    rand_mu,
    rand_series,
    rand_x_normalized,
    ref_fold,
)
from test_x_window import _mono, dense_document, normalize_json


def mono(n, cap, K, j, coeff):
    return VectorField.monomial(n, cap, MonomialIndex(K, j), coeff)


# --- reference oracles: the sweep before it visited only the present slots
# and took its upper levels in one bracket each, and the centralizer before
# it decided integrality over the integers ---------------------------------


def ref_normalize(X, mu, x_cap=None):
    """normalize's sweep one slot at a time, over every slot of
    iter_l_indices(n, 0, cap - 1) with one exp_ad per step, the normalizer
    folded one factor at a time, and the resonant-term readout and
    certificate.  Validation as in normalize."""
    mu = as_eigenvalues(mu)
    n, cap = X.n, X.cap
    C, eps = _linear_matrix_or_error(X, mu)
    window = x_cap if _needs_x_window(C) else None
    if x_cap is not None:
        _check_support(X, x_cap)

    field = X if window is None else X.truncate_x(window)
    factors = []
    steps = []
    for idx in iter_l_indices(n, 0, cap - 1):
        g = field.coefficient_at(idx)
        if g.is_zero():
            continue
        s = pairing(mu, idx.K)
        f, residual = g.euler_solve(s)
        if f.is_zero():
            continue
        W = VectorField.monomial(n, cap, idx, f)
        field = exp_ad(W, field, x_window=window)
        factors.append((W, G.ONE, window))
        steps.append(idx)
        if field.coefficient_at(idx) != residual:
            raise AssertionError(
                f"elimination at {idx} left an unexpected coefficient"
            )

    if field.a != TransverseSeries.x_series(n, cap):
        raise AssertionError("the sweep disturbed the d/dx component")
    normalizer = ref_fold(n, cap, factors)

    resonant = []
    for idx, poly in field.l_terms():
        K, j = idx.K, idx.j
        if K == (0,) * n:
            if poly != LaurentPoly.constant(mu[j - 1]):
                raise AssertionError("diagonal slot deviates from mu")
            continue
        s = pairing(mu, K)
        if not s.is_integer():
            raise AssertionError(f"nonresonant coefficient survived at {idx}")
        s_int = int(s.re)
        if not (poly.is_monomial() and poly.support() == [-s_int]):
            raise AssertionError(f"resonant slot {idx} is not a pure x^{-s_int} term")
        coeff = poly.coefficient(-s_int)
        if (
            s_int == 0
            and sum(K) == 0
            and j >= 2
            and K == tuple(1 if p == j - 2 else (-1 if p == j - 1 else 0) for p in range(n))
        ):
            continue  # adjacent Jordan entry, reported through eps
        resonant.append(ResonantTerm(K, j, -s_int, coeff))
    certified = _intertwines(normalizer, X, field, window)
    object.__setattr__(normalizer, "_gens", tuple(factors))
    return NormalFormResult(
        field, normalizer, tuple(resonant), eps, mu, tuple(steps), window, certified
    )


def ref_centralizer_solve(mu, x_window, degree):
    mu = as_eigenvalues(mu)
    lo, hi = int(x_window[0]), int(x_window[1])
    n = len(mu)
    cap = degree
    elements = [
        CentralizerElement("euler", None, 0, VectorField.euler(n, cap))
    ]
    for idx in iter_l_indices(n, 0, degree - 1):
        s = pairing(mu, idx.K)
        if not s.is_integer():
            continue
        l = -int(s.re)
        if not lo <= l <= hi:
            continue
        fieldv = VectorField.monomial(n, cap, idx, LaurentPoly.x(l))
        elements.append(CentralizerElement("monomial", idx, l, fieldv))
    return CentralizerResult(mu, (lo, hi), degree, tuple(elements))


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



FIELD_A = "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + z1^2*dz1 + x*z1*z2*dz2 + z2^2*dz1 + z1^3*dz2"
FIELD_B = (
    "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + i*z3*dz3 + z1^2*dz1 + x*z1*z2*dz2"
    " + z2^2*dz3 + z1*z3*dz2"
)
# equal eigenvalues with the adjacent entry z1 dz2: the step at z2^2 dz1
# (slot K = (-1, 2), j = 1) brackets with it into z1 z2 dz1 and z2^2 dz2,
# slots of the same degree later in the order that the input does not have
JORDAN = "x*dx - z1*dz1 - z2*dz2 + z1*dz2 + z2^2*dz1"


def sweep_cases():
    """(X, mu, x_cap): fields A and B, seeded exact fields (Laurent and
    triangular off-diagonal terms among them), resonant eigenvalues, the
    Jordan input and seeded windowed fields."""
    for text, n, cap in ((FIELD_A, 2, 6), (FIELD_B, 3, 5), (JORDAN, 2, 5)):
        X = parse_field(text, n, cap)
        yield X, [X.constant_linear_matrix()[i][i] for i in range(n)], None
    rng = random.Random(59)
    for k in range(12):
        n = 1 + k % 3
        cap = rng.choice([3, 4, 5]) if n < 3 else 3
        mu = rand_mu(rng, n, span=3, den=2)
        X = rand_x_normalized(rng, mu, cap, terms=3, max_exp=2)
        X = X + VectorField(
            TransverseSeries.zero(n, cap),
            [rand_series(rng, n, cap, terms=1, min_deg=2, min_exp=-2, max_exp=0) for _ in range(n)],
        )
        if n > 1:
            X = X + mono(n, cap, (1, -1) + (0,) * (n - 2), 2, rand_laurent(rng, 1, 2, 1))
        yield X, mu, None
    for mu in ([G(-1)], [G(1), G(-1)], [G(Fraction(1, 2)), G(Fraction(-1, 2))], [G(-1), G(-2)]):
        n, cap = len(mu), 5
        yield rand_x_normalized(rng, mu, cap, terms=4, max_exp=3), mu, 6
    for _ in range(4):
        n = rng.choice([1, 2])
        mu = rand_mu(rng, n, span=2, den=1)
        X = rand_x_normalized(rng, mu, 4, terms=2, max_exp=1)
        X = X + mono(n, 4, (0,) * n, 1, LaurentPoly({1: rand_gq_nonzero(rng)}))
        yield X, mu, rng.randint(3, 6)


class TestPresentSlotWalk:
    def test_walk_matches_full_slot_loop(self):
        modes = set()
        resonant = 0
        for X, mu, x_cap in sweep_cases():
            res = normalize(X, mu, x_cap=x_cap)
            ref = ref_normalize(X, mu, x_cap)
            assert res.steps == ref.steps
            assert res.normal_field == ref.normal_field
            assert res.normalizer == ref.normalizer
            assert res.normalizer._gens == ref.normalizer._gens
            assert res.resonant == ref.resonant
            assert res.certified and ref.certified
            modes.add(res.x_window is None)
            resonant += bool(ref.resonant)
        assert modes == {True, False}
        assert resonant >= 4

    def test_jordan_step_creates_slots_visited_later(self):
        X = parse_field(JORDAN, 2, 5)
        res = normalize(X, [G(-1), G(-1)])
        present = {idx for idx, _ in X.l_terms()}
        first = res.steps[0]
        assert res.eps == (1,) and first == MonomialIndex((-1, 2), 1)
        created = [
            idx for idx in res.steps
            if idx not in present and sum(idx.K) == sum(first.K)
        ]
        assert MonomialIndex((0, 1), 1) in created and MonomialIndex((0, 1), 2) in created
        assert res.normal_field == parse_field("x*dx - z1*dz1 - z2*dz2 + z1*dz2", 2, 5)


def level_document(i):
    """A seeded normalize document: n 1-3, degree 3-7, generic or resonant
    mu, exact (Laurent) or x-cap mode, and 2-7 terms of degree 2 up to the
    degree, most of them in the upper half.  When n > 1, a third of the
    documents carry a Jordan entry z_{i-1}*dz_i and a third a resonant
    x^m*z_a*dz_b (a < b, mu_b = mu_a + m) that survives the sweep."""
    rng = random.Random(f"level:{i}")
    n = rng.randint(1, 3)
    degree = rng.randint(3, 7)
    window = rng.randint(2, 6) if rng.random() < 0.35 else None
    if rng.random() < 0.5:
        mu = [rand_gq_nonzero(rng, 3, 3) for _ in range(n)]
    else:
        mu = [G(Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.choice([1, 1, 2]))) for _ in range(n)]
    terms = []
    kind = rng.choice(["plain", "jordan", "offdiag"]) if n > 1 else "plain"
    if kind == "jordan":
        b = rng.randint(2, n)
        mu[b - 1] = mu[b - 2]
        terms.append(f"z{b - 1}*dz{b}")
    elif kind == "offdiag":
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        m = rng.randint(1, 2)
        mu[b - 1] = mu[a - 1] + m
        terms.append(f"({rand_gq_nonzero(rng)})*" + _mono(m, [int(p == a - 1) for p in range(n)], f"dz{b}"))
    if window is not None:
        j = rng.randint(1, n)
        terms.append(f"({rand_gq_nonzero(rng, 2, 2)})*x*z{j}*dz{j}")
    for _ in range(rng.randint(2, 7)):
        d = rng.randint(2, degree) if rng.random() < 0.3 else rng.randint(degree // 2 + 1, degree)
        cuts = [0] + sorted(rng.randint(0, d) for _ in range(n - 1)) + [d]
        K = [cuts[t + 1] - cuts[t] for t in range(n)]
        e = rng.randint(0, min(2, window)) if window is not None else rng.randint(-1, 2)
        terms.append(f"({rand_gq_nonzero(rng)})*x^{e}*" + _mono(0, K, f"dz{rng.randint(1, n)}"))
    header = f"n: {n}\ndegree: {degree}\n" + (f"x-cap: {window}\n" if window is not None else "")
    field = " + ".join(["x*dx"] + [f"({m})*z{j}*dz{j}" for j, m in enumerate(mu, 1)] + terms)
    return header + f"mu: {','.join(map(str, mu))}\nfield: {field}\n"


class TestUpperLevels:
    """normalize takes each slot degree k >= 1 with 2k >= cap in one
    bracket, and the normalizer's fold applies a run of such factors as one
    field; ref_normalize steps one slot and folds one factor at a time."""

    def oracle_json(self, monkeypatch, path, text):
        real = normalize_json(path, text)
        monkeypatch.setattr(normalform, "normalize", ref_normalize)
        ref = normalize_json(path, text)
        monkeypatch.undo()
        return real, ref

    def test_seeded_documents_match_the_per_slot_sweep(self, monkeypatch, tmp_path):
        seen = {"jordan": 0, "offdiag": 0, "window": 0, "upper": 0}
        for i in range(200):
            text = level_document(i)
            real, ref = self.oracle_json(monkeypatch, tmp_path / "l.vf", text)
            assert real == ref, text
            rc, out, _ = real
            assert rc == 0 and '"certified": true' in out, text
            report = json.loads(out)
            seen["jordan"] += 1 in report["eps"]
            seen["offdiag"] += any(sum(t["K"]) == 0 for t in report["resonant"])
            seen["window"] += report["x_window"] is not None
            seen["upper"] += sum(2 * sum(s["K"]) >= report["degree"] for s in report["steps"]) >= 2
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("d,windowed", [(5, False), (6, False), (5, True)])
    def test_dense_documents_match_the_per_slot_sweep(self, monkeypatch, tmp_path, d, windowed):
        real, ref = self.oracle_json(monkeypatch, tmp_path / "d.vf", dense_document(d, windowed))
        assert real == ref and real[0] == 0


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

    # the window must hold the d/dx component x, in either mode; x_cap 0
    # used to fail on x's support as if it were a z-coefficient's
    @pytest.mark.parametrize("x_cap", [0, -1])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_x_cap_below_x_degree_rejected(self, x_cap, windowed):
        X = semisimple([G(-1)], 3)
        if windowed:
            X = X + mono(1, 3, (0,), 1, LaurentPoly.x())
        with pytest.raises(LinearPartError, match=f"x-degree of the d/dx component x; got {x_cap}$"):
            normalize(X, [G(-1)], x_cap=x_cap)
        assert normalize(X, [G(-1)], x_cap=1).certified

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
            again = normalize(res.normal_field, mu, x_cap=64)
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
            diff = res.normalizer.pushforward(X) - res.normal_field
            assert diff.is_zero()

    @pytest.mark.parametrize("text,x_cap", [
        ("x*dx - 1/2*z1*dz1 + z1^2*dz1 + 3*z1^3*dz1", None),
        ("x*dx - z1*dz1 + x*z1*dz1 + x*z1^2*dz1 + 2*x^2*z1^3*dz1", 4),
    ], ids=["exact", "window"])
    def test_certificate_rejects_a_perturbed_normalizer(self, text, x_cap):
        # the certificate normalize() runs holds for its normalizer and fails
        # once one coefficient of the normalizer is off
        cap = 4
        X = parse_field(text, 1, cap)
        res = normalize(X, [G(Fraction(-1, 2) if x_cap is None else -1)], x_cap=x_cap)
        assert (res.x_window is None) == (x_cap is None) and res.steps
        phi = res.normalizer
        assert _intertwines(Automorphism(phi.img_x, phi.img_z), X, res.normal_field, res.x_window)
        off = phi.img_z[0] + TransverseSeries.monomial(1, cap, (3,), LaurentPoly.x(1))
        bad = Automorphism(phi.img_x, [off])
        assert not _intertwines(bad, X, res.normal_field, res.x_window)

    def test_planted_defect_detected(self):
        n, cap = 1, 4
        X = semisimple([G(-1)], cap)
        bad = X + mono(n, cap, (3,), 1, LaurentPoly.one())
        diff = Automorphism.identity(n, cap).pushforward(X) - bad
        assert not diff.is_zero()
        assert abs_bound(diff) == Fraction(1)


# --- the certificate against the two-series route, kept as its oracle -------


def ref_intertwines(phi, X, Y, window):
    """The certificate as it was before it read one accumulator: phi(X_c)
    and Y(phi_c) built as canonical series and subtracted, coordinate by
    coordinate."""
    pieces = [(X.a, phi.img_x)] + list(zip(X.b, phi.img_z))
    return all((phi.apply(comp, window) - Y.apply(img, window)).is_zero() for comp, img in pieces)


def perturbed(phi, i, K, e, delta):
    """A bare map: phi's images with delta*x^e*z^K added to z-image i."""
    img = list(phi.img_z)
    img[i] = img[i] + TransverseSeries.monomial(phi.n, phi.cap, K, LaurentPoly({e: delta}))
    return Automorphism(phi.img_x, img)


def side_cells(phi, X, Y, window):
    """[(phi's cells, -Y's cells)] per coordinate: the raw accumulators of
    the two sides, each filled on its own."""
    out = []
    for comp, img in [(X.a, phi.img_x)] + list(zip(X.b, phi.img_z)):
        left, right = {}, {}
        phi._apply_into(left, comp, 1, window)
        Y._apply_into(right, img, -1, window)
        out.append((left, right))
    return out


# n = 1 at cap 4 with real data: the normal field is x*dx - 1/2*z1*dz1
REAL_FIELD = "x*dx - 1/2*z1*dz1 + z1^2*dz1 + 3*z1^3*dz1"


class TestCertificate:
    def test_verdicts_match_the_two_series_route(self):
        rng = random.Random(71)
        seen = {"exact": 0, "window": 0, "rejected": 0, "passed": 0}
        for X, mu, x_cap in [*sweep_cases(), *map(diagonal_case, range(12))]:
            res = normalize(X, mu, x_cap=x_cap)
            phi, Y, w = res.normalizer, res.normal_field, res.x_window
            bare = Automorphism(phi.img_x, phi.img_z)
            assert _intertwines(bare, X, Y, w) and ref_intertwines(bare, X, Y, w)
            seen["exact" if w is None else "window"] += 1
            deltas = [rand_gq_nonzero(rng), G(0, Fraction(rng.randint(1, 4), 7)), G(Fraction(1, 7))]
            for delta in deltas:
                K = rng.choice(list(iter_exponents(X.n, 1, X.cap)))
                e = rng.randint(0, 2 if w is None else min(w, 2))
                bad = perturbed(phi, rng.randrange(X.n), K, e, delta)
                verdict = _intertwines(bad, X, Y, w)
                assert verdict == ref_intertwines(bad, X, Y, w)
                seen["passed" if verdict else "rejected"] += 1
        assert seen["exact"] >= 10 and seen["window"] >= 12 and seen["rejected"] >= 60, seen

    def test_purely_imaginary_defect(self):
        X = parse_field(REAL_FIELD, 1, 4)
        res = normalize(X, [G(Fraction(-1, 2))])
        bad = perturbed(res.normalizer, 0, (4,), 0, G(0, Fraction(1, 7)))
        defect = bad.apply(X.b[0]) - res.normal_field.apply(bad.img_z[0])
        assert str(defect) == "3/14*i*z1^4"  # every real part cancels
        assert not ref_intertwines(bad, X, res.normal_field, None)
        assert not _intertwines(bad, X, res.normal_field, None)

    def test_defect_in_a_cell_of_two_denominators(self):
        X = parse_field(REAL_FIELD, 1, 4)
        res = normalize(X, [G(Fraction(-1, 2))])
        bad = perturbed(res.normalizer, 0, (3,), 0, G(Fraction(2, 5)))
        met = [
            (left[M][e][2], right[M][e][2])
            for left, right in side_cells(bad, X, res.normal_field, None)
            for M in left.keys() & right.keys()
            for e in left[M].keys() & right[M].keys()
            if left[M][e][2] != right[M][e][2]
        ]
        assert met == [(10, 2)]  # z1^4: -152/10 + 32/2 = 4/5
        assert not ref_intertwines(bad, X, res.normal_field, None)
        assert not _intertwines(bad, X, res.normal_field, None)


# --- the x-window's diagonal steps in closed form -----------------------------


def diagonal_case(i):
    """A seeded windowed field at x-cap 1 + i % 8: n 1-3, degree 3-5, each
    diagonal entry mu_j + Taylor terms of x-degree 1-2, and higher terms,
    among them (for n > 1) terms of each b_j free of z_j."""
    rng = random.Random(f"diagonal:{i}")
    n, cap, x_cap = rng.randint(1, 3), rng.randint(3, 5), 1 + i % 8
    mu = rand_mu(rng, n, span=3, den=2)
    X = rand_x_normalized(rng, mu, cap, terms=3, max_exp=min(x_cap, 3))
    for j in range(1, n + 1):
        X = X + mono(n, cap, (0,) * n, j, rand_laurent(rng, 1, min(x_cap, 2), terms=2))
        if n > 1:
            other = rng.choice([p for p in range(n) if p != j - 1])
            K = tuple(2 if p == other else (-1 if p == j - 1 else 0) for p in range(n))
            X = X + mono(n, cap, K, j, rand_laurent(rng, 0, min(x_cap, 2), terms=1))
    return X, mu, x_cap


def free_of_z_j(field, j):
    """The number of terms of b_j (j 0-based) free of z_j."""
    return sum(1 for M in field.b[j]._terms if not M[j])


class TestDiagonalSteps:
    def test_step_matches_exp_ad(self):
        free = 0
        for i in range(48):
            X, mu, w = diagonal_case(i)
            rng = random.Random(f"diagonal-step:{i}")
            field = X.truncate_x(w)
            j = rng.randrange(X.n)
            f = LaurentPoly.x(1, rand_gq_nonzero(rng)) + rand_laurent(rng, 2, 3, terms=1)
            W = VectorField.monomial(X.n, X.cap, MonomialIndex((0,) * X.n, j + 1), f)
            assert lie._diagonal(W, w) == (j, f)
            got = _diagonal_step(field, j, f.truncate_x(w), w)
            want = exp_ad(W, field, x_window=w)
            assert (got, str(got)) == (want, str(want)), (i, str(X))
            free += free_of_z_j(field, j)
        assert free >= 30

    def test_normalizer_and_inverse_match_the_per_factor_fold(self):
        diagonal = 0
        for i in range(32):
            X, mu, x_cap = diagonal_case(i)
            res = normalize(X, mu, x_cap=x_cap)
            phi = res.normalizer
            assert res.x_window == x_cap
            assert phi == ref_fold(X.n, X.cap, phi._gens)
            inv = phi.invert()
            assert {t for _, t, _ in inv._gens} == {G(-1)}
            assert inv == ref_fold(X.n, X.cap, inv._gens)
            diagonal += sum(lie._diagonal(W, w) is not None for W, _, w in phi._gens)
        assert diagonal >= 40

    def test_only_diagonal_factors_in_a_window_take_the_closed_form(self):
        n, cap = 2, 4
        f = LaurentPoly({1: G(1), 2: G(Fraction(1, 3))})
        W = mono(n, cap, (0, 0), 2, f)
        assert lie._diagonal(W, 3) == (1, f)
        assert lie._diagonal(W, None) is None  # the exact mode has no window to cut at
        assert lie._diagonal(mono(n, cap, (0, 0), 2, f + LaurentPoly.one()), 3) is None  # f(0) != 0
        assert lie._diagonal(mono(n, cap, (0, 0), 2, LaurentPoly.x(-1)), 3) is None  # Laurent
        off = mono(n, cap, (1, -1), 2, LaurentPoly.x())
        assert lie._diagonal(W + off, 3) is None  # an off-diagonal term too
        assert lie._diagonal(W + mono(n, cap, (0, 0), 1, f), 3) is None  # two directions


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
                assert euler_apply(b, s).is_zero()
                assert exp(W).pushforward(S) == S
            # a coefficient outside the kernel never gives a symmetry
            b_bad = rand_laurent(rng, 0, 3, terms=1)
            if b_bad.is_zero() or euler_apply(b_bad, s).is_zero():
                continue
            W_bad = VectorField.monomial(n, cap, idx, b_bad)
            assert exp(W_bad).pushforward(S) != S


class TestCentralizer:
    def test_imaginary_mu(self):
        cr = centralizer_solve([G(0, 1)], (-5, 5), 4)
        assert [str(e.field) for e in cr.elements] == ["x*dx", "z1*dz1"]
        assert not cr.negative

    def test_negative_integer_mu(self):
        cr = centralizer_solve([G(-1)], (-5, 5), 4)
        texts = [str(e.field) for e in cr.elements]
        assert "x*z1^2*dz1" in texts and "x^2*z1^3*dz1" in texts
        assert not cr.negative

    def test_negative_resonance_shows_up(self):
        cr = centralizer_solve([G(Fraction(1, 2)), G(-3)], (-5, 5), 5)
        assert cr.negative

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

    def test_matches_pairing_walk(self):
        rng = random.Random(60)
        seen = set()
        cases = [[G(0)], [G(0, 1), G(0, -1)], [G(-1), G(-1)], [G(1, 2), G(0), G(1, 2)]]
        cases += [rand_mu(rng, rng.choice([1, 2, 3, 4]), span=3, den=3, imag_prob=0.4) for _ in range(30)]
        cases += [[G(Fraction(1, 300))]]  # test_far_witnesses_answer_quickly's input
        for mu in cases:
            degree = 5 if len(mu) < 4 else 3
            got = centralizer_solve(mu, (-4, 4), degree)
            assert got == ref_centralizer_solve(mu, (-4, 4), degree), mu
            seen.add(any(e.x_exp != 0 for e in got.elements))
        assert seen == {True, False}

    def test_from_normal_form_result(self):
        X = semisimple([G(-1)], 4)
        res = normalize(X, [G(-1)])
        cr = centralizer_solve(res.mu, (-3, 3), 4)
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
