"""The x-window inside the product kernel.

A windowed product forms only the cells of x-degree <= the window.  Each
windowed call must equal the unwindowed call followed by truncate_x(window):
the series product, VectorField.apply and bracket, and Automorphism.apply on
Taylor data with x-image x.  exp and exp_ad, whose Lie series truncated each
term after it was formed, must equal that series.  Windowed normalize is
pinned by digests of its --json output.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from itertools import product

import pytest

from crossfield import (
    Automorphism,
    GaussianRational as G,
    LaurentPoly,
    MonomialIndex,
    TransverseSeries,
    VectorField,
    exp,
    exp_ad,
    lie,
)
from crossfield.cli import main

from helpers import (
    rand_field,
    rand_invertible_matrix,
    rand_one_flat,
    rand_series,
    rand_z_one_flat,
)

WINDOWS = range(9)


def shown(s):
    """Equality and the printed bytes, so a dict order cannot hide behind ==."""
    return s, str(s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_is_the_truncated_product(n):
    rng = random.Random(500 + n)
    for w in WINDOWS:
        for min_exp in (0, -2):
            f = rand_series(rng, n, 4, terms=4, min_exp=min_exp, max_exp=5)
            g = rand_series(rng, n, 4, terms=4, min_exp=min_exp, max_exp=5)
            f = f + f.scale(G(1, 2)) * TransverseSeries.x_series(n, 4, 3)  # several cells
            assert shown(lie._product(f, g, w)) == shown((f * g).truncate_x(w))


@pytest.mark.parametrize("n", [1, 2])
def test_field_apply_and_bracket_are_truncated(n):
    # d/dx components of x-degree 0 and Laurent coefficients: inside one
    # call the x-derivative comes before the product, so the cut is exact
    rng = random.Random(520 + n)
    for w in WINDOWS:
        for min_exp in (0, -2):
            X = rand_field(rng, n, 4, terms=3, min_exp=min_exp, max_exp=4)
            Y = rand_field(rng, n, 4, terms=3, min_exp=min_exp, max_exp=4)
            f = rand_series(rng, n, 4, terms=4, min_exp=min_exp, max_exp=4)
            assert shown(X.apply(f, w)) == shown(X.apply(f).truncate_x(w))
            assert shown(X.bracket(Y, w)) == shown(X.bracket(Y).truncate_x(w))


def ref_lie_series(step, start, t, window):
    """The Lie series with each term formed whole and then truncated."""
    acc = term = start
    k = 0
    while True:
        k += 1
        term = step(term).scale(t / k).truncate_x(window)
        if term.is_zero():
            return acc
        acc = acc + term


@pytest.mark.parametrize("n", [1, 2])
def test_exp_and_exp_ad_match_the_truncated_series(n):
    rng = random.Random(540 + n)
    coords = [TransverseSeries.x_series(n, 4)] + [
        TransverseSeries.variable(n, 4, i + 1) for i in range(n)
    ]
    for w in WINDOWS:
        for min_exp in (0, -1):
            W = rand_one_flat(rng, n, 4, min_exp=min_exp, max_exp=3)
            X = rand_field(rng, n, 4, terms=3, min_exp=min_exp, max_exp=4)
            t = G(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            phi = exp(W, t, x_window=w)
            want = [ref_lie_series(W.apply, s, t, w) for s in coords]
            assert [phi.img_x, *phi.img_z] == want
            assert str(phi) == str(Automorphism(want[0], want[1:]))
            got = exp_ad(W, X, x_window=w)
            assert shown(got) == shown(ref_lie_series(W.bracket, X.truncate_x(w), G(1), w))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_taylor_exp_in_a_window_is_the_truncated_exp(n):
    # no d/dx part and Taylor data: nothing lowers an x-degree, so the
    # windowed exponential is the exact one truncated (its x-image is x,
    # which window 0 keeps)
    rng = random.Random(560 + n)
    for w in WINDOWS:
        V = rand_z_one_flat(rng, n, 4, max_exp=3)
        phi = exp(V, 1, x_window=w)
        assert phi.img_x == TransverseSeries.x_series(n, 4)
        assert phi.img_z == tuple(c.truncate_x(w) for c in exp(V).img_z)


def windowed_maps(rng, n, cap):
    """Maps with x-image x and Taylor z-images that are not the identity:
    exp of a z-field, alone and after a constant linear map."""
    phi = exp(rand_z_one_flat(rng, n, cap, terms=3, max_exp=2))
    L = Automorphism.linear(rand_invertible_matrix(rng, n), cap)
    return phi, L.compose(phi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_apply_is_the_truncated_apply(n):
    rng = random.Random(580 + n)
    for phi in windowed_maps(rng, n, 5):
        assert any(img != TransverseSeries.variable(n, 5, i + 1) for i, img in enumerate(phi.img_z))
        fs = [rand_series(rng, n, 5, terms=5, max_exp=4) for _ in range(3)]
        for w in WINDOWS:
            for f in fs:
                # the same map, so the powers cached for one window serve
                # neither another window nor the unwindowed apply
                assert shown(phi.apply(f, w)) == shown(phi.apply(f).truncate_x(w))
        for f in fs:
            assert phi.apply(f) == Automorphism(phi.img_x, phi.img_z).apply(f)


def test_automorphism_window_refuses_what_it_cannot_cut():
    # a term cut early could come back under the window: through a negative
    # x-exponent, or through the x-derivatives of a moving x-image
    rng = random.Random(600)
    n, cap = 2, 4
    z1 = TransverseSeries.variable(n, cap, 1)
    laurent_f = TransverseSeries.monomial(n, cap, (1, 0), LaurentPoly.x(-1))
    phi = exp(rand_z_one_flat(rng, n, cap, max_exp=2))
    with pytest.raises(ValueError, match="Taylor"):
        phi.apply(laurent_f, 3)
    assert not phi.apply(laurent_f).is_taylor()  # without a window, Laurent data is fine
    laurent_map = exp(VectorField.monomial(n, cap, MonomialIndex((1, 0), 1), LaurentPoly.x(-1)))
    assert not laurent_map.img_z[0].is_taylor()
    with pytest.raises(ValueError, match="Taylor"):
        laurent_map.apply(z1, 3)
    moving = exp(VectorField(z1, rand_z_one_flat(rng, n, cap).b))
    assert moving.img_x != TransverseSeries.x_series(n, cap)
    with pytest.raises(ValueError, match="x-image"):
        moving.apply(z1, 3)


def test_window_zero_keeps_x_through_several_factors():
    X = rand_z_one_flat(random.Random(610), 1, 3, max_exp=1)
    X = X + VectorField.monomial(1, 3, MonomialIndex((0,), 1), LaurentPoly.x(1))
    phi = exp(X, 1, x_window=0).compose(exp(X, 1, x_window=0))
    folded = lie._from_factors(1, 3, phi._gens)
    x = TransverseSeries.x_series(1, 3)
    assert folded.img_x == x and folded.img_z == tuple(c.truncate_x(0) for c in phi.img_z)
    assert folded.invert().img_x == x


def test_window_narrowing_to_zero_keeps_x():
    # x*z1*dz1 + z1^2*dz1 at cap 3: at window 0 only z1^2*dz1 acts, and x
    # stays x; a map in window 3 does not compose with it
    z = TransverseSeries(1, 3, {(1,): LaurentPoly.x(1), (2,): LaurentPoly.one()})
    X = VectorField(TransverseSeries.zero(1, 3), [z])
    assert str(exp(X, x_window=0)) == "x -> x; z1 -> z1 + z1^2 + z1^3"
    with pytest.raises(ValueError, match="x-windows"):
        exp(X, x_window=0).compose(exp(X, x_window=3))
    phi = exp(X, x_window=0).compose(exp(X, x_window=0))
    folded = lie._from_factors(1, 3, phi._gens)
    assert str(folded) == "x -> x; z1 -> z1 + 2*z1^2 + 4*z1^3"
    z1 = TransverseSeries.variable(1, 3, 1)
    assert folded.apply(z1) == folded.img_z[0]


# --- windowed normalize, pinned by digest ------------------------------------


def _q(rng, span, den, nonzero=False):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if v or not nonzero:
            return v


def _coef(re, im=Fraction(0)):
    parts = [str(re)] if re else []
    if im:
        body = "i" if abs(im) == 1 else f"{abs(im)}*i"
        parts.append(("+" if im > 0 else "-") + body if parts else ("" if im > 0 else "-") + body)
    return "(" + ("".join(parts) or "0") + ")"


def _mono(e, K, dvar):
    parts = ["x" if e == 1 else f"x^{e}"] if e else []
    parts += [f"z{i}" if k == 1 else f"z{i}^{k}" for i, k in enumerate(K, 1) if k]
    return "*".join(parts + [dvar])


def windowed_document(i):
    """A seeded x-cap document: n 1-3, degree 3-6, x-cap 1-6, an
    x*z_j*dz_j term and 1-4 terms of x-exponent 0-3 (at most the x-cap)."""
    rng = random.Random(f"windowed:{i}")
    n, degree, xcap = rng.randint(1, 3), rng.randint(3, 6), rng.randint(1, 6)
    mu = [(_q(rng, 3, 3), _q(rng, 2, 5) if rng.random() < 0.6 else Fraction(0)) for _ in range(n)]
    terms = ["x*dx"] + [_coef(*m) + f"*z{j}*dz{j}" for j, m in enumerate(mu, 1)]
    j = rng.randint(1, n)
    terms.append(_coef(_q(rng, 2, 2, nonzero=True)) + f"*x*z{j}*dz{j}")
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(2, degree)
        cuts = [0] + sorted(rng.randint(0, d) for _ in range(n - 1)) + [d]
        K = tuple(cuts[t + 1] - cuts[t] for t in range(n))
        e = rng.randint(0, min(3, xcap))
        terms.append(_coef(_q(rng, 3, 3, nonzero=True)) + "*" + _mono(e, K, f"dz{rng.randint(1, n)}"))
    mu_text = ",".join(_coef(*m).strip("()") for m in mu)
    return (f"name: w{i}\nn: {n}\ndegree: {degree}\nx-cap: {xcap}\nmu: {mu_text}\n"
            "field: " + " + ".join(terms) + "\n")


def dense_document(d, windowed):
    """D_d: x*dx + 1/2*z1*dz1 - 3*z2*dz2 + i*z3*dz3 plus every z^M dz_j and
    its x* twin for 2 <= |M| <= d, normalized exactly.  D_d^x (windowed)
    adds x*z1*dz1 and is normalized at x-cap 8."""
    terms = ["x*dx", "1/2*z1*dz1", "-3*z2*dz2", "i*z3*dz3"] + ["x*z1*dz1"] * windowed
    for deg in range(2, d + 1):
        for M in sorted(K for K in product(range(deg + 1), repeat=3) if sum(K) == deg):
            for j in (1, 2, 3):
                terms += [_mono(0, M, f"dz{j}"), _mono(1, M, f"dz{j}")]
    header = f"name: D{d}{'x' * windowed}\nn: 3\ndegree: {d}\n" + "x-cap: 8\n" * windowed
    return header + "mu: 1/2,-3,i\nfield: " + " + ".join(terms) + "\n"


def normalize_json(path, text):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["normalize", "--field", str(path), "--json"])
    return rc, out.getvalue(), err.getvalue()


def test_windowed_documents_digest(tmp_path):
    # recorded before the window moved into the kernel, when every product
    # was formed whole and truncated afterwards
    h = hashlib.sha256()
    for i in range(300):
        rc, out, err = normalize_json(tmp_path / "w.vf", windowed_document(i))
        assert rc == 0 and '"certified": true' in out, err
        h.update(f"{rc}\n{out}\n{err}\n".encode())
    assert h.hexdigest() == "1ff6bee67c9375791757f1e23b30942db6741689aafad1f3727e539a5fd098ca"


def test_dense_windowed_field_digest(tmp_path):
    rc, out, _ = normalize_json(tmp_path / "d5x.vf", dense_document(5, windowed=True))
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5a6e1db412745647f9f2f7d7b0d55e74035e14b6dea05f3026241b18c1822bbc"


def test_dense_exact_field_digest(tmp_path):
    # recorded before apply built each z'^K with one product
    rc, out, _ = normalize_json(tmp_path / "d5.vf", dense_document(5, windowed=False))
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5cf6e3d6afe4692204ac13ec18c5da5d95b0251a48cd6b037a4e1763f681905d"
