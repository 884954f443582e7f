"""Deterministic random generators shared by the test modules."""

from fractions import Fraction

from crossfield import (
    Automorphism,
    GaussianRational,
    LaurentPoly,
    MonomialIndex,
    TransverseSeries,
    VectorField,
    exp,
    lie,
)
from crossfield.coeff import _gq, _lp_raw, as_scalar
from crossfield.series import iter_exponents


def rand_fraction(rng, span=3, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_gq(rng, span=3, den=3, imag_prob=0.5):
    im = rand_fraction(rng, span, den) if rng.random() < imag_prob else Fraction(0)
    return GaussianRational(rand_fraction(rng, span, den), im)


def rand_gq_nonzero(rng, span=3, den=3, imag_prob=0.5):
    while True:
        v = rand_gq(rng, span, den, imag_prob)
        if not v.is_zero():
            return v


def rand_laurent(rng, min_exp=-2, max_exp=2, terms=2, span=3, den=3):
    data = {}
    for _ in range(terms):
        data[rng.randint(min_exp, max_exp)] = rand_gq(rng, span, den)
    return LaurentPoly(data)


def rand_series(rng, n, cap, terms=3, min_deg=0, min_exp=0, max_exp=2):
    monos = [K for K in iter_exponents(n, min_deg, cap)]
    if not monos:  # min_deg > cap: only the zero series, and nothing drawn
        return TransverseSeries.zero(n, cap)
    data = {}
    for _ in range(terms):
        K = rng.choice(monos)
        data[K] = rand_laurent(rng, min_exp, max_exp, terms=1)
    return TransverseSeries(n, cap, data)


def rand_field(rng, n, cap, terms=2, min_deg=0, min_exp=0, max_exp=2):
    """Random m-preserving derivation: z-components in m, d/dx free.

    Degree-lowering derivations (constant d/dz terms) do not descend to the
    truncated quotient, so every identity test stays inside this class.
    """
    a = rand_series(rng, n, cap, terms, min_deg, min_exp, max_exp)
    b = [
        rand_series(rng, n, cap, terms, max(min_deg, 1), min_exp, max_exp)
        for _ in range(n)
    ]
    return VectorField(a, b)


def rand_one_flat(rng, n, cap, terms=2, min_exp=0, max_exp=2):
    """a in m, b_i in m^2: 1-flat, hence nilpotent at the cap."""
    a = rand_series(rng, n, cap, terms, min_deg=1, min_exp=min_exp, max_exp=max_exp)
    b = [
        rand_series(rng, n, cap, terms, min_deg=2, min_exp=min_exp, max_exp=max_exp)
        for _ in range(n)
    ]
    return VectorField(a, b)


def rand_z_one_flat(rng, n, cap, terms=2, min_exp=0, max_exp=2):
    """Like rand_one_flat but with no d/dx component (x-normalized exp input)."""
    z = TransverseSeries.zero(n, cap)
    b = [
        rand_series(rng, n, cap, terms, min_deg=2, min_exp=min_exp, max_exp=max_exp)
        for _ in range(n)
    ]
    return VectorField(z, b)


def rand_commuting_pair(rng, cap, terms=2):
    """Commuting nilpotent fields on n = 2: f(z2) d/dz1 brackets vanish."""
    n = 2
    z = TransverseSeries.zero(n, cap)

    def comp():
        data = {}
        for _ in range(terms):
            k = rng.randint(2, cap)
            data[(0, k)] = rand_laurent(rng, 0, 2, terms=1)
        return TransverseSeries(n, cap, data)

    X = VectorField(z, [comp(), z])
    Y = VectorField(z, [comp(), z])
    return X, Y


def rand_mu(rng, n, span=3, den=2, imag_prob=0.4):
    return tuple(rand_gq(rng, span, den, imag_prob) for _ in range(n))


def rand_invertible_matrix(rng, n, span=2):
    """An n x n Q matrix with nonzero determinant, n <= 3."""
    if n > 3:
        raise NotImplementedError
    while True:
        M = [
            [GaussianRational(rand_fraction(rng, span, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        if not _det(M).is_zero():
            return M


def _det(M):
    """Determinant by cofactor expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    det = GaussianRational(0)
    for j, c in enumerate(M[0]):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = c * _det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def rand_x_normalized(rng, mu, cap, terms=3, max_exp=2):
    """x d/dx + diag(mu) + higher-order Taylor z-terms (m^2)."""
    n = len(mu)
    X = VectorField.semisimple(mu, cap)
    extra = [
        rand_series(rng, n, cap, terms, min_deg=2, min_exp=0, max_exp=max_exp)
        for _ in range(n)
    ]
    return X + VectorField(TransverseSeries.zero(n, cap), extra)


def rand_x_normalized_automorphism(rng, n, cap, terms=2, max_exp=1):
    """linear(invertible constant) o exp(m^2 z-field): x-normalized."""
    A = Automorphism.linear(rand_invertible_matrix(rng, n), cap)
    Z = rand_z_one_flat(rng, n, cap, terms, max_exp=max_exp)
    return A.compose(exp(Z))


def fields_equal_window(X, Y, window):
    return X.truncate_x(window) == Y.truncate_x(window)


# -- oracles kept out of the library: no caller there needs them -------------


def conjugate(v):
    """The complex conjugate of a Q[i] scalar."""
    return _gq(v._a, -v._b, v._d)


def derivative(f):
    """d/dx of a LaurentPoly, exact on negative exponents too."""
    # c * e is nonzero for nonzero c and e
    return _lp_raw({e - 1: c * e for e, c in f._terms.items() if e})


def euler_apply(f, s):
    """Apply the shifted Euler operator (x*d/dx + s) to a LaurentPoly."""
    s = as_scalar(s)
    data = {}
    for e, c in f._terms.items():
        v = c * (s + e)
        if v != 0:
            data[e] = v
    return _lp_raw(data)


def lie_series(step, start, t, x_window):
    """start + sum_{k>=1} term_k with term_k = step(term_{k-1}, x_window, t/k),
    up to the first zero term: the oracles' Lie-series driver.

    step(s, x_window, c) is c * W(s) or c * [W, s], each formed whole by
    the public apply or bracket, cut at x_window, and then scaled.
    """
    acc = term = start
    for k in range(1, lie._GUARD + 1):
        term = step(term, x_window, t / k)
        if term.is_zero():
            return acc
        acc = acc + term
    raise lie.CertificateError("Lie series failed to terminate; nilpotency is violated")


def ref_fold(n, cap, factors):
    """f_k o ... o f_1 from its Lie factors, each on its own: one Lie series
    per exp factor and one substitution per linear factor, innermost first.
    Each Lie-series term is the public W.apply of the last, scaled by t/k
    as a whole series.  The map has no factors."""
    images = [TransverseSeries.x_series(n, cap)] + [
        TransverseSeries.variable(n, cap, i + 1) for i in range(n)
    ]
    for W, t, w in factors:
        if t is None:
            L = Automorphism.linear(W, cap)
            images = [L.apply(s) for s in images]
        else:
            def step(s, w, c, W=W):
                return W.apply(s, w).scale(c)

            images = [lie_series(step, s, t, w) for s in images]
    return Automorphism(images[0], images[1:])


def ref_apply(phi, f):
    """Substitute phi's images into f with two full products per (term K of
    f, Taylor order m): z'^K grown from 1 and u^m rebuilt for every K.
    Nothing is kept between calls, or read from phi but its images."""
    n, cap = phi.n, phi.cap
    one = TransverseSeries.constant(n, cap, LaurentPoly.one())
    u = phi.img_x - TransverseSeries.x_series(n, cap)
    acc = TransverseSeries.zero(n, cap)
    for K, poly in f.terms():
        zpart = one
        for i, k in enumerate(K):
            for _ in range(k):
                zpart = zpart * phi.img_z[i]
        if u.is_zero():
            acc = acc + zpart.scale(poly)
            continue
        upow = one
        deriv = poly
        fact = 1
        for m in range(cap + 1):
            if m:
                upow = upow * u
                fact *= m
                deriv = derivative(deriv)
                if upow.is_zero() or deriv.is_zero():
                    break
            acc = acc + upow.scale(deriv.scale(Fraction(1, fact))) * zpart
    return acc


def ref_log(phi):
    """log(phi) by the series loop on the coordinates, each step
    u <- phi.apply(u) - u and each partial sum acc + u.scale(+-1/m) formed
    as a series."""
    n, cap = phi.n, phi.cap
    comps = []
    for coord in lie._coordinates(n, cap):
        acc = TransverseSeries.zero(n, cap)
        u = phi.apply(coord) - coord
        m = 1
        while not u.is_zero():
            acc = acc + u.scale(Fraction(1 if m % 2 else -1, m))
            u = phi.apply(u) - u
            m += 1
        comps.append(acc)
    return VectorField(comps[0], comps[1:])


def scale_series(X, f):
    """f * X, multiplication of a field by a ring element."""
    return VectorField(X.a * f, [comp * f for comp in X.b])


def linear_matrix(h):
    """The z-linear coefficients of a HolonomyJet as an n x n matrix."""
    out = []
    for i in range(1, h.n + 1):
        row = []
        for j in range(h.n):
            K = tuple(1 if p == j else 0 for p in range(h.n))
            row.append(h.coefficient(i, K))
        out.append(row)
    return out


def abs_bound(v) -> Fraction:
    """max(|re|, |im|) over the Q[i] coefficients of a scalar, LaurentPoly,
    TransverseSeries or VectorField; 0 for zero."""
    if isinstance(v, GaussianRational):
        return Fraction(max(abs(v._a), abs(v._b)), v._d)
    if isinstance(v, VectorField):
        parts = [v.a, *v.b]
    else:
        parts = [c for _, c in v.terms()]
    return max((abs_bound(p) for p in parts), default=Fraction(0))


def truncate(s, cap):
    """The series s reduced modulo m^{cap+1}, for cap <= s.cap."""
    if cap >= s.cap:
        if cap == s.cap:
            return s
        raise ValueError("cannot extend a truncated series")
    return TransverseSeries(s.n, cap, dict(s.terms()))
