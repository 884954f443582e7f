"""Normal forms by homological elimination, with certified conjugations.

normalize() sweeps the monomial slots (K, j) of a field x d/dx + (triangular
linear z-part with diagonal mu) + higher terms in ascending graded-lex pair
order.  At each slot it splits the coefficient g through the shifted Euler
operator (x d/dx + <mu,K>) f = g - residual and conjugates by
exp(f(x) z^K (z_j d/dz_j)); the residual -- supported exactly on x^{-<mu,K>}
when <mu,K> is an integer -- is what survives.  Brackets of the eliminating
monomials with everything already in the field land strictly later in the
pair order (this is why the linear part must sit in the triangular cone
z_a d/dz_b, a <= b), so a single ascending sweep terminates with the
resonant monomials x^{-<mu,K>} z^K L(e_j), <mu,K> in Z_{<=0}, plus the
linear reference part.  The sweep visits only the slots that hold a term:
after each one it rescans the field for the least present slot above it,
which also finds the slots a step has just created.  Each step records its
Lie factor (W, 1, window), and lie._from_factors folds the normalizer
exp(W_k) o ... o exp(W_1) from them once the sweep is done, one derivative
and one one-term product per term.

x-dependent diagonal linear terms exponentiate to transcendental scalings
(z -> e^{f(x)} z), so fields carrying them are processed in the x-truncated
ring through degree x_cap, where the whole story is polynomial again and the
retained window is exact; fields without them run fully exact, Laurent
coefficients included.  The window lives in the product kernel: the sweep's
brackets, the normalizer's Lie series and the certificate's substitutions
form only the cells of x-degree <= x_cap, never a cell they would then
truncate.  That is exact because the mode requires Taylor data and the d/dx
component x, so no factor has a negative x-exponent and no x-image moves.

Every run is certified through the substitution route, independent of the
adjoint series the sweep uses: normalize() checks the intertwining relation
Phi o X = X_normal o Phi on the coordinates.  A caller who wants the
residual field itself forms Phi.pushforward(X) - X_normal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import GaussianRational, LaurentPoly
from .lie import Automorphism, CertificateError, VectorField, _from_factors, exp_ad
from .resonance import NtnrResult, as_eigenvalues, decide_ntnr, integral_pairing, pairing
from .series import MonomialIndex, TransverseSeries, iter_l_indices

__all__ = [
    "NormalFormResult",
    "ResonantTerm",
    "CentralizerElement",
    "CentralizerResult",
    "CentralizerCheck",
    "LinearPartError",
    "normalize",
    "centralizer_solve",
    "centralizer_check",
]


class LinearPartError(ValueError):
    """The input's linear part does not match the declared eigenvalues."""


@dataclass(frozen=True)
class ResonantTerm:
    K: tuple
    j: int
    x_exp: int
    coeff: GaussianRational

    def to_json(self):
        return {
            "K": list(self.K),
            "j": self.j,
            "x_exp": self.x_exp,
            "coeff": str(self.coeff),
        }


@dataclass(frozen=True)
class NormalFormResult:
    normal_field: VectorField
    normalizer: Automorphism
    resonant: tuple
    eps: tuple
    mu: tuple
    steps: tuple
    x_window: int | None
    certified: bool


def _linear_matrix_or_error(X: VectorField, mu):
    """Validate the pre-normal shape and return the linear coefficient matrix.

    Requirements: the d/dx component is exactly x; every z-component lies in
    m; linear monomials sit in the triangular cone z_a d/dz_b with a <= b;
    the constant part of the matrix is diag(mu) plus 0/1 entries on the
    adjacent slots z_{i-1} d/dz_i where mu_{i-1} = mu_i (strict Jordan input).
    """
    n, cap = X.n, X.cap
    if X.a != TransverseSeries.x_series(n, cap):
        raise LinearPartError("the d/dx component must be exactly x")
    for i, comp in enumerate(X.b, start=1):
        if not comp.is_zero() and comp.madic_order() < 1:
            raise LinearPartError(f"z-component {i} has a constant term")
    C = X.z_linear_matrix()
    eps = []
    for i in range(n):
        for j in range(n):
            entry = C[i][j]
            const = entry.coefficient(0)
            if j > i and not entry.is_zero():
                raise LinearPartError(
                    f"linear part leaves the triangular cone: z{j+1} feeds dz{i+1}"
                )
            if i == j:
                if const != mu[i]:
                    raise LinearPartError(
                        f"diagonal entry {i+1} is {const}, declared mu is {mu[i]}"
                    )
            elif const != 0:
                if j != i - 1:
                    raise LinearPartError(
                        "constant linear entries are allowed only on adjacent "
                        f"slots; found z{j+1} feeding dz{i+1}"
                    )
                if mu[i] != mu[i - 1]:
                    raise LinearPartError(
                        "adjacent nilpotent entry requires equal eigenvalues "
                        f"mu_{i} = mu_{i+1}"
                    )
                if const != GaussianRational.ONE:
                    raise LinearPartError(
                        f"adjacent nilpotent entry must be 0 or 1, found {const}"
                    )
    for i in range(1, n):
        eps.append(1 if C[i][i - 1].coefficient(0) == GaussianRational.ONE else 0)
    return C, tuple(eps)


def _needs_x_window(C) -> bool:
    """Truncated mode iff some diagonal linear entry is x-dependent."""
    for i, row in enumerate(C):
        diag = row[i]
        if any(e != 0 for e in diag.support()):
            return True
    return False


def normalize(
    X: VectorField,
    mu,
    x_cap: int | None = None,
) -> NormalFormResult:
    """Eliminate every nonresonant monomial of X and certify the conjugation.

    mu must match the constant diagonal of X's linear part.  x_cap bounds the
    x-support of the input (validated when given) and is mandatory when the
    diagonal has x-dependent linear terms, in which case all arithmetic runs
    in the ring truncated at x-degree x_cap and all statements hold there.
    """
    mu = as_eigenvalues(mu)
    n, cap = X.n, X.cap
    if len(mu) != n:
        raise LinearPartError(f"expected {n} eigenvalues, got {len(mu)}")
    C, eps = _linear_matrix_or_error(X, mu)
    window = None
    if _needs_x_window(C):
        if x_cap is None:
            raise LinearPartError(
                "x-dependent diagonal linear terms require an x_cap window"
            )
        if not all(comp.is_taylor() for comp in X.b) or not X.a.is_taylor():
            raise LinearPartError(
                "the x-truncated mode requires Taylor coefficients"
            )
        window = x_cap
    if x_cap is not None:
        _check_support(X, x_cap)

    field = X if window is None else X.truncate_x(window)
    factors = []
    steps = []
    key = (0,)  # below every slot of degree >= 0
    while (key := _next_slot(field, key, cap)) is not None:
        idx = MonomialIndex(key[1], key[2])
        g = field.coefficient_at(idx)
        s = pairing(mu, idx.K)
        f, residual = g.euler_solve(s)
        if f.is_zero():
            continue
        W = VectorField.monomial(n, cap, idx, f)
        field = exp_ad(W, field, x_window=window)
        factors.append((W, GaussianRational.ONE, window))
        steps.append(idx)
        if field.coefficient_at(idx) != residual:
            raise CertificateError(
                f"elimination at {idx} left an unexpected coefficient"
            )

    if field.a != TransverseSeries.x_series(n, cap):
        raise CertificateError("the sweep disturbed the d/dx component")
    normalizer = _from_factors(n, cap, factors)

    resonant = []
    for idx, poly in field.l_terms():
        K, j = idx.K, idx.j
        if K == (0,) * n:
            if poly != LaurentPoly.constant(mu[j - 1]):
                raise CertificateError("diagonal slot deviates from mu")
            continue
        s = pairing(mu, K)
        if not s.is_integer():
            raise CertificateError(f"nonresonant coefficient survived at {idx}")
        s_int = int(s.re)
        if not (poly.is_monomial() and poly.support() == [-s_int]):
            raise CertificateError(f"resonant slot {idx} is not a pure x^{-s_int} term")
        coeff = poly.coefficient(-s_int)
        if (
            s_int == 0
            and sum(K) == 0
            and j >= 2
            and K == tuple(1 if p == j - 2 else (-1 if p == j - 1 else 0) for p in range(n))
        ):
            continue  # adjacent Jordan entry, reported through eps
        resonant.append(ResonantTerm(K, j, -s_int, coeff))

    # a bare copy of the images: the z'^K memo the certificate fills goes
    # with the copy, and the returned normalizer keeps its factors
    if not _intertwines(Automorphism(normalizer.img_x, normalizer.img_z), X, field, window):
        raise CertificateError("conjugation certificate failed")
    return NormalFormResult(
        normal_field=field,
        normalizer=normalizer,
        resonant=tuple(resonant),
        eps=eps,
        mu=mu,
        steps=tuple(steps),
        x_window=window,
        certified=True,
    )


def _next_slot(field: VectorField, after: tuple, cap: int):
    """The least pair key (|K|, K, j) of a term of field above ``after``, or None.

    One pass over the z-terms: z^M d/dz_j sits at slot K = M - e_j, and only
    slots with |K| < cap count (the sentinel (cap,) sorts above exactly those).
    A term whose degree is out of range is passed over before its K is built.
    """
    best = (cap,)
    for j, comp in enumerate(field.b, start=1):
        for M in comp._terms:
            d = sum(M) - 1
            if after[0] <= d <= best[0]:
                key = (d, M[: j - 1] + (M[j - 1] - 1,) + M[j:], j)
                if after < key < best:
                    best = key
    return None if best == (cap,) else best


def _check_support(X: VectorField, x_cap: int):
    polys = [X.a] + list(X.b)
    for comp in polys:
        for _, poly in comp.terms():
            lo, hi = poly.min_exp(), poly.max_exp()
            if lo is not None and (lo < -x_cap or hi > x_cap):
                raise LinearPartError(
                    f"coefficient support [{lo}, {hi}] exceeds the x_cap window"
                )


def _intertwines(phi: Automorphism, X: VectorField, Y: VectorField, window) -> bool:
    """Check phi o X = Y o phi on the coordinates, by pure substitution.

    Equivalent to phi.pushforward(X) = Y because phi is invertible (it is a
    composition of exponentials), but needs no inversion, so it is the cheap
    certificate normalize() runs on every call; like the sweep's adjoint
    series it never touches exp(ad), making the two routes independent.

    In the x-truncated mode both sides are formed only up to x-degree
    window, which is exactly the truncated defect.  Automorphism.apply's
    window needs Taylor data and the x-image x: normalize() has checked that
    X is Taylor, so the sweep's factors are Taylor too, and none of them has
    a d/dx part, so phi moves no x.
    """
    pieces = [(X.a, phi.img_x)] + [(X.b[i], phi.img_z[i]) for i in range(X.n)]
    for comp, img in pieces:
        if not (phi.apply(comp, window) - Y.apply(img, window)).is_zero():
            return False
    return True


# --- centralizer of the semisimple part -------------------------------------


@dataclass(frozen=True)
class CentralizerElement:
    kind: str  # "euler" or "monomial"
    index: MonomialIndex | None
    x_exp: int
    field: VectorField

    def to_json(self):
        return {
            "kind": self.kind,
            "K": list(self.index.K) if self.index else None,
            "j": self.index.j if self.index else None,
            "x_exp": self.x_exp,
            "field": str(self.field),
        }


@dataclass(frozen=True)
class CentralizerResult:
    mu: tuple
    x_window: tuple
    degree: int
    elements: tuple

    @property
    def negative(self):
        return tuple(e for e in self.elements if e.x_exp < 0)


def centralizer_solve(mu, x_window, degree: int) -> CentralizerResult:
    """Monomial basis of x-normalized fields commuting with x d/dx + L(mu).

    mu is an eigenvalue sequence, such as a NormalFormResult's.  A monomial
    x^l z^K L(e_j) commutes with the semisimple part iff l + <mu,K> = 0, so
    the basis is x d/dx together with every index K of z-degree |K|+1 <=
    degree whose pairing is an integer -l inside the requested x-window;
    negative l witnesses a field that is not Taylor in x.
    """
    mu = as_eigenvalues(mu)
    lo, hi = int(x_window[0]), int(x_window[1])
    if lo > hi:
        raise ValueError("empty x-window")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = len(mu)
    cap = degree
    elements = [
        CentralizerElement("euler", None, 0, VectorField.euler(n, cap))
    ]
    pair = integral_pairing(mu)
    for idx in iter_l_indices(n, 0, degree - 1):
        s = pair(idx.K)
        if s is None:
            continue
        l = -s
        if not lo <= l <= hi:
            continue
        fieldv = VectorField.monomial(n, cap, idx, LaurentPoly.x(l))
        elements.append(CentralizerElement("monomial", idx, l, fieldv))
    return CentralizerResult(mu, (lo, hi), degree, tuple(elements))


@dataclass(frozen=True)
class CentralizerCheck:
    ok: bool
    ntnr: NtnrResult
    offenders: tuple
    result: CentralizerResult


def centralizer_check(mu, x_window, degree: int) -> CentralizerCheck:
    """No-negative-resonance implies a Taylor centralizer, at this truncation.

    When decide_ntnr holds, every centralizer monomial in the window must
    have x-exponent >= 0 (ok=False with the offending monomials otherwise,
    which would falsify the statement); when it fails, the check is vacuous
    and the offenders are reported for audit.  So it is when the verdict is
    bounded (exact=False): an offender x^l z^K dz_j is itself a negative
    resonance K - e_j above the enumeration bound, which refutes the verdict,
    not the statement.
    """
    mu = as_eigenvalues(mu)
    ntnr = decide_ntnr(mu)
    result = centralizer_solve(mu, x_window, degree)
    offenders = result.negative
    ok = not (ntnr.holds and ntnr.exact) or not offenders
    return CentralizerCheck(ok=ok, ntnr=ntnr, offenders=offenders, result=result)
