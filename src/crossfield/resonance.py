"""Exact resonance arithmetic and the low-dimension classification tables.

An eigenvalue tuple mu = (mu_1, ..., mu_n) in Q[i]^n (the transverse
eigenvalues; the eigenvalue along the invariant curve is normalized to 1)
determines which monomial fields survive normalization: the index K is
resonant when the pairing <mu, K> is an integer <= 0, and the configuration
has a *transverse negative resonance* when some <mu, K> over the degree->= 0
index set is an integer >= 1, equivalently when some cone element
sum p_i mu_i (p in N^n, |p| >= 1) equals mu_j + q with q >= 1.

Everything here is exact.  For every n the negative-resonance question is
decided outright: with S the imaginary parts over a common denominator, one
box scan lists the minimal nonzero solutions of <S, p> = T in a bounded
box (the Hilbert basis for T = 0, then T = S_j per direction j; the box
bound does not depend on n), and on the real part hitting Z_{>=1} from
alpha + M, M the monoid of the basis, is a single congruence when M has a
positive generator and one knapsack table when all are negative.  When the
boxes would hold more than MAX_BOX_POINTS points, the verdict falls back to
bounded enumeration with the bound recorded; a negative resonance found
there is a witness, so that verdict is exact.  The Poincare/Siegel split
asks whether 0 lies in the hull of points of the plane C, so by
Caratheodory it tests single points, segments and triangles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from itertools import product as _cartesian

from .coeff import GaussianRational
from .series import iter_l_indices

__all__ = [
    "ResonantIndex",
    "NegativeWitness",
    "ResonanceReport",
    "NtnrResult",
    "Classification3",
    "enumerate_resonances",
    "decide_ntnr",
    "classify_dim2",
    "classify_dim3",
    "origin_in_hull",
    "LINEARIZABLE",
    "CLASSIFIED_BY_HOLONOMY",
    "POINCARE",
    "SIEGEL_NONREAL",
    "SIEGEL_REAL_CLASSIFIED",
    "SIEGEL_REAL_3A",
    "SIEGEL_REAL_3B",
]

LINEARIZABLE = "Linearizable"
CLASSIFIED_BY_HOLONOMY = "ClassifiedByHolonomy"
POINCARE = "Poincare"
SIEGEL_NONREAL = "SiegelNonreal"
SIEGEL_REAL_CLASSIFIED = "SiegelRealClassified"
SIEGEL_REAL_3A = "SiegelReal3a"
SIEGEL_REAL_3B = "SiegelReal3b"

# The exact decision scans integer boxes of side about max|S|, S the
# imaginary parts over a common denominator, so its cost grows like
# max|S|^n: 9.7e5 points (1-1/7*i, 3/2-1/6*i, -1-i) take about 0.5 s on a
# 2-core x86 machine, and 1/31*i, -1/37*i+1/2, 1/41*i spans 7.2e10.  Past
# this many points decide_ntnr takes the bounded branch.
MAX_BOX_POINTS = 2_000_000

# The witness walk visits at most this many indices, about 0.2 s at n = 3 on
# the same machine: every degree through 99,999 for n = 1, 443 for n = 2 and
# 79 for n = 3.  Past it an exact failure is reported without a witness.
_WITNESS_INDICES = 100_000


def as_eigenvalues(mu):
    """Coerce to a tuple of exact Q[i] eigenvalues (n >= 1)."""
    out = []
    for m in mu:
        if isinstance(m, GaussianRational):
            out.append(m)
        elif isinstance(m, (int, Fraction)):
            out.append(GaussianRational(m))
        else:
            raise TypeError("eigenvalues must be exact Q[i] scalars")
    if not out:
        raise ValueError("need at least one transverse eigenvalue")
    return tuple(out)


def pairing(mu, K) -> GaussianRational:
    """The weighted exponent sum <mu, K> = sum_i mu_i k_i."""
    s = GaussianRational.ZERO
    for m, k in zip(mu, K):
        s = s + m * k
    return s


def integral_pairing(mu):
    """K -> <mu, K> as an int when it is an integer, else None.

    mu is written once over one common denominator D as (re + im*i)/D, so
    <mu, K> is an integer exactly when sum im_i k_i = 0 and D divides
    sum re_i k_i; each call is two integer dot products.
    """
    # a canonical triple (a, b, d) has gcd(a, b, d) = 1, so d is already the
    # lcm of the denominators of a/d and b/d
    den = math.lcm(*(m._d for m in mu))
    re = [m._a * (den // m._d) for m in mu]
    im = [m._b * (den // m._d) for m in mu]

    def pair(K):
        if sum(map(operator.mul, im, K)):
            return None
        q, r = divmod(sum(map(operator.mul, re, K)), den)
        return None if r else q

    return pair


@dataclass(frozen=True)
class ResonantIndex:
    """K with <mu,K> = s an integer <= 0; the surviving coefficient is x^{-s}."""

    K: tuple
    s: int

    @property
    def x_exp(self) -> int:
        return -self.s

    def to_json(self):
        return {"K": list(self.K), "s": self.s, "x_exp": self.x_exp}


@dataclass(frozen=True)
class NegativeWitness:
    """K in the degree->=0 index set with q = <mu,K> an integer >= 1.

    In cone form: p = K + e_j satisfies sum p_i mu_i = mu_j + q with |p| >= 1;
    j is forced when K has a -1 entry and taken to be 1 otherwise.
    """

    K: tuple
    q: int

    @property
    def j(self) -> int:
        return self.K.index(-1) + 1 if -1 in self.K else 1

    @property
    def p(self) -> tuple:
        j = self.j
        return tuple(k + (1 if pos == j - 1 else 0) for pos, k in enumerate(self.K))

    @property
    def degree_zero(self) -> bool:
        return sum(self.K) == 0

    def to_json(self):
        return {
            "K": list(self.K),
            "q": self.q,
            "p": list(self.p),
            "j": self.j,
            "degree_zero": self.degree_zero,
        }


@dataclass(frozen=True)
class ResonanceReport:
    mu: tuple
    degree_bound: int
    resonant: tuple
    negative: tuple

    def witness(self):
        return self.negative[0] if self.negative else None


def enumerate_resonances(mu, d: int) -> ResonanceReport:
    """List resonant indices with |K| <= d and bounded negative-resonance hits.

    Resonant indices need |K| >= 1; negative hits are scanned over |K| >= 0
    (the degree-0 hits, differences mu_i - mu_j in Z_{>=1}, are flagged so
    both readings of the cone stay auditable).
    """
    mu = as_eigenvalues(mu)
    if d < 1:
        raise ValueError("degree bound must be >= 1")
    pair = integral_pairing(mu)
    resonant = []
    negative = []
    for K in iter_l_indices(len(mu), 0, d, with_direction=False):
        val = pair(K)
        if val is None:
            continue
        if sum(K) >= 1 and val <= 0:
            resonant.append(ResonantIndex(K, val))
        if val >= 1:
            negative.append(NegativeWitness(K, val))
    return ResonanceReport(mu, d, tuple(resonant), tuple(negative))


@dataclass(frozen=True)
class NtnrResult:
    holds: bool
    exact: bool
    bound: int | None
    witness: NegativeWitness | None

    def __bool__(self):
        return self.holds


def decide_ntnr(mu, fallback_bound: int = 8) -> NtnrResult:
    """Decide "no transverse negative resonance" with a certificate.

    Exact and unbounded for every n within MAX_BOX_POINTS; past it, the
    :func:`enumerate_resonances` verdict to degree fallback_bound.  A
    witness found there proves failure, so that verdict is exact; one that
    holds is bounded, with the bound recorded.  An exact failure carries
    the first witness of the graded walk, or None when it lies past
    _WITNESS_INDICES indices.
    """
    mu = as_eigenvalues(mu)
    S = _imaginary_integers(mu)
    if _box_points(S) > MAX_BOX_POINTS:
        witness = enumerate_resonances(mu, fallback_bound).witness()
        if witness is not None:
            return NtnrResult(False, True, None, witness)
        return NtnrResult(True, False, fallback_bound, None)
    if _negative_resonance_exists(mu, S):
        return NtnrResult(False, True, None, _find_witness(mu))
    return NtnrResult(True, True, None, None)


def _imaginary_integers(mu):
    """The imaginary parts of mu over their least common denominator.

    Im m = b/d reduces to (b/g)/(d/g) with g = gcd(b, d), so the common
    denominator is the lcm of the reduced d/g, not of the triples' d: S
    sets the box side.
    """
    den = math.lcm(*(m._d // math.gcd(m._b, m._d) for m in mu))
    return [m._b * den // m._d for m in mu]


def _box_points(S) -> int:
    """Points the exact decision's box scans visit: the Hilbert-basis box
    once, and the inhomogeneous box once per direction j."""
    if not any(S):
        return 0
    n = len(S)
    side = max(abs(s) for s in S)
    return (side + 1) ** n + sum((side + abs(T) + 2) ** n for T in S)


def _negative_resonance_exists(mu, S) -> bool:
    n = len(mu)
    rs = [m.re for m in mu]
    if any(S):
        side = max(abs(s) for s in S)
        hilbert = _minimal_solutions(S, 0, side)
    else:
        hilbert = [tuple(1 if p == i else 0 for p in range(n)) for i in range(n)]
    gens = [sum((r * h for r, h in zip(rs, hv)), Fraction(0)) for hv in hilbert]
    for j in range(n):
        # p = 0 is excluded (|p| >= 1): for S_j = 0 the minimal nonzero
        # solutions are the Hilbert basis itself.
        bases = _minimal_solutions(S, S[j], side + abs(S[j]) + 1) if any(S) else hilbert
        for b in bases:
            alpha = sum((r * p for r, p in zip(rs, b)), Fraction(0)) - rs[j]
            if _monoid_hits_positive_integer(alpha, gens):
                return True
    return False


def _minimal_solutions(S, T, side):
    """Minimal nonzero solutions in N^n of <S, p> = T, scanning [0, side]^n.

    The box holds every minimal solution at side max|S| for T = 0 (Huet's
    bound; these form the Hilbert basis) and max|S| + |T| + 1 otherwise, as
    the brute-force tests check; minimal in the box is minimal globally.
    """
    box = _cartesian(range(side + 1), repeat=len(S))
    sols = [p for p in box if sum(map(operator.mul, S, p)) == T and any(p)]
    return _minimal_elements(sols)


def _minimal_elements(sols):
    out = []
    for c in sorted(sols, key=sum):
        if not any(all(o[i] <= c[i] for i in range(len(c))) for o in out):
            out.append(c)
    return out


def _monoid_hits_positive_integer(alpha: Fraction, gens) -> bool:
    """Does alpha + (N-combination of gens) land in Z_{>=1}?"""
    gens = [g for g in gens if g != 0]
    if not gens:
        return alpha.denominator == 1 and alpha >= 1
    if any(g > 0 for g in gens):
        # Mixed signs generate the full group e*Z; all-positive generators
        # reach every sufficiently large multiple of e.  Either way targets
        # q - alpha with q ranging over large integers leave only a
        # congruence: q*m = alpha*m + k*(e*m) solvable over Z.
        e = _fraction_gcd(gens)
        m = math.lcm(alpha.denominator, e.denominator)
        A = int(alpha * m)
        E = int(e * m)
        return A % math.gcd(E, m) == 0
    # All generators negative: q <= alpha, finitely many targets, one
    # unbounded-knapsack table over the scaled gaps alpha - q.
    if alpha < 1:
        return False
    scale = math.lcm(alpha.denominator, *(g.denominator for g in gens))
    top = int((alpha - 1) * scale)
    reach = [True] + [False] * top
    for w in (int(-g * scale) for g in gens):
        for v in range(w, top + 1):
            if reach[v - w]:
                reach[v] = True
    return any(reach[int((alpha - q) * scale)] for q in range(1, math.floor(alpha) + 1))


def _fraction_gcd(vals) -> Fraction:
    den = math.lcm(*(v.denominator for v in vals))
    g = 0
    for v in vals:
        g = math.gcd(g, abs(int(v * den)))
    return Fraction(g, den)


def _find_witness(mu):
    """The first negative hit of the graded walk, or None past the budget."""
    pair = integral_pairing(mu)
    walk = iter_l_indices(len(mu), 0, _WITNESS_INDICES, with_direction=False)
    for K in islice(walk, _WITNESS_INDICES):
        q = pair(K)
        if q is not None and q >= 1:
            return NegativeWitness(K, q)
    return None


# --- dimension-2 and dimension-3 classification -----------------------------


def classify_dim2(lam) -> str:
    """Eigenvalue pair (1, lam): linearizable unless lam is real <= 0."""
    lam = as_eigenvalues([lam])[0]
    if lam.im != 0 or lam.re > 0:
        return LINEARIZABLE
    return CLASSIFIED_BY_HOLONOMY


@dataclass(frozen=True)
class Classification3:
    case: str
    siegel: bool
    witness: dict | None = None

    def to_json(self):
        return {"case": self.case, "siegel": self.siegel, "witness": self.witness}


def classify_dim3(lam, mu) -> Classification3:
    """Classify the eigenvalue triple (1, lam, mu) over exact Q[i] data.

    Poincare when the convex hull of {1, lam, mu} misses the origin (boundary
    counts as Siegel); Siegel with a nonreal transverse eigenvalue is
    holonomy-classified; Siegel all-real splits into the holonomy-classified
    case and the two resonance-witnessed subcases, up to swapping lam and mu.
    """
    lam = as_eigenvalues([lam])[0]
    mu = as_eigenvalues([mu])[0]
    siegel = origin_in_hull([GaussianRational.ONE, lam, mu])
    if not siegel:
        return Classification3(POINCARE, False)
    if lam.im != 0 or mu.im != 0:
        return Classification3(SIEGEL_NONREAL, True)
    a, b = lam.re, mu.re
    lo, hi = min(a, b), max(a, b)
    if hi > 0:
        # lo <= 0 < hi after permutation; Siegel rules out both positive.
        w = _eq5_witness(hi, lo)
        if w is None:
            w = {"u": str(hi), "v": "0"}
        return Classification3(SIEGEL_REAL_3B, True, w)
    if lo < hi:
        w = _eq5_witness(hi, lo)
        if w is not None:
            return Classification3(SIEGEL_REAL_3A, True, w)
    return Classification3(SIEGEL_REAL_CLASSIFIED, True)


def _eq5_witness(x: Fraction, y: Fraction):
    """Smallest p >= 1 with p*x = y + q for some integer q >= 1, if any."""
    # p*x - y integral: a linear congruence p*A = C (mod m), whose solutions
    # p0 + k*period step q by the integer x*period.
    m = math.lcm(x.denominator, y.denominator)
    A = int(x * m)
    C = int(y * m) % m
    g = math.gcd(A, m)
    if C % g != 0:
        return None
    period = m // g
    p = (C // g) * pow(A // g, -1, period) % period or period
    q = x * p - y
    if x > 0 and q < 1:
        # q rises with p: step up once to the first q >= 1.
        k = -((q - 1) // (x * period))
        p, q = p + k * period, q + k * x * period
    # x <= 0: q does not rise with p, so p0 is the only candidate.
    return {"p": p, "q": int(q)} if q >= 1 else None


def origin_in_hull(points) -> bool:
    """Exact membership of 0 in the convex hull of Q[i] points.

    In the plane 0 lies in the hull iff it lies in the hull of at most three
    of the points (Caratheodory): it is one of them, or lies strictly between
    two (cross product 0, dot product < 0), or strictly inside a triangle of
    three (its three edge cross products share a strict sign).
    """
    pts = [(p.re, p.im) for p in as_eigenvalues(points)]
    if any(x == 0 and y == 0 for x, y in pts):
        return True
    for a, b in combinations(pts, 2):
        if _cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] < 0:
            return True
    for a, b, c in combinations(pts, 3):
        signs = (_cross(a, b), _cross(b, c), _cross(c, a))
        if all(v > 0 for v in signs) or all(v < 0 for v in signs):
            return True
    return False


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]
