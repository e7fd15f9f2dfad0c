"""Bounded-height census of quadratic twists with two marked points.

For each rational t of height <= H (height of n/m in lowest terms is
max(|n|, m)) the value h(t) of the degree-12 model factors as d s^2 with d a
squarefree integer; (t, d s) is then a point on y^2 = d h(x), and the two
sheet-odd covers g_i = 2 f_i - (1, 1) push it to a pair of points on the
normalized d-twist y^2 = x^3 - A d^2 x + A d^3.  Each image is computed at
the point P = (t, s sqrt d) of H as R - Rbar, R = f_i(P) and Rbar its
conjugate, by closed forms in rationals (OddCoveringMaps.twisted_image),
with an exact check that R + Rbar = (1, 1).  Records are
deduplicated per d, screened for small dependencies, and tabulated against
the reference shape X^(1/6)/log^2 X.  The screen rules out relations by
reducing mod good primes above 1000 and confirms any relation that no prime
rules out exactly over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# perfbench/layers.py wraps twists.factorize, so squarefree_part looks it up here
from .algebra import _SMALL_PRIMES, TRIAL_DIVISION_BOUND, UnfactoredError, factorize
from .constructions import genus5_poly, odd_covering_maps
from .curves import CurveError, ECPoint, discriminant, ec_scalar, on_curve

RELATION_BOUND = 12
SIEVE_PRIME_FLOOR = 1000
SIEVE_PRIME_CAP = 40

STATUS_INDEPENDENT = "independent-candidate"
STATUS_DEPENDENT = "dependent-or-torsion"
STATUS_UNFACTORED = "unfactored"
STATUS_DEGENERATE = "degenerate"


def squarefree_part(v):
    """(d, s) with v = d s^2, d a squarefree integer carrying the sign, s a
    positive rational."""
    v = Fraction(v)
    if not v:
        raise ValueError("squarefree part of 0 is undefined")
    n = v.numerator * v.denominator
    d = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            d *= p
    s2 = v / d
    num, den = s2.numerator, s2.denominator
    s = Fraction(math.isqrt(num), math.isqrt(den))
    assert d * s * s == v
    return d, s


# ---------------------------------------------------------------------------
# census records


@dataclass(frozen=True)
class TwistRecord:
    t: Fraction
    d: int | None
    s: Fraction | None
    P1: ECPoint | None
    P2: ECPoint | None
    status: str

    @property
    def height(self):
        return max(abs(self.t.numerator), self.t.denominator)


@dataclass(frozen=True)
class CensusSummary:
    grid: tuple
    counts: tuple
    reference: tuple  # X^(1/6)/log^2 X at 6 decimal places, as strings


def _enumerate_heights(height_bound):
    for m in range(1, height_bound + 1):
        for n in range(-height_bound, height_bound + 1):
            if math.gcd(abs(n), m) == 1:
                yield Fraction(n, m)


def _sieve_primes():
    """Primes above SIEVE_PRIME_FLOOR, in increasing order, for the screen."""
    return (p for p in _SMALL_PRIMES if p > SIEVE_PRIME_FLOOR)


def _relations_mod_p(E_d, P1, P2, p):
    """The pairs (a, b) of the half-box with a Q1 + b Q2 = O, where Q1, Q2
    are P1, P2 reduced mod p on the reduction of E_d.  Residues are ints in
    [0, p), a point is an (x, y) tuple and O is None."""

    def reduce(c):
        return c.numerator * pow(c.denominator, -1, p) % p

    a2, a4 = reduce(E_d.a2), reduce(E_d.a4)

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - a2 - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    Q1, Q2 = ((reduce(P.x), reduce(P.y)) for P in (P1, P2))
    by_point = {}  # a Q1 -> [a]
    acc = None
    for a in range(RELATION_BOUND + 1):
        by_point.setdefault(acc, []).append(a)
        acc = add(acc, Q1)
    found = set()
    acc = None
    for b in range(RELATION_BOUND + 1):
        # a Q1 = -(b Q2) gives (a, b); a Q1 = b Q2 gives (a, -b)
        minus = None if acc is None else (acc[0], -acc[1] % p)
        for a in by_point.get(minus, ()):
            found.add((a, b))
        for a in by_point.get(acc, ()):
            found.add((a, -b))
        acc = add(acc, Q2)
    return {(a, b) for a, b in found if a > 0 or b > 0}


def _exact_relation(E_d, P1, P2, pairs):
    """True iff a P1 = -b P2 over Q for one of the pairs (a, b); each
    multiple is computed once, since a whole box can reach this step."""
    multiples1 = {a: ec_scalar(E_d, a, P1) for a in {a for a, _ in pairs}}
    multiples2 = {b: ec_scalar(E_d, b, P2) for b in {-b for _, b in pairs}}
    return any(multiples1[a] == multiples2[-b] for a, b in pairs)


def independence_screen(E_d, P1, P2):
    """Conservative screen: dependent-or-torsion exactly when a P1 + b P2 = O
    for some (a, b) != (0, 0) with |a|, |b| <= RELATION_BOUND (b = 0 is P1
    torsion of order <= RELATION_BOUND), independent-candidate otherwise.

    Up to sign a relation lies in the half-box 0 <= a, |b| <= RELATION_BOUND,
    (a, b) > (0, 0).  At a prime p of good reduction at which E_d, P1 and P2
    are p-integral, reduction mod p is a group homomorphism, so a relation
    over Q holds mod p too.  Each such prime above SIEVE_PRIME_FLOOR cuts the
    box down to the pairs that hold mod p; an empty box proves independence
    (within the box).  After SIEVE_PRIME_CAP primes the pairs left are
    checked exactly over Q, so dependence is claimed only when it holds.
    """
    for P in (P1, P2):
        if not on_curve(E_d, P):
            raise CurveError(f"{P!r} is not on {E_d!r}")
    if P1.infinity or P2.infinity:
        return STATUS_DEPENDENT
    bound = RELATION_BOUND
    survivors = {(a, b) for a in range(bound + 1) for b in range(-bound, bound + 1) if a > 0 or b > 0}
    denominators = [Fraction(c).denominator for c in (E_d.a2, E_d.a4, E_d.a6, P1.x, P1.y, P2.x, P2.y)]
    disc = discriminant(E_d).numerator
    used = 0
    for p in _sieve_primes():
        if used == SIEVE_PRIME_CAP:
            break
        if disc % p == 0 or any(den % p == 0 for den in denominators):
            continue
        used += 1
        survivors &= _relations_mod_p(E_d, P1, P2, p)
        if not survivors:
            return STATUS_INDEPENDENT
    return STATUS_DEPENDENT if _exact_relation(E_d, P1, P2, survivors) else STATUS_INDEPENDENT


def census(A, height_bound):
    """One deduplicated record per squarefree d, sorted by (|d|, d).

    Iterates t of height <= height_bound (skipping zeros of the degree-12
    polynomial), keeps the smallest-height t per d (ties broken by t), maps
    each through both odd covers, and screens the resulting pair.

    h is a palindrome, t^12 h(1/t) = h(t), so t and 1/t have the same height
    and the same d, and only the smaller of the two can be kept.  Each pair
    is therefore factored once, at its member in (-oo, -1] or [0, 1].
    """
    A = Fraction(A)
    if not 1 <= height_bound <= TRIAL_DIVISION_BOUND:
        raise ValueError(f"height bound must be in [1, {TRIAL_DIVISION_BOUND}]: {height_bound}")
    maps = odd_covering_maps(A)
    h = genus5_poly(A)
    if h.coeffs != h.coeffs[::-1]:
        raise CurveError(f"h(t) is not a palindrome at A = {A}, so t and 1/t need not share d")
    best = {}  # d -> (height, t, s)
    unfactored = []
    for t in _enumerate_heights(height_bound):
        if t > 1 or -1 < t < 0:
            continue  # factored as the partner of 1/t
        v = h(t)
        if not v:
            continue
        try:
            d, s = squarefree_part(v)
        except UnfactoredError:
            # h(1/t) = h(t) (b/a)^12 for t = a/b: the two differ only in
            # primes <= height_bound <= TRIAL_DIVISION_BOUND, which are
            # stripped first, so 1/t leaves the same unfactored cofactor
            for u in (t,) if t in (0, 1, -1) else (t, 1 / t):
                unfactored.append(TwistRecord(t=u, d=None, s=None, P1=None, P2=None, status=STATUS_UNFACTORED))
            continue
        key = (max(abs(t.numerator), t.denominator), t)
        if d not in best or key < best[d][:2]:
            best[d] = (key[0], t, s)

    records = []
    for d in sorted(best, key=lambda d: (abs(d), d)):
        _, t, s = best[d]
        y0 = d * s  # normalized twist sheet: y0^2 = d h(t)
        E_d = maps.twisted_curve(Fraction(d))
        P1 = maps.twisted_image(1, Fraction(d), t, y0)
        P2 = maps.twisted_image(2, Fraction(d), t, y0)
        if P1.infinity or P2.infinity:
            status = STATUS_DEGENERATE
        else:
            status = independence_screen(E_d, P1, P2)
        records.append(TwistRecord(t=t, d=d, s=s, P1=P1, P2=P2, status=status))
    records.extend(sorted(unfactored, key=lambda r: (r.height, r.t)))
    return records


def growth_table(records, grid):
    """Counts of distinct screened-independent d with |d| <= X per grid
    value, next to X^(1/6)/log^2 X rounded to 6 decimals."""
    counts = []
    refs = []
    for X in grid:
        if X <= 1:
            raise ValueError("grid values must exceed 1 (log^2 X vanishes at 1)")
        n = sum(1 for r in records if r.status == STATUS_INDEPENDENT and abs(r.d) <= X)
        counts.append(n)
        refs.append("%.6f" % (X ** (1 / 6) / math.log(X) ** 2))
    return CensusSummary(grid=tuple(grid), counts=tuple(counts), reference=tuple(refs))


# ---------------------------------------------------------------------------
# TSV emission (consumed by the CLI)


CENSUS_HEADER = "t_num\tt_den\td\tx1_num\tx1_den\ty1_num\ty1_den\tx2_num\tx2_den\ty2_num\ty2_den\tstatus"


def record_to_tsv(r):
    cols = [str(r.t.numerator), str(r.t.denominator)]
    cols.append("-" if r.d is None else str(r.d))
    for P in (r.P1, r.P2):
        if P is None or P.infinity:
            cols.extend(["-", "-", "-", "-"])
        else:
            f1, f2 = Fraction(P.x), Fraction(P.y)
            cols.extend([str(f1.numerator), str(f1.denominator), str(f2.numerator), str(f2.denominator)])
    cols.append(r.status)
    return "\t".join(cols)


GROWTH_HEADER = "X\tN\treference"


def summary_to_tsv(summary):
    lines = []
    for X, n, ref in zip(summary.grid, summary.counts, summary.reference):
        lines.append(f"{X}\t{n}\t{ref}")
    return lines
