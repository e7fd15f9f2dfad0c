"""Bounded-height census of quadratic twists with two marked points.

For each rational t of height <= H (height of n/m in lowest terms is
max(|n|, m)) the value h(t) of the degree-12 model factors as d s^2 with d a
squarefree integer; (t, d s) is then a point on y^2 = d h(x), and the two
sheet-odd covers push it to a pair of points on the normalized d-twist
y^2 = x^3 - A d^2 x + A d^3.  Records are deduplicated per d, screened for
small dependencies, and tabulated against the reference shape X^(1/6)/log^2 X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import is_prime
from .constructions import genus5_poly, odd_covering_maps
from .curves import CurveError, ECPoint, ec_neg, on_curve, _ec_add_unchecked

TRIAL_DIVISION_BOUND = 10_000
RHO_ITERATION_BUDGET = 1_000_000
RELATION_BOUND = 12

STATUS_INDEPENDENT = "independent-candidate"
STATUS_DEPENDENT = "dependent-or-torsion"
STATUS_UNFACTORED = "unfactored"
STATUS_DEGENERATE = "degenerate"


class UnfactoredError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer factoring: trial division, then Brent's cycle-finding rho


def _small_primes(limit=TRIAL_DIVISION_BOUND):
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = _small_primes()


def _pollard_brent(n, budget):
    """A nontrivial factor of composite odd n, or None if the budget runs out."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m = 2, 128
        g, r, q = 1, 1, 1
        spent = 0
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if 1 < g < n:
            return g
    return None


def factorize(n, rho_budget=RHO_ITERATION_BUDGET):
    """Prime factorization of |n| as a dict; raises UnfactoredError past the
    trial-division/rho budget."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_brent(m, rho_budget)
        if f is None or f in (1, m):
            raise UnfactoredError(f"factoring budget exceeded on {m}")
        stack.append(f)
        stack.append(m // f)
    return out


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


def independence_screen(E_d, P1, P2, bound=RELATION_BOUND):
    """Conservative screen: independent-candidate only when neither point is
    torsion of order <= bound and no relation a P1 + b P2 = O exists with
    0 < max(|a|, |b|) <= bound."""
    for P in (P1, P2):
        if not on_curve(E_d, P):
            raise CurveError(f"{P!r} is not on {E_d!r}")
    if P1.infinity or P2.infinity:
        return STATUS_DEPENDENT
    multiples1 = {}
    acc = ECPoint.zero()
    for a in range(1, bound + 1):
        acc = _ec_add_unchecked(E_d, acc, P1)
        if acc.infinity:
            return STATUS_DEPENDENT  # torsion
        multiples1[acc] = a
    acc = ECPoint.zero()
    multiples2 = []
    for b in range(1, bound + 1):
        acc = _ec_add_unchecked(E_d, acc, P2)
        if acc.infinity:
            return STATUS_DEPENDENT
        multiples2.append(acc)
    # a P1 + b P2 = O  <=>  a P1 = (-b) P2 for some a, |b| in [1, bound]
    for Q in multiples2:
        if Q in multiples1 or ec_neg(Q) in multiples1:
            return STATUS_DEPENDENT
    return STATUS_INDEPENDENT


def census(A, height_bound):
    """One deduplicated record per squarefree d, sorted by (|d|, d).

    Iterates t of height <= height_bound (skipping zeros of the degree-12
    polynomial), keeps the smallest-height t per d (ties broken by t), maps
    each through both odd covers, and screens the resulting pair.
    """
    A = Fraction(A)
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    h = genus5_poly(A)
    best = {}  # d -> (height, t, s)
    unfactored = []
    for t in _enumerate_heights(height_bound):
        v = h(t)
        if not v:
            continue
        try:
            d, s = squarefree_part(v)
        except UnfactoredError:
            unfactored.append(TwistRecord(t=t, d=None, s=None, P1=None, P2=None, status=STATUS_UNFACTORED))
            continue
        key = (max(abs(t.numerator), t.denominator), t)
        if d not in best or key < best[d][:2]:
            best[d] = (key[0], t, s)

    maps = odd_covering_maps(A)
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
