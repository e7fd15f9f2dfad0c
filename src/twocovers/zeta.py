"""L-polynomials from exhaustive point counts, and the isogeny-decomposition
checks they support.

For a genus-g curve over F_q the counts N_1..N_g over F_{q^k} give power sums
S_k = q^k + 1 - N_k; Newton's identities produce the first half of the
L-polynomial and the functional equation c_{2g-i} = q^{g-i} c_i fills the
rest.  Exact integer divisibility between L-polynomials then witnesses
isogeny factors of the Jacobians:

    L_{H2} = L_E L_{E'},   L_{H1} = L_E L_F,   L_E^2 L_{E'} L_F = L_H,

with the residual degree-4 factor L_F tested for irreducibility over Z as
evidence that its abelian surface is simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Fp, Poly, poly_gcd, quadratic_character
from .constructions import build_family, build_thm1
from .counting import (
    MAX_FIELD_SIZE,
    BadPrimeError,
    CountingBudgetError,
    affine_count_rhs,
    affine_count_space,
)
from .curves import HyperellipticModel, QuarticModel
from .twists import factorize


class CountingBugError(ValueError):
    pass


# ---------------------------------------------------------------------------
# good primes


def _reduce_coeffs(coeffs, p):
    out = []
    for c in coeffs:
        f = Fraction(c)
        if f.denominator % p == 0:
            raise BadPrimeError(f"p = {p} divides a coefficient denominator")
        out.append(f.numerator * pow(f.denominator, p - 2, p) % p)
    return out


def _squarefree_mod_p(int_coeffs, p):
    f = Poly([Fp(c, p) for c in int_coeffs])
    if f.degree < 1:
        return False
    return poly_gcd(f, f.derivative()).degree == 0


def is_good_prime(A, p, B=None):
    """p > 3 keeping every model of the family squarefree/nonsingular mod p
    (and, when B is given, the space-curve models too)."""
    from .algebra import is_prime

    if p <= 3 or not is_prime(p):
        return False
    try:
        fam = build_family(Fraction(A))
        models = [
            fam.E.rhs_poly().coeffs,
            fam.Eprime.rhs_poly().coeffs,
            fam.D.rhs_poly().coeffs,
            fam.H.f.coeffs,
            fam.H1.f.coeffs,
            fam.H2.f.coeffs,
        ]
        if B is not None:
            c = build_thm1(Fraction(A), Fraction(B))
            models.append(c.cubic.rhs_poly().coeffs)
            models.append(c.aux_cubic.rhs_poly().coeffs)
        for coeffs in models:
            ints = _reduce_coeffs(coeffs, p)
            if not _squarefree_mod_p(ints, p):
                return False
        return True
    except BadPrimeError:
        return False


def good_primes(A, bound, B=None):
    return [p for p in range(5, bound + 1) if is_good_prime(A, p, B=B)]


# ---------------------------------------------------------------------------
# counts


@dataclass(frozen=True)
class CountVector:
    q: int
    counts: tuple  # N_1..N_g over F_{q^k}

    def weil_ok(self, genus):
        for k, n in enumerate(self.counts, start=1):
            qk = self.q**k
            if (n - qk - 1) ** 2 > 4 * genus * genus * qk:
                return False
        return True


def count_weierstrass(model, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """#C(F_{p^k}) for the smooth projective cubic model (one point at
    infinity)."""
    coeffs = _reduce_coeffs(model.rhs_poly().coeffs, p)
    if not _squarefree_mod_p(coeffs, p):
        raise BadPrimeError(f"p = {p} is a bad prime for {model!r}")
    return affine_count_rhs(coeffs, p, k, max_field_size, seed) + 1


def count_hyperelliptic(f, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """#C(F_{p^k}) for the smooth model of y^2 = f(x): the affine count plus
    1 point at infinity for odd deg f, plus 1 + chi(leading coeff) for even
    deg f."""
    if isinstance(f, HyperellipticModel):
        f = f.f
    if isinstance(f, QuarticModel):
        f = f.rhs_poly()
    coeffs = _reduce_coeffs(f.coeffs, p)
    if not _squarefree_mod_p(coeffs, p):
        raise BadPrimeError(f"p = {p} is a bad prime: right side not squarefree mod p")
    affine = affine_count_rhs(coeffs, p, k, max_field_size, seed)
    if len(coeffs) % 2 == 0:  # odd degree
        return affine + 1
    return affine + 1 + quadratic_character(coeffs[-1], p) ** k


def count_space_curve(A, B, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """#C(F_{p^k}) for the smooth model of {y^2 = x^3 - Ax + B,
    x^2 + xz + z^2 = A}, counted through the degree-2 projection
    (x, y, z) -> (x, y) whose z-fiber has discriminant 4A - 3x^2; the two
    points over infinity are rational iff -3 is a square."""
    c = build_thm1(Fraction(A), Fraction(B))
    cubic = _reduce_coeffs(c.cubic.rhs_poly().coeffs, p)
    if not _squarefree_mod_p(cubic, p):
        raise BadPrimeError(f"p = {p} is a bad prime for the space curve")
    Ai = _reduce_coeffs([Fraction(A)], p)[0]
    disc = [4 * Ai % p, 0, (-3) % p]
    affine = affine_count_space(cubic, disc, p, k, max_field_size, seed)
    return affine + 1 + quadratic_character(-3, p) ** k


# ---------------------------------------------------------------------------
# L-polynomials


@dataclass(frozen=True)
class LPolynomial:
    """Numerator of the zeta function: degree 2g, constant term 1, with
    c_{2g-i} = q^{g-i} c_i."""

    coeffs: tuple  # ascending, length 2g + 1
    q: int
    g: int

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.g + 1 or self.coeffs[0] != 1:
            raise CountingBugError("malformed L-polynomial")
        if not self.functional_equation_ok():
            raise CountingBugError(f"functional equation fails: {self.coeffs}")

    def functional_equation_ok(self):
        g, q = self.g, self.q
        return all(self.coeffs[2 * g - i] == q ** (g - i) * self.coeffs[i] for i in range(g + 1))

    @classmethod
    def from_counts(cls, counts):
        """Newton's identities on S_k = q^k + 1 - N_k, functional equation
        for the upper half."""
        q = counts.q
        g = len(counts.counts)
        if not counts.weil_ok(g):
            raise CountingBugError(
                f"counts {counts.counts} over F_{q} violate the genus-{g} Weil bounds"
            )
        S = [None] + [q**k + 1 - n for k, n in enumerate(counts.counts, start=1)]
        c = [1] + [0] * (2 * g)
        for k in range(1, g + 1):
            acc = S[k] + sum(c[i] * S[k - i] for i in range(1, k))
            if acc % k:
                raise CountingBugError(f"Newton identity gives non-integer c_{k}")
            c[k] = -(acc // k)
        for j in range(1, g + 1):
            c[g + j] = q**j * c[g - j]
        return cls(coeffs=tuple(c), q=q, g=g)

    def power_sums(self, up_to):
        """S_1..S_up_to of the inverse roots."""
        c = list(self.coeffs) + [0] * max(0, up_to - 2 * self.g)
        S = [None]
        for k in range(1, up_to + 1):
            acc = k * c[k] if k <= 2 * self.g else 0
            acc += sum(c[i] * S[k - i] for i in range(1, min(k, 2 * self.g + 1)))
            S.append(-acc)
        return S[1:]

    def predicted_count(self, k):
        return self.q**k + 1 - self.power_sums(k)[k - 1]

    def __mul__(self, other):
        if self.q != other.q:
            raise CountingBugError("mixed field sizes")
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return LPolynomial(coeffs=tuple(out), q=self.q, g=self.g + other.g)

    def trace(self):
        """Sum of the inverse roots (q + 1 - N_1 for a curve)."""
        return -self.coeffs[1]

    def serialize(self):
        return {"q": self.q, "g": self.g, "coeffs": [int(c) for c in self.coeffs]}


def lpoly_divides(small, big):
    """Exact division in Z[T]: (True, quotient coeffs) when small | big with
    an integer quotient, else (False, None)."""
    if small.q != big.q:
        raise CountingBugError("mixed field sizes")
    a = [Fraction(c) for c in big.coeffs]
    b = [Fraction(c) for c in small.coeffs]
    if len(b) > len(a):
        return False, None
    # ascending-order division (the divisor has unit constant term)
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    rem = list(a)
    for i in range(len(quot)):
        coef = rem[i] / b[0]
        quot[i] = coef
        for j, bj in enumerate(b):
            rem[i + j] -= coef * bj
    if any(rem):
        return False, None
    if any(c.denominator != 1 for c in quot):
        return False, None
    return True, tuple(int(c) for c in quot)


def lpoly_from_quotient(quot, q, g):
    return LPolynomial(coeffs=tuple(quot), q=q, g=g)


def lpoly_irreducible_over_Z(L):
    """Complete linear+quadratic factor search for a degree-4 L-polynomial:
    irreducibility of the monic reciprocal T^4 + c1 T^3 + c2 T^2 + c3 T + c4
    over Z (hence over Q)."""
    if L.g != 2:
        raise ValueError("irreducibility test implemented for degree-4 only")
    _, c1, c2, c3, c4 = L.coeffs
    divisors = [1]
    for p, e in factorize(c4).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    divisors = sorted(set(divisors))

    def M(t):
        return t**4 + c1 * t**3 + c2 * t**2 + c3 * t + c4

    for r in divisors:
        if M(r) == 0 or M(-r) == 0:
            return False
    # quadratic factors (T^2 + a T + b)(T^2 + g T + d), b d = c4
    for b in divisors + [-d for d in divisors]:
        d, rem = divmod(c4, b)
        if rem:
            continue
        if d != b:
            num = c3 - c1 * b
            den = d - b
            if num % den:
                continue
            a = num // den
            gm = c1 - a
            if b + d + a * gm == c2 and a * d + gm * b == c3:
                return False
        else:
            if c3 != b * c1:
                continue
            # a^2 - c1 a + (c2 - 2b) = 0
            disc = c1 * c1 - 4 * (c2 - 2 * b)
            if disc < 0:
                continue
            import math

            s = math.isqrt(disc)
            if s * s != disc:
                continue
            if (c1 + s) % 2 == 0 or (c1 - s) % 2 == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# per-curve drivers


def lpoly_weierstrass(model, p, max_field_size=MAX_FIELD_SIZE, seed=0):
    n1 = count_weierstrass(model, p, 1, max_field_size, seed)
    return LPolynomial.from_counts(CountVector(q=p, counts=(n1,)))


def lpoly_hyperelliptic(model, p, max_field_size=MAX_FIELD_SIZE, seed=0):
    if isinstance(model, QuarticModel):
        genus = 1
        f = model.rhs_poly()
    else:
        genus = model.genus
        f = model.f
    counts = tuple(
        count_hyperelliptic(f, p, k, max_field_size, seed) for k in range(1, genus + 1)
    )
    return LPolynomial.from_counts(CountVector(q=p, counts=counts))


def lpoly_space_curve(A, B, p, max_field_size=MAX_FIELD_SIZE, seed=0):
    counts = tuple(count_space_curve(A, B, p, k, max_field_size, seed) for k in range(1, 4))
    return LPolynomial.from_counts(CountVector(q=p, counts=counts))


def overdetermination_check(model_counter, L, ks):
    """Recompute N_k independently for each k and compare with the counts the
    L-polynomial predicts; returns the list of (k, predicted, computed)."""
    rows = []
    for k in ks:
        computed = model_counter(k)
        rows.append((k, L.predicted_count(k), computed))
    return rows


# ---------------------------------------------------------------------------
# the decomposition report


@dataclass(frozen=True)
class PrimeDecomposition:
    p: int
    L_E: LPolynomial
    L_Eprime: LPolynomial
    L_H: LPolynomial
    L_H1: LPolynomial
    L_H2: LPolynomial
    L_F: LPolynomial
    F_irreducible: bool
    space_curve_count: int | None
    space_curve_predicted: int | None

    @property
    def space_curve_ok(self):
        return (
            self.space_curve_count is not None
            and self.space_curve_count == self.space_curve_predicted
        )


@dataclass(frozen=True)
class RemarksReport:
    A: Fraction
    B: Fraction | None
    results: tuple  # PrimeDecomposition per good prime
    skipped: tuple  # (p, reason)
    structural_alarm: tuple  # primes where L_E L_H != L_H1 L_H2

    def all_passed(self):
        return not self.structural_alarm and all(
            r.space_curve_ok or r.space_curve_count is None for r in self.results
        )

    def simplicity_witnesses(self):
        return [r.p for r in self.results if r.F_irreducible]


def check_remarks(A, primes, B=None, max_field_size=MAX_FIELD_SIZE, seed=0):
    """For each good prime: the full L-polynomial splitting of the family,
    the residual factor's irreducibility, and (when B is given) the trace
    consistency of the space curve against its two cubic factors."""
    A = Fraction(A)
    fam = build_family(A)
    results = []
    skipped = []
    alarms = []
    for p in primes:
        if not is_good_prime(A, p, B=B):
            skipped.append((p, "bad prime for the family"))
            continue
        LE = lpoly_weierstrass(fam.E, p, max_field_size, seed)
        LEp = lpoly_weierstrass(fam.Eprime, p, max_field_size, seed)
        LH = lpoly_hyperelliptic(fam.H, p, max_field_size, seed)
        LH1 = lpoly_hyperelliptic(fam.H1, p, max_field_size, seed)
        LH2 = lpoly_hyperelliptic(fam.H2, p, max_field_size, seed)

        # genus-2 quotient splits as E x E'
        if (LE * LEp).coeffs != LH2.coeffs:
            raise CountingBugError(
                f"p = {p}: L of the genus-2 quotient differs from L_E * L_E' "
                f"({LH2.coeffs} vs {(LE * LEp).coeffs})"
            )
        # E^2 x E' divides the genus-5 Jacobian, residual degree 4
        ok, quot = lpoly_divides(LE * LE * LEp, LH)
        if not ok:
            raise CountingBugError(f"p = {p}: L_E^2 L_E' does not divide L_H")
        LF = lpoly_from_quotient(quot, p, 2)
        # genus-3 quotient splits as E x F
        if (LE * LF).coeffs != LH1.coeffs:
            raise CountingBugError(f"p = {p}: L of the genus-3 quotient differs from L_E * L_F")
        # derived multiset relation (the two degree-2 quotients split the
        # Jacobian): failure is an alarm, not a proof failure
        if LH.coeffs != (LH1 * LH2).coeffs:
            alarms.append(p)

        if B is not None:
            c = build_thm1(A, Fraction(B))
            n = count_space_curve(A, B, p, 1, max_field_size, seed)
            aE = p + 1 - count_weierstrass(c.cubic, p, 1, max_field_size, seed)
            aEp = p + 1 - count_weierstrass(c.aux_cubic, p, 1, max_field_size, seed)
            predicted = p + 1 - (2 * aE + aEp)
            r1n, r1p = n, predicted
        else:
            r1n, r1p = None, None

        results.append(
            PrimeDecomposition(
                p=p,
                L_E=LE,
                L_Eprime=LEp,
                L_H=LH,
                L_H1=LH1,
                L_H2=LH2,
                L_F=LF,
                F_irreducible=lpoly_irreducible_over_Z(LF),
                space_curve_count=r1n,
                space_curve_predicted=r1p,
            )
        )
    return RemarksReport(
        A=A,
        B=None if B is None else Fraction(B),
        results=tuple(results),
        skipped=tuple(skipped),
        structural_alarm=tuple(alarms),
    )
