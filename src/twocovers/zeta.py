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

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Fp, Poly, factorize, is_prime, poly_divmod, quadratic_character, squarefree
from .constructions import build_family, build_thm1
from .counting import (
    MAX_FIELD_SIZE,
    BadPrimeError,
    affine_count_rhs,
    affine_count_space,
)


class CountingBugError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the mod-p gate


def _mod_p(c, p):
    c = Fraction(c)
    if c.denominator % p == 0:
        raise BadPrimeError(f"p = {p} divides a coefficient denominator")
    return c.numerator * pow(c.denominator, -1, p) % p


def _rhs(model):
    """f of y^2 = f(x), from a Poly or from any model with rhs_poly()."""
    return model if isinstance(model, Poly) else model.rhs_poly()


def _reduce_rhs(model, p):
    """The coefficients of f mod p (ascending), when y^2 = f(x) has good
    reduction at p: BadPrimeError when p divides a denominator or the
    leading coefficient, or when f mod p is not squarefree."""
    f = _rhs(model)
    coeffs = [_mod_p(c, p) for c in f.coeffs]
    fp = Poly([Fp(c, p) for c in coeffs])
    if fp.degree != f.degree:
        raise BadPrimeError(f"p = {p} is a bad prime: p divides the leading coefficient")
    if fp.degree < 1 or not squarefree(fp):
        raise BadPrimeError(f"p = {p} is a bad prime: right side not squarefree mod p")
    return coeffs


def is_good_prime(A, p, B=None):
    """p > 3 at which every model of the family (and, when B is given, both
    cubics of the space curve) passes the mod-p gate _reduce_rhs.

    In closed form, with A = a/b in lowest terms: p is good iff p does not
    divide a b (4a - 27b), nor, when B is given, den(B) num(4A^3 - 27B^2).
    Every coefficient denominator divides a power of b, den(B) and 2, the
    leading coefficients are 1 or A, and the discriminants are, up to signs
    and powers of 2 and 3, A^2 (4A - 27) (E, E' and D), A^8 (4A - 27)^5 (H),
    A^4 (4A - 27)^4 (H1), A^4 (4A - 27)^2 (H2), 4A^3 - 27B^2 (the cubic) and
    A^6 (4A^3 - 27B^2) (the auxiliary cubic); tools/identity_oracle.py,
    item 11, derives them.  The degenerate parameters raise the model
    builders' errors."""
    if p <= 3 or not is_prime(p):
        return False
    A = Fraction(A)
    if not A or 4 * A == 27:
        build_family(A)  # raises: A = 0, or E is singular
    a, b = A.numerator, A.denominator
    bad = a * b * (4 * a - 27 * b)
    if B is not None:
        B = Fraction(B)
        if 4 * A**3 == 27 * B**2:
            build_thm1(A, B)  # raises: the cubic is singular
        bad *= B.denominator * (4 * A**3 - 27 * B**2).numerator
    return bad % p != 0


def good_primes(A, bound, B=None):
    return [p for p in range(5, bound + 1) if is_good_prime(A, p, B=B)]


# ---------------------------------------------------------------------------
# counts


def _count_reduced(coeffs, p, k, max_field_size, seed):
    """#C(F_{p^k}) for y^2 = f(x), from the coefficients _reduce_rhs gives."""
    affine = affine_count_rhs(coeffs, p, k, max_field_size, seed)
    if len(coeffs) % 2 == 0:  # odd degree
        return affine + 1
    return affine + 1 + quadratic_character(coeffs[-1], p) ** k


def count_hyperelliptic(model, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """#C(F_{p^k}) for the smooth model of y^2 = f(x), f a Poly or any
    model's rhs_poly(): the affine count plus 1 point at infinity for odd
    deg f, plus 1 + chi(leading coeff) for even deg f."""
    return _count_reduced(_reduce_rhs(model, p), p, k, max_field_size, seed)


# A public name, and perfbench/layers.py wraps it: the cubic is one more y^2 = f(x).
count_weierstrass = count_hyperelliptic


def _reduce_space_curve(c, p):
    """(cubic, disc) mod p for the space curve c: the cubic through the gate,
    and the z-fiber discriminant 4A - 3x^2."""
    return _reduce_rhs(c.cubic, p), [4 * _mod_p(c.A, p) % p, 0, (-3) % p]


def _count_space_reduced(cubic, disc, p, k, max_field_size, seed):
    """#C(F_{p^k}) for the space curve, from what _reduce_space_curve gives."""
    affine = affine_count_space(cubic, disc, p, k, max_field_size, seed)
    return affine + 1 + quadratic_character(-3, p) ** k


def count_space_curve(A, B, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """#C(F_{p^k}) for the smooth model of {y^2 = x^3 - Ax + B,
    x^2 + xz + z^2 = A}, counted through the degree-2 projection
    (x, y, z) -> (x, y) whose z-fiber has discriminant 4A - 3x^2; the two
    points over infinity are rational iff -3 is a square."""
    cubic, disc = _reduce_space_curve(build_thm1(Fraction(A), Fraction(B)), p)
    return _count_space_reduced(cubic, disc, p, k, max_field_size, seed)


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
    def from_counts(cls, q, counts):
        """From N_1..N_g over F_{q^k}: Newton's identities on
        S_k = q^k + 1 - N_k, functional equation for the upper half."""
        counts = tuple(counts)
        g = len(counts)
        if any((n - q**k - 1) ** 2 > 4 * g * g * q**k for k, n in enumerate(counts, start=1)):
            raise CountingBugError(f"counts {counts} over F_{q} violate the genus-{g} Weil bounds")
        S = [None] + [q**k + 1 - n for k, n in enumerate(counts, start=1)]
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
        prod = Poly(self.coeffs) * Poly(other.coeffs)
        return LPolynomial(coeffs=tuple(prod.coeffs), q=self.q, g=self.g + other.g)

    def serialize(self):
        return {"q": self.q, "g": self.g, "coeffs": [int(c) for c in self.coeffs]}


def lpoly_divides(small, big):
    """Exact division in Z[T]: (True, quotient coeffs) when small | big with
    an integer quotient, else (False, None).  The divisor's constant term is
    1, so its reversal is monic and the division never leaves Z."""
    if small.q != big.q:
        raise CountingBugError("mixed field sizes")
    quot, rem = poly_divmod(Poly(big.coeffs[::-1]), Poly(small.coeffs[::-1]))
    if rem:
        return False, None
    return True, tuple(quot.coeffs[::-1])


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
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            if (c1 + s) % 2 == 0 or (c1 - s) % 2 == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# per-curve drivers


def lpoly_hyperelliptic(model, p, max_field_size=MAX_FIELD_SIZE, seed=0):
    """L-polynomial of y^2 = f(x), f a Poly or any model's rhs_poly(), from
    the counts over F_{p^k} for k = 1..g, g = (deg f - 1) // 2; f passes the
    mod-p gate once, not once per k."""
    coeffs = _reduce_rhs(model, p)
    genus = (len(coeffs) - 2) // 2
    counts = [_count_reduced(coeffs, p, k, max_field_size, seed) for k in range(1, genus + 1)]
    return LPolynomial.from_counts(p, counts)


# A public name, and perfbench/layers.py wraps it: the cubic is one more y^2 = f(x).
lpoly_weierstrass = lpoly_hyperelliptic


def lpoly_space_curve(A, B, p, max_field_size=MAX_FIELD_SIZE, seed=0):
    cubic, disc = _reduce_space_curve(build_thm1(Fraction(A), Fraction(B)), p)
    counts = [_count_space_reduced(cubic, disc, p, k, max_field_size, seed) for k in range(1, 4)]
    return LPolynomial.from_counts(p, counts)


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

    def all_passed(self):
        return all(r.space_curve_ok or r.space_curve_count is None for r in self.results)

    def simplicity_witnesses(self):
        return [r.p for r in self.results if r.F_irreducible]


def check_remarks(A, primes, B=None, max_field_size=MAX_FIELD_SIZE, seed=0):
    """For each good prime: the full L-polynomial splitting of the family,
    the residual factor's irreducibility, and (when B is given) the trace
    consistency of the space curve against its two cubic factors."""
    A = Fraction(A)
    fam = build_family(A)
    c = None if B is None else build_thm1(A, Fraction(B))
    results = []
    skipped = []
    for p in primes:
        if not is_good_prime(A, p, B=B):
            skipped.append((p, "bad prime for the family"))
            continue
        LE = lpoly_hyperelliptic(fam.E, p, max_field_size, seed)
        LEp = lpoly_hyperelliptic(fam.Eprime, p, max_field_size, seed)
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
        LF = LPolynomial(coeffs=quot, q=p, g=2)
        # genus-3 quotient splits as E x F
        if (LE * LF).coeffs != LH1.coeffs:
            raise CountingBugError(f"p = {p}: L of the genus-3 quotient differs from L_E * L_F")

        if c is not None:
            cubic, disc = _reduce_space_curve(c, p)
            n = _count_space_reduced(cubic, disc, p, 1, max_field_size, seed)
            aE = p + 1 - count_hyperelliptic(c.cubic, p, 1, max_field_size, seed)
            aEp = p + 1 - count_hyperelliptic(c.aux_cubic, p, 1, max_field_size, seed)
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
    )
