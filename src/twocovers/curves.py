"""Curve models, invariants, the elliptic group law and quadratic twists.

Cubic models are kept in medium Weierstrass form y^2 = x^3 + a2 x^2 + a4 x + a6
(some of the auxiliary curves here have a2 != 0).  Coefficients can be
Fractions, prime-field elements, or polynomials in a parameter.  The one map
from a quartic model to a cubic that the package needs, D -> E, is a constant
of the family and lives in constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, squarefree


class CurveError(ValueError):
    pass


class SingularModelError(CurveError):
    pass


class TwistMismatchError(CurveError):
    pass


class OffCurveError(CurveError):
    pass


# ---------------------------------------------------------------------------
# models


class CubicModel:
    """y^2 = x^3 + a2 x^2 + a4 x + a6, nonsingular unless built via .singular()."""

    __slots__ = ("a2", "a4", "a6")

    def __init__(self, a2, a4, a6):
        self.a2 = a2
        self.a4 = a4
        self.a6 = a6
        if not discriminant(self):
            raise SingularModelError(f"singular cubic model {self}")

    @classmethod
    def singular(cls, a2, a4, a6):
        """Bypass the nonsingularity check (negative tests only)."""
        m = object.__new__(cls)
        m.a2 = a2
        m.a4 = a4
        m.a6 = a6
        return m

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def rhs_poly(self):
        return Poly([self.a6, self.a4, self.a2, _one_like(self.a6)])

    def coefficients(self):
        return (self.a2, self.a4, self.a6)

    def __eq__(self, other):
        return isinstance(other, CubicModel) and self.coefficients() == other.coefficients()

    def __hash__(self):
        return hash(("cubic",) + self.coefficients())

    def __repr__(self):
        return f"CubicModel(y^2 = x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6}))"


def _one_like(c):
    if isinstance(c, Poly):
        return Poly.const(_one_like(c.coeffs[0])) if c.coeffs else Poly([Fraction(1)])
    return c * 0 + 1


class QuarticModel:
    """y^2 = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, squarefree right side."""

    __slots__ = ("c4", "c3", "c2", "c1", "c0")

    def __init__(self, c4, c3, c2, c1, c0):
        self.c4 = c4
        self.c3 = c3
        self.c2 = c2
        self.c1 = c1
        self.c0 = c0
        f = self.rhs_poly()
        if f.degree < 3 or not _generic_squarefree(f):
            raise SingularModelError(f"quartic right side {f!r} is not squarefree of degree >= 3")

    def rhs(self, x):
        return (((self.c4 * x + self.c3) * x + self.c2) * x + self.c1) * x + self.c0

    def rhs_poly(self):
        return Poly([self.c0, self.c1, self.c2, self.c3, self.c4])

    def coefficients(self):
        return (self.c4, self.c3, self.c2, self.c1, self.c0)

    def __eq__(self, other):
        return isinstance(other, QuarticModel) and self.coefficients() == other.coefficients()

    def __repr__(self):
        return f"QuarticModel(y^2 = {self.rhs_poly()!r})"


class HyperellipticModel:
    """y^2 = f(x) with f squarefree; genus floor((deg f - 1)/2)."""

    __slots__ = ("f", "genus")

    def __init__(self, f):
        if not isinstance(f, Poly):
            f = Poly(f)
        self.f = f
        self.genus = hyperelliptic_genus(f)

    def rhs(self, x):
        return self.f(x)

    def rhs_poly(self):
        return self.f

    def __eq__(self, other):
        return isinstance(other, HyperellipticModel) and self.f == other.f

    def __repr__(self):
        return f"HyperellipticModel(y^2 = deg-{self.f.degree} poly, genus {self.genus})"


def _generic_squarefree(f):
    """Squarefreeness over the fraction field of the coefficient ring.

    Coefficients in Q[A] are decided exactly by specialising A.  With
    n = deg_x f and d the largest A-degree of a coefficient, f is squarefree
    over Q(A) iff Res_x(f, f') != 0.  That resultant has A-degree at most
    (2n - 1)d and the leading coefficient has at most d roots, so if f is
    squarefree some a among the 2nd + 1 values 0, 1, ..., 2nd keeps
    deg f(a, x) = n with f(a, x) squarefree over Q; conversely such an a
    makes Res_x(f, f')(a) nonzero.
    """
    if not any(isinstance(c, Poly) for c in f.coeffs):
        return squarefree(f)
    n = f.degree
    d = max(c.degree if isinstance(c, Poly) else 0 for c in f.coeffs)
    for a in range(2 * n * d + 1):
        fa = Poly([Fraction(c(a) if isinstance(c, Poly) else c) for c in f.coeffs])
        if fa.degree == n and squarefree(fa):
            return True
    return False


def hyperelliptic_genus(f):
    """floor((deg f - 1)/2) for squarefree f."""
    if not isinstance(f, Poly):
        f = Poly(f)
    if f.degree < 3:
        raise CurveError(f"degree {f.degree} right side does not define a positive-genus curve")
    if not _generic_squarefree(f):
        raise SingularModelError("right side has a repeated root (genus drop)")
    return (f.degree - 1) // 2


# ---------------------------------------------------------------------------
# invariants


def discriminant(c):
    """Discriminant of a cubic model via the b-covariants."""
    b2 = 4 * c.a2
    b4 = 2 * c.a4
    b6 = 4 * c.a6
    b8 = 4 * c.a2 * c.a6 - c.a4 * c.a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def c_invariants(c):
    b2 = 4 * c.a2
    b4 = 2 * c.a4
    b6 = 4 * c.a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return c4, c6


def j_invariant(c):
    disc = discriminant(c)
    if not disc:
        raise SingularModelError("j-invariant of a singular model")
    c4, _ = c_invariants(c)
    return c4**3 / disc


# ---------------------------------------------------------------------------
# points and group law


@dataclass(frozen=True)
class ECPoint:
    x: object = None
    y: object = None
    infinity: bool = False

    @classmethod
    def zero(cls):
        return cls(infinity=True)

    def __repr__(self):
        return "O" if self.infinity else f"({self.x}, {self.y})"


def on_curve(model, point):
    """Exact equation check; accepts cubic/quartic/hyperelliptic models
    (points as ECPoint or (x, y) pairs) and space-curve triples."""
    if isinstance(point, ECPoint):
        if point.infinity:
            return True
        x, y = point.x, point.y
    else:
        if len(point) == 3:
            x, y, z = point
            cub = model.cubic
            return y * y == cub.rhs(x) and x * x + x * z + z * z == model.A
        x, y = point
    return y * y == model.rhs(x)


def ec_neg(P):
    if P.infinity:
        return P
    return ECPoint(P.x, -P.y)


def ec_add(c, P, Q):
    """Chord-tangent addition on a cubic model with O as identity."""
    for R in (P, Q):
        if not on_curve(c, R):
            raise OffCurveError(f"{R!r} is not on {c!r}")
    return _ec_add_unchecked(c, P, Q)


def _ec_add_unchecked(c, P, Q):
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return ECPoint.zero()
        lam = (3 * P.x * P.x + 2 * c.a2 * P.x + c.a4) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - c.a2 - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return ECPoint(x3, y3)


def ec_scalar(c, n, P):
    """n P by double-and-add."""
    if not on_curve(c, P):
        raise OffCurveError(f"{P!r} is not on {c!r}")
    if n < 0:
        n, P = -n, ec_neg(P)
    acc = ECPoint.zero()
    base = P
    while n:
        if n & 1:
            acc = _ec_add_unchecked(c, acc, base)
        n >>= 1
        if n:
            base = _ec_add_unchecked(c, base, base)
    return acc


# ---------------------------------------------------------------------------
# quadratic twists


def quadratic_twist(model, d):
    """Normalized quadratic twist.

    Cubic: y^2 = x^3 + a2 d x^2 + a4 d^2 x + a6 d^3 (the integral form of
    d y^2 = p(x) under x -> dx, y -> d^2 y on the literal model).
    Hyperelliptic: y^2 = d f(x) (the literal d y^2 = f(x) times d, points
    (x, y) <-> (x, d y)).
    """
    if not d:
        raise CurveError("twist factor d must be nonzero")
    if isinstance(model, CubicModel):
        return CubicModel(model.a2 * d, model.a4 * d * d, model.a6 * d * d * d)
    if isinstance(model, HyperellipticModel):
        return HyperellipticModel(model.f * d)
    raise CurveError(f"cannot twist {model!r}")


def twist_factor(c1, c2):
    """The d with a4(c2) = d^2 a4(c1) and a6(c2) = d^3 a6(c1).

    Requires equal j-invariants away from 0 and 1728 and a2 = 0 on both
    models; then d = a4(c1) a6(c2) / (a4(c2) a6(c1)).
    """
    if c1.a2 or c2.a2:
        raise TwistMismatchError("twist_factor requires a2 = 0 models")
    j1, j2 = j_invariant(c1), j_invariant(c2)
    if j1 != j2:
        raise TwistMismatchError(f"j-invariants differ: {j1} != {j2}")
    if not j1 or j1 == 1728:
        raise TwistMismatchError(f"j = {j1} has extra twists; factor is not well defined")
    d = (c1.a4 * c2.a6) / (c2.a4 * c1.a6)
    if c2.a4 != d * d * c1.a4 or c2.a6 != d * d * d * c1.a6:
        raise TwistMismatchError("models are not quadratic twists of each other")
    return d


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI)


def _frac_pair(c):
    f = Fraction(c)
    return [str(f.numerator), str(f.denominator)]


def model_to_obj(model):
    """{"model": kind, "coeffs": [[num, den], ...]} with ascending-degree
    right-hand-side coefficients as exact base-10 strings."""
    if isinstance(model, CubicModel):
        kind, coeffs = "cubic", [model.a6, model.a4, model.a2, 1]
    elif isinstance(model, QuarticModel):
        kind, coeffs = "quartic", [model.c0, model.c1, model.c2, model.c3, model.c4]
    elif isinstance(model, HyperellipticModel):
        kind, coeffs = "hyperelliptic", list(model.f.coeffs)
    else:
        raise CurveError(f"cannot serialize {model!r}")
    return {"model": kind, "coeffs": [_frac_pair(c) for c in coeffs]}
