"""Builders for the curve family and its covering maps.

Everything is parametrized by a scalar A (a Fraction, or a polynomial
generator for symbolic work over Q[A]):

    E  : y^2 = x^3 - A x + A
    D  : y^2 = x^4 + x^3 + B,  B = A/64
    H  : y^2 = A (x+1)^4 (x^2+1)^4 - 64 x^3 (x^2+x+1)^3   (genus 5)
    H1 : y^2 = (x^2-4) (A (x+2)^2 x^4 - 64 (x+1)^3)       (genus 3)
    H2 : y^2 = A (x+2)^2 x^4 - 64 (x+1)^3                 (genus 2)
    E' : y^2 = x^3 + A x^2 + 2A x + A

plus the space curve C : {y^2 = x^3 - Ax + B, x^2 + xz + z^2 = A} with its
auxiliary cubic y^2 = x^3 - 27B x^2 + 27A^3 x.

The two degree-3 covers H -> D are t -> x(t) = -(t^3-1)/(t^4-1) resp.
z(t) = t x(t), with sheet coordinate scaled by (t-1)^2/(8 (t^4-1)^2); each
cover H -> E is the composite H -> D -> E with D_TO_E, one explicit
isomorphism D -> E whose coefficients do not depend on A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .algebra import Poly
from .curves import (
    CubicModel,
    CurveError,
    ECPoint,
    HyperellipticModel,
    QuarticModel,
    SingularModelError,
    _ec_add_unchecked,
    ec_neg,
    quadratic_twist,
)


class UnsupportedJError(CurveError):
    pass


class PoleError(CurveError):
    pass


# the two points at infinity of the degree-12 model map, through either
# cover, to (1, 1) (positive sheet) and to O (negative sheet); (1, 1) lies on
# every member y^2 = x^3 - Ax + A of the family
INFINITY_IMAGE = (Fraction(1), Fraction(1))

# the isomorphism D -> E, (u, v) -> (xa(u) + xb(u) v, ya(u) + yb(u) v) with
# xa = 8u^2 + 4u, xb = -8, ya = -32u^3 - 24u^2, yb = 32u + 8, the same for
# every A (tools/identity_oracle.py, item 6).  It tends to INFINITY_IMAGE
# along the branch v ~ +u^2 of D (item 9) and to O along v ~ -u^2.  Its
# inverse is u = (X + Y)/(4(1 - X)), v = (xa(u) - X)/8, because
# xa + ya = 4u(1 - xa) and xb + yb = -4u xb.
D_TO_E = (
    (Poly(map(Fraction, (0, 4, 8))), Poly(map(Fraction, (-8,)))),
    (Poly(map(Fraction, (0, 0, -24, -32))), Poly(map(Fraction, (8, 32)))),
)


# ---------------------------------------------------------------------------
# parameters


def params_from_j(j):
    """A = 27 j / (4 (j - 1728)); rejects j in {0, 1728}."""
    if j == 0 or j == 1728:
        raise UnsupportedJError(
            f"j = {j} is outside the supported range: the construction needs j != 0, 1728"
        )
    A = 27 * j / (4 * (j - 1728))
    if A == 0 or 4 * A == 27:
        raise UnsupportedJError(f"degenerate parameter A = {A} from j = {j}")
    return A


def _times_param(f, A):
    """f * A coefficient-wise; safe when A is itself a Poly generator."""
    return f.map_coeffs(lambda c: c * A)


def genus5_poly(A):
    """A (x+1)^4 (x^2+1)^4 - 64 x^3 (x^2+x+1)^3, expanded."""
    x = Poly([0, 1])
    p = (x + 1) ** 4 * (x * x + 1) ** 4
    q = x**3 * (x * x + x + 1) ** 3
    return _times_param(p, A) - 64 * q


def genus2_poly(A):
    """A (u+2)^2 u^4 - 64 (u+1)^3, expanded."""
    u = Poly([0, 1])
    return _times_param((u + 2) ** 2 * u**4, A) - 64 * (u + 1) ** 3


def genus3_poly(A):
    u = Poly([0, 1])
    return (u * u - 4) * genus2_poly(A)


@dataclass(frozen=True)
class Family:
    A: object
    E: CubicModel
    D: QuarticModel
    H: HyperellipticModel
    H1: HyperellipticModel
    H2: HyperellipticModel
    Eprime: CubicModel


def build_family(A):
    """All six models for a parameter A; errors on any degeneration.

    Only A = 0 (rejected below) and 4A = 27 (by E's constructor) degenerate,
    so no genus check is needed: h, H1's octic and H2's sextic have leading
    coefficient A and discriminants 2^84 A^8 (4A - 27)^5, 2^64 A^4 (4A - 27)^4
    and 2^36 A^4 (4A - 27)^2 (tools/identity_oracle.py, item 11)."""
    if not A:
        raise CurveError("A must be nonzero")
    B = A * Fraction(1, 64)
    try:
        E = CubicModel(0 * A, -A, A)
        Eprime = CubicModel(A, 2 * A, A)
    except SingularModelError as exc:
        raise SingularModelError(f"A = {A}: {exc}") from exc
    D = QuarticModel(1, 1, 0, 0, B)
    H = HyperellipticModel(genus5_poly(A))
    H1 = HyperellipticModel(genus3_poly(A))
    H2 = HyperellipticModel(genus2_poly(A))
    return Family(A=A, E=E, D=D, H=H, H1=H1, H2=H2, Eprime=Eprime)


# ---------------------------------------------------------------------------
# the space-curve family


@dataclass(frozen=True)
class SpaceCurveC:
    """{y^2 = x^3 - Ax + B} intersected with {x^2 + xz + z^2 = A} in 3-space."""

    A: object
    B: object
    cubic: CubicModel
    aux_cubic: CubicModel


def build_thm1(A, B):
    if not A:
        raise CurveError("A must be nonzero")
    cubic = CubicModel(0 * A, -A, B)
    aux = CubicModel(-27 * B, 27 * A**3, 0 * A)
    return SpaceCurveC(A=A, B=B, cubic=cubic, aux_cubic=aux)


# ---------------------------------------------------------------------------
# genus-0 parametrization


def parametrize(t):
    """Evaluate the parametrization; poles at t^4 = 1."""
    t4 = t**4
    if t4 == 1:
        raise PoleError(f"t = {t} is a pole of the parametrization (t^4 = 1)")
    x = -(t**3 - 1) / (t4 - 1)
    return x, t * x


def plane_relation_poly():
    """(x^4-z^4)/(x-z) + (x^3-z^3)/(x-z) as a Poly in z over Q[x]."""
    x = Poly([Fraction(0), Fraction(1)])
    one = Poly([Fraction(1)])
    # z-degree 0..3 coefficients: x^3+x^2, x^2+x, x+1, 1
    return Poly([x**3 + x * x, x * x + x, x + one, one])


def conic_poly(A):
    """x^2 + xz + z^2 - A, the conic of the space curve C, as a Poly in z
    over R[x] (R = Q, or Q[A] for A the generator)."""
    zero, one = Fraction(0), Fraction(1)
    # z-degree 0..2 coefficients: x^2 - A, x, 1
    return Poly([Poly([-A, zero, one]), Poly([zero, one]), Poly([one])])


# ---------------------------------------------------------------------------
# covering maps


@dataclass(frozen=True)
class CoveringMap:
    """H -> E as the composite H -> D -> E of its two factors.

    The cover into the quartic model D is (t, w) -> (u, v) = (num/q,
    w/(8 q^2)) with q = t^3+t^2+t+1; jacobian is the map D -> E as the pair
    ((xa, xb), (ya, yb)) of D_TO_E, and infinity_image its limit along
    v ~ +u^2.  These factors are both what verify_maps_on_curve proves and
    what evaluate computes.
    """

    name: str
    num: Poly
    q: Poly
    h: Poly
    target: CubicModel
    quartic: QuarticModel
    jacobian: tuple = D_TO_E
    infinity_image: tuple = INFINITY_IMAGE

    def map_coeffs(self, fn):
        """The same map with every coefficient sent through fn, e.g.
        reduction mod p; raises CurveError if a model degenerates."""
        return replace(
            self,
            num=self.num.map_coeffs(fn),
            q=self.q.map_coeffs(fn),
            h=self.h.map_coeffs(fn),
            target=CubicModel(*map(fn, self.target.coefficients())),
            quartic=QuarticModel(*map(fn, self.quartic.coefficients())),
            jacobian=tuple((a.map_coeffs(fn), b.map_coeffs(fn)) for a, b in self.jacobian),
            infinity_image=tuple(map(fn, self.infinity_image)),
        )

    def quartic_point(self, t0, w0):
        """(u, v) on D of the curve point (t0, w0); None where q(t0) = 0."""
        q0 = self.q(t0)
        if not q0:
            return None
        return self.num(t0) / q0, w0 / (8 * q0 * q0)

    def evaluate(self, t0, w0):
        """Image on the target cubic of the curve point (t0, w0).

        Where q(t0) = 0, u has a pole and w0 = s 8 num(t0)^2 with s = +-1,
        so v ~ s u^2: the point goes to infinity_image for s = 1 and to O
        for s = -1."""
        point = self.quartic_point(t0, w0)
        if point is not None:
            u, v = point
            (xa, xb), (ya, yb) = self.jacobian
            return ECPoint(xa(u) + xb(u) * v, ya(u) + yb(u) * v)
        top = 8 * self.num(t0) ** 2
        if w0 == top:
            return ECPoint(*self.infinity_image)
        if w0 == -top:
            return ECPoint.zero()
        raise CurveError(f"({t0}, {w0}) is not a point of w^2 = h(t)")

    def sheet_split(self, t0):
        """(alpha, beta, gamma, delta) with f(t0, w) = (alpha + beta w,
        gamma + delta w) for both roots w of w^2 = h(t0); None where u has a
        pole (q(t0) = 0)."""
        point = self.quartic_point(t0, 1)
        if point is None:
            return None
        u0, v1 = point
        (xa, xb), (ya, yb) = self.jacobian
        return xa(u0), xb(u0) * v1, ya(u0), yb(u0) * v1


def family_identity_residual(A, h):
    """64[(t^3-1)^4 - (t^3-1)^3(t^4-1)] + A (t^4-1)^4 - (t-1)^4 h(t): the
    zero polynomial exactly when h is the degree-12 model for A (a number
    or the generator of Q[A])."""
    t = Poly([0, 1])
    c3 = t**3 - 1
    c4 = t**4 - 1
    return 64 * (c3**4 - c3**3 * c4) + _times_param(c4**4, A) - (t - 1) ** 4 * h


def covering_maps(A):
    """The two degree-3 covers of the quartic, u = x(t) = -p/q for f1 and
    u = z(t) = -t p/q for f2 (p = t^2+t+1, q = t^3+t^2+t+1), each followed by
    D_TO_E into E.  That the composites land on E is proved by
    verify.verify_maps_on_curve, not checked here.

    The sheet scaling w -> w (t-1)^2 / (8 (t^4-1)^2) = w / (8 q(t)^2) rests
    on the defining identity of h, which verify.verify_thm2 proves over Q[A]
    and so at every rational A.
    """
    fam = build_family(A)
    h = fam.H.f

    t = Poly([Fraction(0), Fraction(1)])
    p = t * t + t + 1
    q = t**3 + t * t + t + 1

    def cover(name, num):
        return CoveringMap(name=name, num=num, q=q, h=h, target=fam.E, quartic=fam.D)

    return cover("f1", -p), cover("f2", -(t * p))


# ---------------------------------------------------------------------------
# odd covers


def _rational_sqrt(c):
    n, m = isqrt(max(c.numerator, 0)), isqrt(c.denominator)
    if n * n != c.numerator or m * m != c.denominator:
        raise CurveError(f"{c} is not a rational square")
    return Fraction(n, m)


def _check_parity(S):
    """S = f_i(P) + f_i(iota P) must be the common image (1, 1)."""
    if (S.x, S.y) != INFINITY_IMAGE:
        raise CurveError("odd cover has the wrong sheet parity: f_i(P) + f_i(iota P) != (1, 1)")


@dataclass(frozen=True)
class OddCoveringMaps:
    """The sheet-odd covers g_i = 2 f_i - (1, 1) of the two covers f1, f2.

    The identity f_i(P) + f_i(iota P) = (1, 1) for the sheet involution iota
    makes g_i odd in w: its x-coordinate is a function of t alone and its
    y-coordinate is w times one.  So g_i descends to every quadratic twist:
    on y^2 = d h(t) the point (t0, y0) is P = (t0, w) on w^2 = h(t) with
    w = y0/sqrt d, g_i(P) = (x, c' w) with x, c' rational, and (d x, d c' y0)
    lies on the normalized twist y^2 = x^3 - A d^2 x + A d^3.
    """

    f1: CoveringMap
    f2: CoveringMap

    def twisted_image(self, which, d, t0, y0):
        """Image on the normalized d-twist of E of the point (t0, y0) with
        y0^2 = d h(t0); O where g_i(P) = O.

        At P = (t0, w), R = f_i(P) = (alpha + beta w, gamma + delta w) with
        rational alpha..delta (CoveringMap.sheet_split), and iota P = (t0, -w)
        maps to the conjugate Rbar = (alpha - beta w, gamma - delta w).  As
        R + Rbar = (1, 1), g_i(P) = 2R - (1, 1) = R - Rbar, and both sums have
        closed forms in alpha..delta and rho = w^2 = y0^2/d, so the image is
        computed in Q without sqrt d.  Every image checks R + Rbar = (1, 1)
        exactly and raises CurveError ("wrong sheet parity") otherwise."""
        f = self.f1 if which == 1 else self.f2
        E = f.target
        split = f.sheet_split(t0)
        if split is None:
            # t0 = -1, the one rational pole of u: h(-1) = 64, so d is a
            # square and w = y0/sqrt d is rational
            root = _rational_sqrt(d)
            R, Rbar = f.evaluate(t0, y0 / root), f.evaluate(t0, -y0 / root)
            _check_parity(_ec_add_unchecked(E, R, Rbar))
            G = _ec_add_unchecked(E, R, ec_neg(Rbar))
            return G if G.infinity else ECPoint(d * G.x, d * d * G.y / root)
        alpha, beta, gamma, delta = split
        if not (beta and y0):
            # R and Rbar share their x-coordinate: either Rbar = R, 2R must
            # be (1, 1) and g_i(P) = O, or gamma = 0 and Rbar = -R, whose sum
            # O fails the check just as the doubling of (alpha, 0) does
            R = ECPoint(alpha, gamma)
            _check_parity(_ec_add_unchecked(E, R, R))
            return ECPoint.zero()
        a2 = E.a2
        mu = delta / beta  # slope of the chord through R and Rbar
        xs = mu * mu - a2 - 2 * alpha
        _check_parity(ECPoint(xs, mu * (alpha - xs) - gamma))
        k = gamma / (beta * y0 * y0 / d)  # slope of the chord through R and -Rbar, over w
        x = k * gamma / beta - a2 - 2 * alpha
        c = k * (alpha - x) - delta
        return ECPoint(d * x, d * c * y0)

    def twisted_curve(self, d):
        return quadratic_twist(self.f1.target, d)


def odd_covering_maps(A):
    """The odd covers for a concrete rational A."""
    return OddCoveringMaps(*covering_maps(Fraction(A)))
