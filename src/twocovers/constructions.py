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
z(t) = t x(t), with sheet coordinate scaled by (t-1)^2/(8 (t^4-1)^2); the
composite into E goes through the Jacobian of the quartic D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import INFINITY, Poly, RationalFunction, WLinear
from .curves import (
    CubicModel,
    CurveError,
    ECPoint,
    HyperellipticModel,
    QuarticModel,
    SingularModelError,
    hyperelliptic_genus,
    j_invariant,
    literal_twist,
    quadratic_twist,
    quartic_jacobian,
    twist_factor,
)


class UnsupportedJError(CurveError):
    pass


class GenusDropError(CurveError):
    pass


class RamificationError(CurveError):
    pass


class PoleError(CurveError):
    pass


# the two points at infinity of the degree-12 model map, through either
# cover, to (1, 1) (positive sheet) and to O (negative sheet); (1, 1) lies on
# every member y^2 = x^3 - Ax + A of the family
INFINITY_IMAGE = (Fraction(1), Fraction(1))


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ConstructionParams:
    j: object
    A: object


def params_from_j(j):
    """A = 27 j / (4 (j - 1728)); rejects j in {0, 1728}."""
    if j == 0 or j == 1728:
        raise UnsupportedJError(
            f"j = {j} is outside the supported range: the construction needs j != 0, 1728"
        )
    A = 27 * j / (4 * (j - 1728))
    if A == 0 or 4 * A == 27:
        raise UnsupportedJError(f"degenerate parameter A = {A} from j = {j}")
    return ConstructionParams(j=j, A=A)


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
    """All six models for a parameter A; errors on any degeneration."""
    if not A:
        raise CurveError("A must be nonzero")
    B = A * Fraction(1, 64)
    try:
        E = CubicModel(0 * A, -A, A)
        Eprime = CubicModel(A, 2 * A, A)
    except SingularModelError as exc:
        raise SingularModelError(f"A = {A}: {exc}") from exc
    try:
        D = QuarticModel(1, 1, 0, 0, B)
        H = HyperellipticModel(genus5_poly(A))
        H1 = HyperellipticModel(genus3_poly(A))
        H2 = HyperellipticModel(genus2_poly(A))
    except SingularModelError as exc:
        raise GenusDropError(f"A = {A} drops genus: {exc}") from exc
    if (H.genus, H1.genus, H2.genus) != (5, 3, 2):
        raise GenusDropError(f"unexpected genera for A = {A}")
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

    @property
    def conic_constant(self):
        return self.A


def build_thm1(A, B):
    if not A:
        raise CurveError("A must be nonzero")
    cubic = CubicModel(0 * A, -A, B)
    aux = CubicModel(-27 * B, 27 * A**3, 0 * A)
    return SpaceCurveC(A=A, B=B, cubic=cubic, aux_cubic=aux)


# ---------------------------------------------------------------------------
# genus-0 parametrization


@dataclass(frozen=True)
class ParametrizationData:
    """x(t) = -(t^3-1)/(t^4-1) and z(t) = t x(t), as num/den pairs."""

    x_num: Poly
    x_den: Poly
    z_num: Poly
    z_den: Poly


def parametrization_data():
    t = Poly([Fraction(0), Fraction(1)])
    num = -(t**3 - 1)
    den = t**4 - 1
    return ParametrizationData(x_num=num, x_den=den, z_num=t * num, z_den=den)


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


# ---------------------------------------------------------------------------
# covering maps


@dataclass(frozen=True)
class CoveringMap:
    """H -> E through D, with all coordinate data explicit.

    x_of_t, v_scale: the map into the quartic model (t -> x(t), w -> w*scale);
    X, Y: the full composite coordinates on w^2 = h(t), each (a + b w)/den.
    """

    name: str
    A: object
    x_of_t: RationalFunction
    v_scale: RationalFunction
    X: WLinear
    Y: WLinear
    h: Poly
    target: CubicModel
    quartic: QuarticModel
    degree_into_quartic: int = 3

    def evaluate(self, t0, w0):
        """Image on the target cubic of the curve point (t0, w0)."""
        x = self.X.evaluate(t0, w0)
        if x is INFINITY:
            return ECPoint.zero()
        y = self.Y.evaluate(t0, w0)
        if y is INFINITY:
            raise CurveError("inconsistent pole: finite x with infinite y")
        return ECPoint(x, y)

    def quartic_point(self, t0, w0):
        x = self.x_of_t.evaluate(t0)
        if x is INFINITY:
            return None
        return (x, self.v_scale.evaluate(t0) * w0)


def family_identity_residual(A, h):
    """64[(t^3-1)^4 - (t^3-1)^3(t^4-1)] + A (t^4-1)^4 - (t-1)^4 h(t): the
    zero polynomial exactly when h is the degree-12 model for A (a number
    or the generator of Q[A])."""
    t = Poly([0, 1])
    c3 = t**3 - 1
    c4 = t**4 - 1
    return 64 * (c3**4 - c3**3 * c4) + _times_param(c4**4, A) - (t - 1) ** 4 * h


def covering_maps(A):
    """The two degree-3 covers of the quartic, composed into E.

    The sheet scaling w -> w (t-1)^2 / (8 (t^4-1)^2) = w / (8 q(t)^2) with
    q = t^3+t^2+t+1 is re-validated against the defining identity at build
    time rather than trusted.
    """
    fam = build_family(A)
    h = fam.H.f
    if family_identity_residual(A, h):
        raise CurveError(f"sheet-scaling identity fails for A = {A}")

    one = Fraction(1)
    t = Poly([Fraction(0), one])
    p = t * t + t + 1
    q = t**3 + t * t + t + 1
    x_num, z_num = -p, -(t * p)
    scale_den = 8 * q * q

    jac = quartic_jacobian(fam.D).rescaled(Fraction(3, 2))
    if jac.cubic != fam.E:
        raise CurveError("rescaled quartic Jacobian does not match the target cubic")

    def composite(num):
        # u = num/q as a sheet-free function, v = w/(8 q^2)
        u = WLinear(num, Poly([]), q, h)
        v = WLinear(Poly([]), Poly([one]), scale_den, h)
        xa, xb = jac.x_map
        ya, yb = jac.y_map
        X = xa(u) + xb(u) * v
        Y = ya(u) + yb(u) * v
        return X, Y

    X1, Y1 = composite(x_num)
    X2, Y2 = composite(z_num)
    f1 = CoveringMap(
        name="f1",
        A=A,
        x_of_t=RationalFunction(x_num, q),
        v_scale=RationalFunction(Poly([one]), scale_den),
        X=X1,
        Y=Y1,
        h=h,
        target=fam.E,
        quartic=fam.D,
    )
    f2 = CoveringMap(
        name="f2",
        A=A,
        x_of_t=RationalFunction(z_num, q),
        v_scale=RationalFunction(Poly([one]), scale_den),
        X=X2,
        Y=Y2,
        h=h,
        target=fam.E,
        quartic=fam.D,
    )
    return f1, f2


# ---------------------------------------------------------------------------
# quotient maps H -> H1, H -> H2


@dataclass(frozen=True)
class QuotientMap:
    """(x, y) -> (u, v) = (x + 1/x, y * v_num(x)/v_den(x))."""

    name: str
    A: object
    u_num: Poly
    u_den: Poly
    v_num: Poly
    v_den: Poly
    target: HyperellipticModel

    def apply(self, x0, y0):
        du = self.u_den(x0)
        dv = self.v_den(x0)
        if not du or not dv:
            raise PoleError(f"quotient map undefined at x = {x0}")
        return (self.u_num(x0) / du, y0 * self.v_num(x0) / dv)


def quotient_maps(A):
    """The degree-2 quotients; requires A outside {0, 27/4}.

    u = x + 1/x; v1 = y (x^2-1)/x^4 lands on the genus-3 model, v2 = y/x^3 on
    the genus-2 model.  At 4A = 27 the genus-3 quotient ramifies at x = 1
    (the involution (x, y) -> (1/x, -y/x^6) fixes (1, 0)).
    """
    if 4 * A == 27:
        raise RamificationError(
            "4A = 27 makes the degree-2 quotient ramified at x = 1 (h(1) = 256A - 1728 = 0)"
        )
    fam = build_family(A)
    x = Poly([Fraction(0), Fraction(1)])
    one = Poly([Fraction(1)])
    to_h1 = QuotientMap(
        name="to_genus3",
        A=A,
        u_num=x * x + 1,
        u_den=x,
        v_num=x * x - 1,
        v_den=x**4,
        target=fam.H1,
    )
    to_h2 = QuotientMap(
        name="to_genus2",
        A=A,
        u_num=x * x + 1,
        u_den=x,
        v_num=one,
        v_den=x**3,
        target=fam.H2,
    )
    return to_h1, to_h2


# ---------------------------------------------------------------------------
# odd covers and twist transport


@dataclass(frozen=True)
class OddCoveringMaps:
    """Sheet-odd covers g_i = 2 f_i - (1,1): x-coordinates are functions of t
    alone, y-coordinates are w times a function of t.

    These descend to every quadratic twist: on y^2 = d h(t) the map
    (t, y) -> (d xi(t), d ups(t) y) lands on y^2 = x^3 - A d^2 x + A d^3.
    """

    A: object
    h: Poly
    xi1: RationalFunction
    ups1: RationalFunction
    xi2: RationalFunction
    ups2: RationalFunction

    def twisted_image(self, which, d, t0, y0):
        """Image on the normalized d-twist of E of the point (t0, y0) with
        y0^2 = d h(t0); returns O on a pole."""
        xi, ups = (self.xi1, self.ups1) if which == 1 else (self.xi2, self.ups2)
        x = xi.evaluate(t0)
        if x is INFINITY:
            return ECPoint.zero()
        u = ups.evaluate(t0)
        if u is INFINITY:
            raise CurveError("inconsistent pole in odd cover")
        return ECPoint(d * x, d * u * y0)

    def twisted_curve(self, d):
        A = self.A
        return CubicModel(0 * A, -A * d * d, A * d**3)


def _sym_double_then_subtract(X, Y, a4, tx, ty):
    """2P - T for P = (X, Y) on y^2 = x^3 + a4 x + a6 and T = (tx, ty).

    Every intermediate is gcd-reduced; otherwise the polynomial degrees grow
    multiplicatively through the two chord steps.
    """
    lam = ((3 * X * X + a4) / (2 * Y)).reduced()
    x2 = (lam * lam - X - X).reduced()
    y2 = (lam * (X - x2) - Y).reduced()
    # add -T = (tx, -ty)
    lam2 = ((y2 + ty) / (x2 - tx)).reduced()
    x3 = (lam2 * lam2 - x2 - tx).reduced()
    y3 = (lam2 * (x2 - x3) - y2).reduced()
    return x3, y3


def _strip_content(num, den):
    """Divide a pair of Fraction-coefficient polys by a common rational
    content to keep coefficients small."""
    from math import gcd

    nums = [c.numerator for c in num.coeffs] + [c.numerator for c in den.coeffs]
    dens = [c.denominator for c in num.coeffs] + [c.denominator for c in den.coeffs]
    g = 0
    for n in nums:
        g = gcd(g, n)
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    if g == 0:
        return num, den
    scale = Fraction(l, g)
    return num.map_coeffs(lambda c: c * scale), den.map_coeffs(lambda c: c * scale)


def odd_covering_maps(A):
    """Build the odd covers for a concrete rational A, with the on-curve
    identity asserted before returning.  Results are cached per A."""
    return _odd_covering_maps_cached(Fraction(A))


@lru_cache(maxsize=16)
def _odd_covering_maps_cached(A):
    f1, f2 = covering_maps(A)
    h = f1.h
    a4 = -A
    out = []
    for f in (f1, f2):
        x3, y3 = _sym_double_then_subtract(f.X, f.Y, a4, *INFINITY_IMAGE)
        if x3.b or y3.a:
            raise CurveError("odd cover has the wrong sheet parity")
        xi_num, xi_den = _strip_content(x3.a, x3.den)
        ups_num, ups_den = _strip_content(y3.b, y3.den)
        # on-curve identity: (ups w)^2 == xi^3 - A xi + A modulo w^2 = h
        lhs = ups_num * ups_num * h * xi_den**3
        rhs = (xi_num**3 - A * xi_num * xi_den**2 + A * xi_den**3) * ups_den**2
        if lhs != rhs:
            raise CurveError("odd cover fails its on-curve identity")
        out.append((RationalFunction(xi_num, xi_den), RationalFunction(ups_num, ups_den)))
    return OddCoveringMaps(A=A, h=h, xi1=out[0][0], ups1=out[0][1], xi2=out[1][0], ups2=out[1][1])


@dataclass(frozen=True)
class TransportResult:
    """Twist transport of the construction onto a user's curve."""

    d: object
    params: ConstructionParams
    reference: CubicModel  # y^2 = x^3 - Ax + A
    target: CubicModel  # the normalized d-twist, isomorphic shift of the input
    x_shift: object  # E_user coords: (x + x_shift, y)
    family: Family
    twisted_H: HyperellipticModel  # y^2 = d h(x)
    literal_H: object  # d y^2 = h(x)
    maps: OddCoveringMaps


def transport_to_curve(E_user):
    """Find d with E_user isomorphic to the d-twist of the reference curve
    and return the matching twist of the genus-5 cover with its maps."""
    a2 = E_user.a2
    if a2:
        # complete the cube: x -> x - a2/3
        third = a2 / 3
        a4 = E_user.a4 - 3 * third * third
        a6 = E_user.a6 + 2 * third**3 - third * E_user.a4
        short = CubicModel(0 * a2, a4, a6)
        x_shift = -third
    else:
        short = E_user
        x_shift = 0 * E_user.a4
    j = j_invariant(short)
    params = params_from_j(j)  # raises UnsupportedJError for j in {0, 1728}
    A = params.A
    reference = CubicModel(0 * A, -A, A)
    d = twist_factor(reference, short)
    fam = build_family(A)
    return TransportResult(
        d=d,
        params=params,
        reference=reference,
        target=quadratic_twist(reference, d),
        x_shift=x_shift,
        family=fam,
        twisted_H=quadratic_twist(fam.H, d),
        literal_H=literal_twist(fam.H, d),
        maps=odd_covering_maps(A),
    )
