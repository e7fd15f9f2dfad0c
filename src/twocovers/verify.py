"""Symbolic verification of every identity the construction relies on.

Each check returns a report rather than raising: a failing identity carries
its nonzero residual (or offending point) as the witness.  The symbolic
checks run over the parameter rings Q[A] and Q[A,B]; specializations and
finite-field spot checks complement them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import INFINITY, Poly, PrimeField, WLinear, reduce_mod_ideal
from .constructions import (
    _times_param,
    covering_maps,
    family_identity_residual,
    genus2_poly,
    genus3_poly,
    genus5_poly,
    parametrization_data,
    plane_relation_poly,
)

@dataclass(frozen=True)
class VerificationReport:
    check: str
    status: str  # "pass" | "fail"
    witness: str | None = None

    @property
    def passed(self):
        return self.status == "pass"

    def serialize(self):
        obj = {"check": self.check, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


def _report(check, ok, witness=None):
    if ok:
        return VerificationReport(check=check, status="pass")
    return VerificationReport(check=check, status="fail", witness=str(witness))


# ---------------------------------------------------------------------------
# ring towers


def _tower_AB_x_z():
    """Generators (A, B, x, z) of Q[A][B][x][z], all lifted to the top."""
    one = Fraction(1)
    a1 = Poly([Fraction(0), one])
    a2 = Poly([a1])
    b2 = Poly([Poly([]), Poly([one])])
    x3 = Poly([Poly([]), Poly([Poly([one])])])
    a3 = Poly([a2])
    b3 = Poly([b2])
    z4 = Poly([Poly([]), Poly([Poly([Poly([one])])])])
    x4 = Poly([x3])
    a4 = Poly([a3])
    b4 = Poly([b3])
    return a4, b4, x4, z4


def verify_thm1(conic_coeffs=(1, 1, 1)):
    """The cubic difference (x^3 - Ax + B) - (z^3 - Az + B) reduces to zero
    modulo the conic z^2 + xz + x^2 - A, over Q[A,B].

    conic_coeffs = (z^2, xz, x^2) coefficients; perturbing any of them must
    produce a nonzero residual.
    """
    A, B, x, z = _tower_AB_x_z()
    f = (x**3 - A * x + B) - (z**3 - A * z + B)
    ca, cb, cc = conic_coeffs
    g = ca * z * z + cb * x * z + cc * x * x - A
    if ca != 1:
        g = g * Fraction(1, ca)
    r = reduce_mod_ideal(f, g)
    return _report("thm1-ideal-identity", not r, r)


def thm1_fiber_check(A, B, p):
    """Exhaustive finite-field check of the space-curve projections: every
    conic point carries equal cubic values in x and z (so both projections
    hit the same curve), and some conic point has x != z (so the projections
    are genuinely distinct maps).

    Returns (number of conic points, values_ok, saw_distinct).
    """
    field = PrimeField(p)
    Af = field(Fraction(A))
    n = 0
    saw_distinct = False
    for xv in field.elements():
        for zv in field.elements():
            if xv * xv + xv * zv + zv * zv == Af:
                n += 1
                if xv != zv:
                    saw_distinct = True
                if xv**3 - Af * xv != zv**3 - Af * zv:
                    return n, False, saw_distinct
    return n, True, saw_distinct


def verify_thm2(h_perturbation=None):
    """The defining identity of the degree-12 model over Q[A]:
    64[(t^3-1)^4 - (t^3-1)^3 (t^4-1)] + A (t^4-1)^4 = (t-1)^4 h(t),
    plus the companion: (x^4+x^3) - (z^4+z^3) = (x-z) F(x,z).
    """
    A = Poly.gen()
    h = genus5_poly(A)
    if h_perturbation is not None:
        idx, delta = h_perturbation
        coeffs = list(h.coeffs)
        coeffs[idx] = coeffs[idx] + delta
        h = Poly(coeffs)
    first = family_identity_residual(A, h)

    # (x^4 + x^3) - (z^4 + z^3) == (x - z) F(x, z) in Q[x][z]
    x = Poly([Fraction(0), Fraction(1)])
    xz = Poly([x])  # x at the z-level
    z = Poly([Poly([]), Poly([Fraction(1)])])
    F = plane_relation_poly()
    second = (xz**4 + xz**3) - (z**4 + z**3) - (xz - z) * F

    ok = not first and not second
    witness = first if first else second
    return _report("thm2-model-identity", ok, witness)


def _wl_times_param(f, s):
    """Scalar multiplication of a sheet function by a base-ring element
    (coefficient-wise; safe when the scalar is itself a Poly)."""
    return WLinear(_times_param(f.a, s), _times_param(f.b, s), f.den, f.h)


def verify_maps_on_curve(A=None, corrupt_scale=False):
    """Substituting either composite cover into the target Weierstrass
    equation gives the zero function on w^2 = h(t).

    Runs over Q[A] when A is None.  corrupt_scale divides the sheet scaling
    by (t-1)^2 (i.e. uses the unreduced formula with that factor dropped),
    which must break the identity.
    """
    sym = A is None
    a = Poly.gen() if sym else Fraction(A)
    f1, f2 = covering_maps(a)
    h = f1.h
    bad = None
    if corrupt_scale:
        t = Poly([Fraction(0), Fraction(1)])
        bad = (t - 1) ** 2

    for f in (f1, f2):
        X, Y = f.X, f.Y
        if bad is not None:
            # dropping (t-1)^2 from the sheet scaling divides the odd parts
            # by it: (a + b w)/den  ->  (a (t-1)^2 + b w)/(den (t-1)^2)
            X = type(X)(X.a * bad, X.b, X.den * bad, X.h)
            Y = type(Y)(Y.a * bad, Y.b, Y.den * bad, Y.h)
        resid = Y * Y - X * X * X + _wl_times_param(X, a) - Poly([a])
        if not resid.is_zero():
            return _report(
                f"maps-on-curve[{f.name}]",
                False,
                f"nonzero residual, even part degree {resid.a.degree}, odd {resid.b.degree}",
            )
    return _report("maps-on-curve", True)


def verify_independence(A, p):
    """The three premises behind independence of the two covers:
    (i) the plane relation is z-cubic with unit leading coefficient, so both
        covers have degree 3 onto the quartic;
    (ii) the covers differ: some t has x(t) != z(t);
    (iii) they are not mutual negatives: some curve point has images that are
        not inverse to each other on E.
    """
    rel = plane_relation_poly()
    if rel.degree != 3 or rel.coeffs[3] != 1:
        return _report("independence", False, f"plane relation has degree {rel.degree}")

    field = PrimeField(p)
    f1, f2 = covering_maps(Fraction(A))

    def to_fp(c):
        return field(Fraction(c))

    h_p = f1.h.map_coeffs(to_fp)
    if h_p.degree != 12:
        return _report("independence", False, f"p = {p} degenerates the model")

    witness_ii = None
    for tv in range(2, p):
        t0 = field(tv)
        xv = f1.x_of_t.num.map_coeffs(to_fp)(t0), f1.x_of_t.den.map_coeffs(to_fp)(t0)
        zv = f2.x_of_t.num.map_coeffs(to_fp)(t0), f2.x_of_t.den.map_coeffs(to_fp)(t0)
        if not xv[1] or not zv[1]:
            continue
        if xv[0] / xv[1] != zv[0] / zv[1]:
            witness_ii = tv
            break
    if witness_ii is None:
        return _report("independence", False, "covers agree everywhere (unexpected)")

    X1 = f1.X.map_coeffs(to_fp)
    Y1 = f1.Y.map_coeffs(to_fp)
    X2 = f2.X.map_coeffs(to_fp)
    Y2 = f2.Y.map_coeffs(to_fp)
    sqrt_table = {}
    for v in field.elements():
        sqrt_table.setdefault((v * v).value, v)
    for tv in range(p):
        t0 = field(tv)
        hv = h_p(t0)
        if not hv or hv.value not in sqrt_table:
            continue
        w0 = sqrt_table[hv.value]
        vals = []
        for Xc, Yc in ((X1, Y1), (X2, Y2)):
            xv = Xc.evaluate(t0, w0)
            if xv is INFINITY:
                vals = None
                break
            vals.append((xv, Yc.evaluate(t0, w0)))
        if vals is None:
            continue
        (x1, y1), (x2, y2) = vals
        if x1 != x2 or y1 != -y2:
            return _report(
                "independence",
                True,
            )
    return _report("independence", False, f"f1 = -f2 at every point of F_{p}")


def verify_quotients(A=None):
    """The substitution identities behind the two degree-2 quotients:
    x^6 g(x + 1/x) = h(x) and x^8 (u^2-4) g(u)|_{u = x+1/x} = (x^2-1)^2 h(x),
    plus fixed-point-freeness of (x, y) -> (1/x, -y/x^6) away from 4A = 27.
    """
    sym = A is None
    a = Poly.gen() if sym else Fraction(A)
    h = genus5_poly(a)
    g2 = genus2_poly(a)
    g3 = genus3_poly(a)
    x = Poly([0, 1])
    x2p1 = x * x + 1

    def substituted(g, clear_power):
        acc = Poly([])
        for i, gi in enumerate(g.coeffs):
            term = x2p1**i * x ** (clear_power - i)
            acc = acc + _times_param(term, gi)
        return acc

    first = substituted(g2, 6) - h
    if first:
        return _report("quotient-identities", False, "genus-2 substitution residual")
    second = substituted(g3, 8) - h * (x * x - 1) ** 2
    if second:
        return _report("quotient-identities", False, "genus-3 substitution residual")

    h_at_1 = h(1) if not sym else h(Poly([Fraction(1)]))
    if sym:
        ok = bool(h_at_1)  # 256A - 1728, nonzero in Q[A]
        return _report("quotient-identities", ok, "h(1) = 0 identically" if not ok else None)
    if not h_at_1:
        return _report(
            "quotient-identities", False, "ramification detected at x = 1 (h(1) = 0, 4A = 27)"
        )
    return _report("quotient-identities", True)


def run_suite(A, p=None):
    """The full verification battery for a concrete parameter A."""
    from .zeta import is_good_prime

    A = Fraction(A)
    if p is None:
        p = 101
        while not is_good_prime(A, p):
            p += 1
    reports = [
        verify_thm1(),
        verify_thm2(),
        verify_maps_on_curve(),  # symbolic, strongest form
        verify_maps_on_curve(A),  # the requested specialization
        verify_independence(A, p),
        verify_quotients(),
        verify_quotients(A),
    ]
    return reports
