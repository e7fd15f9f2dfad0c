import itertools
import math
from fractions import Fraction as F

import pytest

from twocovers import constructions
from twocovers.algebra import Fp, Poly, is_prime
from twocovers.constructions import (
    D_TO_E,
    INFINITY_IMAGE,
    PoleError,
    UnsupportedJError,
    build_family,
    build_thm1,
    covering_maps,
    genus2_poly,
    genus3_poly,
    genus5_poly,
    odd_covering_maps,
    parametrize,
    params_from_j,
    plane_relation_poly,
)
from twocovers.curves import (
    CubicModel,
    CurveError,
    ECPoint,
    _ec_add_unchecked,
    c_invariants,
    discriminant,
    ec_neg,
    j_invariant,
    on_curve,
)
from twocovers.twists import census

# frozen from tools/identity_oracle.py: coefficient c_i of the degree-12
# model equals pairs[i][0] * A + pairs[i][1]
H_COEFF_PAIRS = [
    (1, 0),
    (4, 0),
    (10, 0),
    (20, -64),
    (31, -192),
    (40, -384),
    (44, -448),
    (40, -384),
    (31, -192),
    (20, -64),
    (10, 0),
    (4, 0),
    (1, 0),
]


class TestParams:
    def test_A_from_j_examples(self):
        assert params_from_j(F(6912, 5)) == -27
        assert params_from_j(F(-6912, 23)) == 1

    def test_unsupported_j(self):
        for j in (F(0), F(1728)):
            with pytest.raises(UnsupportedJError):
                params_from_j(j)

    def test_j_roundtrip_symbolic(self):
        # over Q[j]: A = N/M with N = 27j, M = 4(j - 1728); y^2 = x^3 - Ax + A
        # scaled by u = M is y^2 = x^3 - N M^3 x + N M^5, whose j-invariant
        # c4^3 / disc is j identically
        j = Poly.gen()
        N = 27 * j
        M = 4 * (j - 1728)
        model = CubicModel(0 * j, -N * M**3, N * M**5)
        c4, _ = c_invariants(model)
        assert c4**3 == j * discriminant(model)

    def test_j_roundtrip_random(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            j = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            if j in (0, 1728):
                continue
            A = params_from_j(j)
            assert j_invariant(CubicModel(F(0), -A, A)) == j


class TestFamily:
    def test_coefficients_match_oracle(self):
        for A in (F(-27), F(1), F(5, 7)):
            h = genus5_poly(A)
            assert h.degree == 12
            assert [h.coeffs[i] for i in range(13)] == [p * A + q for p, q in H_COEFF_PAIRS]

    def test_h_values(self):
        for A in (F(-27), F(1), F(22, 7)):
            h = genus5_poly(A)
            assert h(F(-1)) == 64
            assert h(F(0)) == A
            assert h.coeffs[-1] == A
            assert h(F(1)) == 256 * A - 1728

    def test_cross_check_expansion_13_points(self):
        A = F(1)
        h = genus5_poly(A)
        for i in range(13):
            x = F(i - 6)
            direct = A * (x + 1) ** 4 * (x * x + 1) ** 4 - 64 * x**3 * (x * x + x + 1) ** 3
            assert h(x) == direct

    def test_family_models(self):
        fam = build_family(F(-27))
        assert fam.E == CubicModel(F(0), F(27), F(-27))
        assert fam.Eprime == CubicModel(F(-27), F(-54), F(-27))
        assert fam.D.c0 == F(-27, 64)
        assert (fam.H.genus, fam.H1.genus, fam.H2.genus) == (5, 3, 2)

    def test_genus2_poly_values(self):
        A = F(-27)
        g = genus2_poly(A)
        assert g(F(-2)) == 64
        assert g.degree == 6 and g.coeffs[-1] == A

    def test_universal_point_on_H(self):
        for A in (F(-27), F(1), F(144), F(-5, 3)):
            fam = build_family(A)
            assert on_curve(fam.H, (F(-1), F(8)))
            assert on_curve(fam.H, (F(-1), F(-8)))
            assert not on_curve(fam.H, (F(-1), F(7)))

    def test_symbolic_family(self):
        A = Poly.gen()  # generic parameter
        fam = build_family(A)
        assert fam.H.genus == 5
        assert fam.H1.genus == 3 and fam.H2.genus == 2

    def test_degenerate_A(self):
        with pytest.raises(CurveError):
            build_family(F(0))
        with pytest.raises(CurveError):
            build_family(F(27, 4))


class TestThm1:
    def test_aux_cubic(self):
        c = build_thm1(F(1), F(1))
        assert c.cubic == CubicModel(F(0), F(-1), F(1))
        assert c.aux_cubic == CubicModel(F(-27), F(27), F(0))

    def test_A_zero_rejected(self):
        with pytest.raises(CurveError):
            build_thm1(F(0), F(1))

    def test_B_zero_ok(self):
        c = build_thm1(F(1), F(0))
        assert c.cubic == CubicModel(F(0), F(-1), F(0))

    def test_space_point_check(self):
        c = build_thm1(F(1), F(1))
        # x = 1: conic 1 + z + z^2 = 1 -> z in {0, -1}; y^2 = 1
        assert on_curve(c, (F(1), F(1), F(0)))
        assert on_curve(c, (F(1), F(-1), F(-1)))
        assert not on_curve(c, (F(1), F(1), F(1)))


class TestParametrization:
    def test_values(self):
        assert parametrize(F(0)) == (F(-1), F(0))
        assert parametrize(F(2)) == (F(-7, 15), F(-14, 15))

    def test_pole(self):
        with pytest.raises(PoleError):
            parametrize(F(1))
        with pytest.raises(PoleError):
            parametrize(F(-1))

    def test_on_plane_relation_symbolic(self):
        # F(x(t), t x(t)) = x(t)^2 (x(t) q(t) + p(t)) with x = -p/q: zero
        t = Poly([F(0), F(1)])
        # evaluate the z-poly form of the relation after clearing denominators
        rel = plane_relation_poly()  # poly in z over Q[x]
        # substitute x -> xn/xd, z -> zn/xd, clear xd^3:
        xn, xd = -(t**3 - 1), t**4 - 1
        zn = t * xn
        acc = Poly([])
        for i, cx in enumerate(rel.coeffs):
            # cx is a poly in x: substitute x = xn/xd, clear xd^3 overall
            cx_val = Poly([])
            for jj, cc in enumerate(cx.coeffs if isinstance(cx, Poly) else [cx]):
                cx_val = cx_val + cc * xn**jj * xd ** (3 - jj)
            acc = acc + cx_val * zn**i * xd ** (3 - i)
        assert not acc

    def test_numeric_on_relation(self):
        for tv in (F(2), F(3, 5), F(-4, 7)):
            x, z = parametrize(tv)
            assert x**4 - z**4 + x**3 - z**3 == 0 or (
                (x**4 - z**4) / (x - z) + (x**3 - z**3) / (x - z) == 0
            )


class TestCoveringMaps:
    def test_quartic_points_at_zero(self):
        f1, f2 = covering_maps(F(-27))
        # w^2 = h(0) = A has no rational sheet for A = -27; use A = 16:
        f1, f2 = covering_maps(F(16))
        # t = 0: w^2 = h(0) = 16, w = 4; f1 x-coord -1, f2 x-coord 0
        p1 = f1.quartic_point(F(0), F(4))
        p2 = f2.quartic_point(F(0), F(4))
        assert p1[0] == -1 and p2[0] == 0
        # y^2 = B at x = 0 on the quartic: (w/8)^2 = 16/64
        assert p2[1] ** 2 == F(16, 64)

    def test_composite_on_curve_numeric(self):
        A = F(16)
        f1, f2 = covering_maps(A)
        h = f1.h
        E = f1.target
        # rational points (t, w) on w^2 = h(t)
        pts = []
        for tn in range(-8, 9):
            for td in range(1, 9):
                t0 = F(tn, td)
                v = h(t0)
                if v <= 0:
                    continue
                num, den = v.numerator, v.denominator
                import math

                sn, sd = math.isqrt(num), math.isqrt(den)
                if sn * sn == num and sd * sd == den:
                    pts.append((t0, F(sn, sd)))
        assert len(pts) >= 3
        for t0, w0 in pts:
            for f in (f1, f2):
                P = f.evaluate(t0, w0)
                assert on_curve(E, P)
                Q = f.evaluate(t0, -w0)
                assert on_curve(E, Q)

    def test_universal_point_images(self):
        # (-1, 8) sits on every member; both covers send it to (1, 1), the
        # positive-sheet infinity image
        for A in (F(-27), F(16), F(3)):
            f1, f2 = covering_maps(A)
            for f in (f1, f2):
                P = f.evaluate(F(-1), F(8))
                assert P == ECPoint(*INFINITY_IMAGE)
                Q = f.evaluate(F(-1), F(-8))
                assert Q == ECPoint.zero()

    @pytest.mark.parametrize("p", [13, 17, 29])
    def test_poles_over_fp(self, p):
        # for p = 1 mod 4, q = (t+1)(t^2+1) vanishes at the roots of t^2 = -1;
        # there h(t0) = 64 num(t0)^4, and of the two points (t0, +-8 num(t0)^2)
        # one maps to O and the other to (1, 1)
        field = [Fp(v, p) for v in range(p)]
        roots = [t0 for t0 in field if t0 * t0 == -1]
        assert len(roots) == 2
        for f in covering_maps(F(-27)):
            g = f.map_coeffs(lambda c: Fp(F(c).numerator, p) / F(c).denominator)
            for t0 in roots:
                w0 = 8 * g.num(t0) ** 2
                assert w0 and w0 * w0 == g.h(t0)
                images = {g.evaluate(t0, w0), g.evaluate(t0, -w0)}
                assert images == {ECPoint.zero(), ECPoint(field[1], field[1])}
                for w in field:
                    if w not in (w0, -w0):
                        with pytest.raises(CurveError, match="not a point"):
                            g.evaluate(t0, w)

    def test_pole_limit_is_the_infinity_image(self):
        # the pole of u on the branch v ~ +u^2 goes to the oracle's constant,
        # which lies on every member of the family, over Q[A] too; that it is
        # the limit of D_TO_E there is TestDToE's numeric check
        for A in (F(-27), Poly.gen()):
            for f in covering_maps(A):
                assert f.jacobian == D_TO_E
                assert f.infinity_image == INFINITY_IMAGE
                assert on_curve(f.target, ECPoint(*f.infinity_image))

    def test_declared_degree(self):
        # the plane relation is z-cubic with unit leading coefficient
        rel = plane_relation_poly()
        assert rel.degree == 3
        assert rel.coeffs[3] == 1


def _d_to_e(u, v):
    (xa, xb), (ya, yb) = D_TO_E
    return ECPoint(xa(u) + xb(u) * v, ya(u) + yb(u) * v)


class TestDToE:
    @pytest.mark.parametrize("A", [F(-27), F(1), F(8), F(7, 2), F(-3, 4)], ids=str)
    def test_infinity_image_is_the_limit_on_the_plus_branch(self, A):
        # the constant against the map at u = 10^6 on v = +sqrt(D(u)), v
        # rounded to 20 decimals
        D = build_family(A).D
        u = F(10**6)
        r = D.rhs(u)
        v = F(math.isqrt(r.numerator * 10**40 // r.denominator), 10**20)
        P = _d_to_e(u, v)
        x_inf, y_inf = INFINITY_IMAGE
        assert abs(P.x - x_inf) < F(1, 1000) and abs(P.y - y_inf) < F(1, 1000)

    def test_map_lands_on_cubic_numeric(self):
        # a rational point (u, v) lies on D for A = 64 (v^2 - u^4 - u^3); its
        # image lies on E and u = (X + Y)/(4(1 - X)), v = (8u^2 + 4u - X)/8
        # recover it
        us = [F(0), F(1), F(-2), F(1, 3), F(-5, 2)]
        for u, v in itertools.product(us, [F(1), F(-3, 4), F(7)]):
            A = 64 * (v * v - u**4 - u**3)
            P = _d_to_e(u, v)
            assert on_curve(build_family(A).E, P)
            u_back = (P.x + P.y) / (4 * (1 - P.x))
            assert (u_back, (8 * u_back**2 + 4 * u_back - P.x) / 8) == (u, v)

    def test_map_coeffs_commutes_with_evaluate(self):
        p = 101

        def field(c):
            c = F(c)
            return Fp(c.numerator, p) / c.denominator

        f = covering_maps(F(-27))[0]
        g = f.map_coeffs(field)
        assert g.jacobian == tuple((a.map_coeffs(field), b.map_coeffs(field)) for a, b in D_TO_E)
        assert g.infinity_image == (field(1), field(1))
        for t0, w0 in ((F(0), F(3)), (F(2), F(5)), (F(1, 2), F(-7))):
            P = f.evaluate(t0, w0)
            assert g.evaluate(field(t0), field(w0)) == ECPoint(field(P.x), field(P.y))
        # the pole t = -1 of u on the sheet w = 8 num(-1)^2 = 8
        assert g.evaluate(field(-1), field(8)) == ECPoint(field(1), field(1))


class TestQuotientMaps:
    def test_involution_identity(self):
        # (x, y) -> (1/x, y/x^6) preserves the curve: h(1/x) x^12 == h(x)
        for A in (F(-27), F(2)):
            h = genus5_poly(A)
            rev = Poly(list(reversed(h.coeffs)))  # x^12 h(1/x)
            assert rev == h


class TestOddCovers:
    def test_build_and_identity(self):
        maps = odd_covering_maps(F(-27))
        # spot-check values on the d = 1 twist (sqrt d rational, so no parity
        # check); t = -1 is a removable zero denominator of the covers
        P = maps.twisted_image(1, F(1), F(-1), F(8))
        assert P == ECPoint(F(1), F(1))
        Q = maps.twisted_image(2, F(1), F(-1), F(8))
        assert Q == ECPoint(F(1), F(1))

    def test_pole_on_the_negative_sheet(self):
        # t = -1 is the pole of u: (-1, 8) maps to (1, 1) and (-1, -8) to O,
        # so g_i(-1, -8) = 2 O - (1, 1) = (1, -1)
        maps = odd_covering_maps(F(-27))
        for which in (1, 2):
            assert maps.twisted_image(which, F(1), F(-1), F(-8)) == ECPoint(F(1), F(-1))
            assert maps.twisted_image(which, F(4), F(-1), F(-16)) == ECPoint(F(4), F(-8))

    def test_twisted_points_on_twisted_curve(self):
        A = F(-27)
        maps = odd_covering_maps(A)
        h = genus5_poly(A)
        # t = 0: h(0) = -27 = (-3) * 3^2 -> d = -3, normalized sheet y = d*s = -9
        d, s = F(-3), F(3)
        Ed = maps.twisted_curve(d)
        y0 = d * s
        assert y0 * y0 == d * h(F(0))
        P1 = maps.twisted_image(1, d, F(0), y0)
        P2 = maps.twisted_image(2, d, F(0), y0)
        assert on_curve(Ed, P1) and on_curve(Ed, P2)
        assert not P1.infinity and not P2.infinity

    def test_square_twist_is_rescaling(self):
        # d = 4 is a rational square: the 4-twist is (x, y) -> (4x, 8y) of d = 1
        maps = odd_covering_maps(F(-27))
        for which in (1, 2):
            P = maps.twisted_image(which, F(1), F(-1), F(8))
            Q = maps.twisted_image(which, F(4), F(-1), F(16))
            assert Q == ECPoint(4 * P.x, 8 * P.y)

    def test_wrong_parity_raises(self, monkeypatch):
        # the record t = -2 of A = -27: h(-2) = -339 * 3^2, y0 = d s
        maps = odd_covering_maps(F(-27))
        d, y0 = F(-339), F(-339 * 3)
        P = maps.twisted_image(1, d, F(-2), y0)
        assert on_curve(maps.twisted_curve(d), P)
        # 2 f1 + (1, 1) in place of 2 f1 - (1, 1) is not odd in w
        monkeypatch.setattr(constructions, "INFINITY_IMAGE", (F(1), F(-1)))
        with pytest.raises(CurveError, match="parity"):
            maps.twisted_image(1, d, F(-2), y0)

    def test_wrong_parity_raises_where_conjugates_share_x(self, monkeypatch):
        # a split with beta = 0, gamma = 0 and delta != 0 makes Rbar = -R, so
        # R + Rbar = O; beta never vanishes for the covers built here
        maps = odd_covering_maps(F(-27))
        monkeypatch.setattr(constructions.CoveringMap, "sheet_split", lambda f, t0: (F(1), F(0), F(0), F(1)))
        with pytest.raises(CurveError, match="parity"):
            maps.twisted_image(1, F(-339), F(-2), F(-339 * 3))

    def test_wrong_parity_raises_at_pole_and_weierstrass_point(self, monkeypatch):
        # the two branches that add points over Q: t = -1, where u has a
        # pole, and a point with y0 = 0
        pole = (odd_covering_maps(F(-27)), F(-1), F(1), F(8))
        weierstrass = (odd_covering_maps(_weierstrass_A(F(2))), F(2), F(5), F(0))
        monkeypatch.setattr(constructions, "INFINITY_IMAGE", (F(1), F(-1)))
        for maps, t0, d, y0 in (pole, weierstrass):
            for which in (1, 2):
                with pytest.raises(CurveError, match="parity"):
                    maps.twisted_image(which, d, t0, y0)

    def test_weierstrass_point_maps_to_zero(self):
        # A chosen so that h(2) = 0: P = (2, 0) is fixed by the sheet
        # involution, so 2 f_i(P) = (1, 1) and g_i(P) = O on every twist
        t0 = F(2)
        A = _weierstrass_A(t0)
        maps = odd_covering_maps(A)
        assert genus5_poly(A)(t0) == 0
        for f, which in ((maps.f1, 1), (maps.f2, 2)):
            R = f.evaluate(t0, F(0))
            assert _ec_add_unchecked(f.target, R, R) == ECPoint(*INFINITY_IMAGE)
            for d in (F(1), F(-3), F(5)):
                assert maps.twisted_image(which, d, t0, F(0)) == ECPoint.zero()

    @pytest.mark.parametrize("A", [F(-27), F(7, 2)], ids=["A=-27", "A=7/2"])
    def test_images_match_definition_mod_p(self, A):
        # each image against g_i(P) = 2 f_i(P) - (1, 1) at P = (t, y0/sqrt d),
        # with f_i(P) the Jacobian image of the quartic point of P, both
        # factors reduced mod a good prime p where d is a nonzero square:
        # (x, y) on the d-twist reduces to (x/d, y sqrt d/d^2) on E
        maps = odd_covering_maps(A)
        E = maps.f1.target
        checked = 0
        for r in census(A, 6):
            if r.d is None or r.status == "degenerate" or _rational_square(F(r.d)):
                continue
            y0 = r.d * r.s
            for f, image in ((maps.f1, r.P1), (maps.f2, r.P2)):
                p, root, to_fp = _good_prime(f, E, r.t, y0, r.d, image)
                g = f.map_coeffs(to_fp)
                E_p = g.target
                t_p, w_p = to_fp(r.t), to_fp(y0) / root
                R = g.evaluate(t_p, w_p)
                T = ECPoint(*(to_fp(c) for c in INFINITY_IMAGE))
                G = _ec_add_unchecked(E_p, _ec_add_unchecked(E_p, R, R), ec_neg(T))
                d_p = to_fp(F(r.d))
                assert G == ECPoint(to_fp(image.x) / d_p, to_fp(image.y) * root / (d_p * d_p)), (r.t, r.d, p)
                checked += 1
        assert checked >= 40

    def test_twisted_points_many_t(self):
        A = F(-27)
        maps = odd_covering_maps(A)
        h = genus5_poly(A)
        from twocovers.twists import squarefree_part

        for tn, td in [(1, 1), (2, 1), (1, 2), (-2, 3), (3, 4)]:
            t0 = F(tn, td)
            v = h(t0)
            d, s = squarefree_part(v)
            y0 = d * s
            Ed = maps.twisted_curve(F(d))
            P1 = maps.twisted_image(1, F(d), t0, y0)
            P2 = maps.twisted_image(2, F(d), t0, y0)
            assert on_curve(Ed, P1)
            assert on_curve(Ed, P2)


def _weierstrass_A(t0):
    """The parameter A at which h(t0) = 0."""
    return 64 * t0**3 * (t0 * t0 + t0 + 1) ** 3 / ((t0 + 1) ** 4 * (t0 * t0 + 1) ** 4)


def _rational_square(c):
    n, m = math.isqrt(max(c.numerator, 0)), math.isqrt(c.denominator)
    return n * n == c.numerator and m * m == c.denominator


def _good_prime(f, E, t0, y0, d, image):
    """(p, sqrt d mod p, reduction mod p) for the first prime p > 3 at which
    E has good reduction, d is a nonzero square, t0, y0, d and the image are
    p-integral and u = num/q has no pole at t0."""
    values = [F(c) for c in (E.a2, E.a4, E.a6, t0, y0, d, image.x, image.y)]
    disc = discriminant(E).numerator
    for p in range(5, 1000):
        if not is_prime(p) or disc % p == 0 or any(c.denominator % p == 0 for c in values):
            continue

        def to_fp(c, p=p):
            return Fp(c.numerator, p) / c.denominator

        d_p = to_fp(F(d))
        root = next((Fp(v, p) for v in range(1, p) if Fp(v * v, p) == d_p), None)
        t_p = to_fp(F(t0))
        if root is None or not f.q.map_coeffs(to_fp)(t_p):
            continue
        return p, root, to_fp
    raise AssertionError("no good prime below 1000")
