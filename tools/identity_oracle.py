#!/usr/bin/env python3
"""Independent sympy oracle for the symbolic identities and derived constants.

Run before touching the package code; the printed values are frozen into the
test suite.  Everything here goes through sympy's expand/simplify machinery,
never through src/twocovers.
"""

import json

import sympy as sp

A, B, x, z, t, u, v, j, d = sp.symbols("A B x z t u v j d")


def genus5_rhs():
    return A * (x + 1) ** 4 * (x**2 + 1) ** 4 - 2**6 * x**3 * (x**2 + x + 1) ** 3


def genus2_rhs(var):
    return A * (var + 2) ** 2 * var**4 - 2**6 * (var + 1) ** 3


def main():
    out = {}

    # 1. coefficient vector of the degree-12 model, split as c_i = p_i*A + q_i
    h = sp.Poly(sp.expand(genus5_rhs()), x)
    coeffs = [h.coeff_monomial(x**i) for i in range(13)]
    pairs = []
    for c in coeffs:
        c = sp.expand(c)
        p_i = c.coeff(A, 1)
        q_i = c.coeff(A, 0)
        assert sp.expand(p_i * A + q_i - c) == 0
        pairs.append((int(p_i), int(q_i)))
    out["h_coeff_pairs_low_to_high"] = pairs

    # 2. the quartic-parametrization identity:
    #    64[(t^3-1)^4 - (t^3-1)^3 (t^4-1)] + A (t^4-1)^4 == (t-1)^4 h(t)
    lhs = 64 * ((t**3 - 1) ** 4 - (t**3 - 1) ** 3 * (t**4 - 1)) + A * (t**4 - 1) ** 4
    rhs = (t - 1) ** 4 * genus5_rhs().subs(x, t)
    out["quartic_param_identity"] = sp.expand(lhs - rhs) == 0

    # 3. genus-2 and genus-3 model coefficients
    g2 = sp.Poly(sp.expand(genus2_rhs(u)), u)
    out["genus2_coeffs"] = [str(sp.expand(g2.coeff_monomial(u**i))) for i in range(7)]
    g3 = sp.Poly(sp.expand((u**2 - 4) * genus2_rhs(u)), u)
    out["genus3_coeffs"] = [str(sp.expand(g3.coeff_monomial(u**i))) for i in range(9)]

    # 4. quotient identities: h(x) == x^6 g(x + 1/x) and
    #    h(x) (x^2-1)^2 == x^8 [(u^2-4) g(u)] at u = x + 1/x
    gsub = genus2_rhs(x + 1 / x)
    out["quotient_g2_identity"] = sp.simplify(sp.expand(x**6 * gsub) - sp.expand(genus5_rhs())) == 0
    g3sub = ((x + 1 / x) ** 2 - 4) * gsub
    out["quotient_g3_identity"] = (
        sp.simplify(sp.expand(x**8 * g3sub) - sp.expand(genus5_rhs() * (x**2 - 1) ** 2)) == 0
    )

    # 5. the plane-curve relation vanishes on the parametrization
    F = (x**4 - z**4) / (x - z) + (x**3 - z**3) / (x - z)
    F = sp.cancel(F)
    xt = -(t**3 - 1) / (t**4 - 1)
    zt = -t * (t**3 - 1) / (t**4 - 1)
    out["parametrization_on_F"] = sp.simplify(F.subs({x: xt, z: zt})) == 0
    out["F_poly_in_z_coeffs"] = [str(sp.expand(sp.Poly(F, z).coeff_monomial(z**i))) for i in range(4)]

    # 6. the map D -> E, (u, v) -> (xa + xb v, ya + yb v), lands on
    #    y^2 = x^3 - 64B x + 64B, and u = (X + Y)/(4(1 - X)),
    #    v = (xa - X)/8 inverts it: X + Y = 4u(1 - X) identically in u, v
    xa, xb = 8 * u**2 + 4 * u, sp.Integer(-8)
    ya, yb = -32 * u**3 - 24 * u**2, 32 * u + 8
    xe = xa + xb * v
    ye = ya + yb * v
    out["quartic_map_coeffs_low_to_high"] = {
        name: [str(c) for c in reversed(sp.Poly(part, u).all_coeffs())]
        for name, part in (("xa", xa), ("xb", xb), ("ya", ya), ("yb", yb))
    }
    resid = sp.expand(ye**2 - (xe**3 - 64 * B * xe + 64 * B))
    _, resid = sp.div(sp.Poly(resid, v), sp.Poly(v**2 - (u**4 + u**3 + B), v))
    out["quartic_map_on_curve"] = sp.expand(resid.as_expr()) == 0
    out["quartic_map_inverse_identity"] = sp.expand(xe + ye - 4 * u * (1 - xe)) == 0

    # 7. j-invariant derived examples
    out["j_of_m1_1"] = str(sp.Rational(1728 * 4 * (-1) ** 3, 4 * (-1) ** 3 + 27))
    out["A_from_j_6912_over_5"] = str(27 * sp.Rational(6912, 5) / (4 * (sp.Rational(6912, 5) - 1728)))
    out["A_from_j_minus_6912_over_23"] = str(
        27 * sp.Rational(-6912, 23) / (4 * (sp.Rational(-6912, 23) - 1728))
    )

    # (there is no item 8: item numbers are cited elsewhere and stay fixed)

    # 9. infinity image: exact limit of the map along the branch v ~ +u^2
    #    (substitute u = 1/w, v = sqrt(1 + w + B w^4)/w^2, w -> 0+)
    w = sp.symbols("w", positive=True)
    vb = sp.sqrt(1 + w + B * w**4) / w**2
    xe_lim = sp.limit((8 / w**2 + 4 / w - 8 * vb), w, 0, "+")
    ye_lim = sp.limit(8 * (vb * (4 / w + 1) - 4 / w**3 - 3 / w**2), w, 0, "+")
    out["infinity_image_plus_branch"] = [str(sp.simplify(xe_lim)), str(sp.simplify(ye_lim))]

    # 10. fixed-point value: h(1)
    out["h_at_1"] = str(sp.expand(genus5_rhs().subs(x, 1)))
    out["h_at_minus1"] = str(sp.expand(genus5_rhs().subs(x, -1)))

    # 11. discriminants across the family
    out["disc_E"] = str(sp.factor(-16 * (4 * (-A) ** 3 + 27 * A**2)))
    out["disc_Eprime_cubic"] = str(sp.factor(sp.discriminant(4 * (x**3 + A * x**2 + 2 * A * x + A), x) / 16))
    out["disc_quartic_D"] = str(sp.factor(sp.discriminant(x**4 + x**3 + B, x)))
    out["disc_h_factored"] = str(sp.factor(sp.discriminant(genus5_rhs(), x)))
    out["disc_H2_sextic"] = str(sp.factor(sp.discriminant(genus2_rhs(x), x)))
    out["disc_H1_octic"] = str(sp.factor(sp.discriminant((x**2 - 4) * genus2_rhs(x), x)))
    # with leading coefficient A, the degrees 12, 8, 6 and so the genera
    # 5, 3, 2 hold wherever A (4A - 27) != 0
    # the theorem-1 cubic y^2 = x^3 - Ax + B and its auxiliary cubic
    # y^2 = x^3 - 27B x^2 + 27A^3 x: with the rows above, these give the
    # closed form of zeta.is_good_prime
    out["disc_thm1_cubic"] = str(sp.factor(sp.discriminant(x**3 - A * x + B, x)))
    out["disc_thm1_aux_cubic"] = str(
        sp.factor(sp.discriminant(x**3 - 27 * B * x**2 + 27 * A**3 * x, x))
    )
    out["leading_coeffs_h_H1_H2"] = [
        str(sp.Poly(f, x).LC()) for f in (genus5_rhs(), (x**2 - 4) * genus2_rhs(x), genus2_rhs(x))
    ]

    # 12. each cover into the quartic D: v^2 = u^4 + u^3 + B at
    #     (u, v) = (num/q, w/(8 q^2)) on w^2 = h(t), i.e.
    #     h(t) = 64 (num^4 + num^3 q + B q^4) with B = A/64, for
    #     num = -p (f1) and num = -t p (f2), p = t^2+t+1, q = t^3+t^2+t+1
    pt = t**2 + t + 1
    qt = t**3 + t**2 + t + 1
    hz = genus5_rhs().subs(x, t)
    out["cover_into_D_identities"] = {
        name: sp.expand(hz - 64 * (num**4 + num**3 * qt + A / 64 * qt**4)) == 0
        for name, num in (("f1", -pt), ("f2", -t * pt))
    }

    # 13. the palindrome behind the census pair skip: t^12 h(1/t) == h(t)
    #     in Q[A][t], so t and 1/t give the same squarefree part d
    out["h_palindrome_identity"] = sp.expand(sp.cancel(t**12 * hz.subs(t, 1 / t)) - hz) == 0

    # 14. the independence witness at t = 0 (q(0) = 1, h(0) = A != 0): the
    #     x-coordinate xe = 8u^2 + 4u - 8v of item 6 at u = x(0), resp.
    #     u = z(0), and v = w/8, as a polynomial alpha + beta w in w
    out["h_at_t0"] = str(hz.subs(t, 0))
    out["t0_sheet_x"] = {
        name: str(sp.expand(xe.subs({u: ut.subs(t, 0), v: w / 8})))
        for name, ut in (("f1", xt), ("f2", zt))
    }

    # 15. theorem 1's conic is the divided difference of the cubic:
    #     (x^3 - Ax + B) - (z^3 - Az + B) == (x - z)(x^2 + xz + z^2 - A)
    conic = x**2 + x * z + z**2 - A
    cubic_difference = (x**3 - A * x + B) - (z**3 - A * z + B)
    out["thm1_divided_difference_identity"] = sp.expand(cubic_difference - (x - z) * conic) == 0
    out["conic_poly_in_z_coeffs"] = [str(sp.Poly(conic, z).coeff_monomial(z**i)) for i in range(3)]

    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
