import itertools
import random
from fractions import Fraction as F

import pytest

from twocovers.algebra import ExtField, Poly, quadratic_character
from twocovers.constructions import build_family, build_thm1
from twocovers.counting import (
    BadPrimeError,
    CountingBudgetError,
    affine_count_rhs,
    affine_count_space,
    field_modulus,
)
from twocovers.curves import CubicModel, HyperellipticModel
from twocovers.zeta import (
    CountingBugError,
    LPolynomial,
    check_remarks,
    count_hyperelliptic,
    count_space_curve,
    count_weierstrass,
    good_primes,
    is_good_prime,
    lpoly_divides,
    lpoly_hyperelliptic,
    lpoly_irreducible_over_Z,
    lpoly_space_curve,
    lpoly_weierstrass,
    overdetermination_check,
)

A27 = F(-27)


class TestCounts:
    def test_rational_curve(self):
        # y^2 = x: one point per nonzero square, one at 0, one at infinity
        assert count_hyperelliptic(Poly([F(0), F(1)]), 7) == 8

    def test_cubic_count_f7(self):
        assert count_hyperelliptic(Poly([F(1), F(-1), F(0), F(1)]), 7) == 12
        assert count_weierstrass(CubicModel(F(0), F(-1), F(1)), 7) == 12

    def test_family_E_reduction(self):
        fam = build_family(A27)
        assert count_weierstrass(fam.E, 7) == 12  # -27 = 1, 27 = -1 mod 7

    def test_H_infinity_convention(self):
        # leading coefficient A = -27 = 1 mod 7, a square: two points at infinity
        fam = build_family(A27)
        affine = affine_count_rhs([int(c) % 7 for c in _int_coeffs(fam.H.f, 7)], 7, 1)
        assert count_hyperelliptic(fam.H, 7) == affine + 2

    def test_weil_bounds_everywhere(self):
        fam = build_family(A27)
        for p in (7, 11, 13):
            for model, g in ((fam.H, 5), (fam.H1, 3), (fam.H2, 2)):
                for k in (1, 2):
                    n = count_hyperelliptic(model.f, p, k)
                    q = p**k
                    assert (n - q - 1) ** 2 <= 4 * g * g * q

    def test_bad_prime_raises(self):
        # y^2 = x^3 - x mod 2 is excluded; mod 5 x^3 - x is fine, x^2(x-1) is not
        with pytest.raises(BadPrimeError):
            count_hyperelliptic(Poly([F(0), F(0), F(-1), F(1)]), 5)

    def test_degree_drop_is_bad_prime(self):
        # 7x^5 + x + 1 reduces to the genus-0 y^2 = x + 1 mod 7: no count
        # and no L-polynomial may come out of it
        f = Poly([F(1), F(1), F(0), F(0), F(0), F(7)])
        with pytest.raises(BadPrimeError):
            count_hyperelliptic(f, 7)
        with pytest.raises(BadPrimeError):
            lpoly_hyperelliptic(HyperellipticModel(f), 7)

    def test_quartic_counts_match_cubic(self):
        # the quartic and its Jacobian cubic are isomorphic over Q
        fam = build_family(A27)
        for p in (7, 11, 13):
            for k in (1, 2):
                assert count_hyperelliptic(fam.D, p, k) == count_weierstrass(fam.E, p, k)


def _int_coeffs(f, p):
    out = []
    for c in f.coeffs:
        fr = F(c)
        out.append(fr.numerator * pow(fr.denominator, p - 2, p) % p)
    return out


class TestSpaceCurve:
    def test_infinity_when_minus3_nonsquare(self):
        # q = 2 mod 3: -3 is a non-square, no rational points at infinity
        for p in (5, 11, 17):
            assert quadratic_character(-3, p) == -1
        for p in (7, 13, 19):
            assert quadratic_character(-3, p) == 1

    def test_consistency_identity_A1B1(self):
        A, B = F(1), F(1)
        c = build_thm1(A, B)
        for q in good_primes(A, 19, B=B):
            n = count_space_curve(A, B, q)
            aE = q + 1 - count_weierstrass(c.cubic, q)
            aEp = q + 1 - count_weierstrass(c.aux_cubic, q)
            assert n == q + 1 - (2 * aE + aEp)

    def test_mutated_discriminant_breaks_identity(self):
        # replacing the fiber discriminant 4A - 3x^2 by 4A - x^2 must break
        # the consistency identity at some q <= 19
        A, B = F(1), F(1)
        c = build_thm1(A, B)
        broken = []
        for q in good_primes(A, 19, B=B):
            cubic = _int_coeffs(c.cubic.rhs_poly(), q)
            disc = [4 % q, 0, (-1) % q]  # wrong: should be -3 x^2
            n = affine_count_space(cubic, disc, q, 1) + 1 + quadratic_character(-3, q)
            aE = q + 1 - count_weierstrass(c.cubic, q)
            aEp = q + 1 - count_weierstrass(c.aux_cubic, q)
            broken.append(n != q + 1 - (2 * aE + aEp))
        assert any(broken)

    def test_cm_case_exact(self):
        # A=1, B=0: both cubic factors have j = 1728 and trace 0 at p = 7
        n = count_space_curve(F(1), F(0), 7)
        assert n == 8


class TestLPolynomial:
    def test_genus1_example(self):
        L = LPolynomial.from_counts(7, (12,))
        assert L.coeffs == (1, 4, 7)

    def test_functional_equation_g1(self):
        for n in range(3, 14):
            L = LPolynomial.from_counts(7, (n,))
            assert L.coeffs[2] == 7

    def test_newton_g2(self):
        # c1 = -S1, c2 = (S1^2 - S2)/2, c3 = q c1, c4 = q^2
        q = 7
        fam = build_family(A27)
        counts = tuple(count_hyperelliptic(fam.H2.f, q, k) for k in (1, 2))
        L = LPolynomial.from_counts(q, counts)
        S1 = q + 1 - counts[0]
        S2 = q * q + 1 - counts[1]
        assert L.coeffs[1] == -S1
        assert L.coeffs[2] == (S1 * S1 - S2) // 2
        assert L.coeffs[3] == q * L.coeffs[1]
        assert L.coeffs[4] == q * q

    def test_weil_violation_rejected(self):
        with pytest.raises(CountingBugError):
            LPolynomial.from_counts(7, (40,))

    def test_counts_roundtrip(self):
        fam = build_family(A27)
        for p in (7, 11):
            L = lpoly_hyperelliptic(fam.H2, p)
            for k in (1, 2):
                assert L.predicted_count(k) == count_hyperelliptic(fam.H2.f, p, k)

    def test_serialize(self):
        L = LPolynomial.from_counts(7, (12,))
        assert L.serialize() == {"q": 7, "g": 1, "coeffs": [1, 4, 7]}


class TestDivides:
    def test_constructed_product(self):
        a = LPolynomial((1, 4, 7), 7, 1)
        b = LPolynomial((1, -2, 7), 7, 1)
        ok, quot = lpoly_divides(a, a * b)
        assert ok and quot == b.coeffs

    def test_non_divisor(self):
        a = LPolynomial((1, 4, 7), 7, 1)
        b = LPolynomial((1, -2, 7), 7, 1)
        prod = a * b
        # perturb one coefficient pair, keeping the functional equation
        coeffs = list(prod.coeffs)
        coeffs[1] += 1
        coeffs[3] = 7 * coeffs[1]  # keep the functional equation
        doctored = LPolynomial(tuple(coeffs), 7, 2)
        ok, _ = lpoly_divides(a, doctored)
        assert not ok

    def test_irreducibility_frozen_values(self):
        # computed by the counting pipeline; (1,0,6,0,49) has no linear or
        # quadratic integer factor, (1,2,2,26,169) = (1+6T+13T^2)(1-4T+13T^2)
        assert lpoly_irreducible_over_Z(LPolynomial((1, 0, 6, 0, 49), 7, 2))
        assert not lpoly_irreducible_over_Z(LPolynomial((1, 2, 2, 26, 169), 13, 2))

    def test_products_always_reducible(self):
        rng = random.Random(2)
        for _ in range(20):
            a1 = rng.randint(-5, 5)
            a2 = rng.randint(-5, 5)
            q = 7
            try:
                La = LPolynomial((1, a1, q), q, 1)
                Lb = LPolynomial((1, a2, q), q, 1)
            except CountingBugError:
                continue
            prod = La * Lb
            if (prod.coeffs[1] ** 2 - 4 * (prod.coeffs[2] - 2 * q)) < 0:
                pass
            assert not lpoly_irreducible_over_Z(prod)


class TestGoodPrimes:
    def test_family_good_primes(self):
        assert good_primes(A27, 23) == [7, 11, 13, 17, 19, 23]
        assert not is_good_prime(A27, 5)  # disc(E) = 16 A^2 (4A-27) = 0 mod 5
        assert not is_good_prime(A27, 2) and not is_good_prime(A27, 3)

    def test_thm1_good_primes(self):
        assert good_primes(F(1), 19, B=F(1)) == [5, 7, 11, 13, 17, 19]
        assert not is_good_prime(F(1), 23, B=F(1))  # 23 | disc


@pytest.fixture(scope="module")
def report():
    return check_remarks(A27, [7, 11, 13], B=F(1))


class TestRemarks:

    def test_all_primes_good_and_processed(self, report):
        assert [r.p for r in report.results] == [7, 11, 13]
        assert not report.skipped

    def test_decomposition_identities(self, report):
        for r in report.results:
            assert (r.L_E * r.L_Eprime).coeffs == r.L_H2.coeffs
            assert (r.L_E * r.L_F).coeffs == r.L_H1.coeffs
            ok, quot = lpoly_divides(r.L_E * r.L_E * r.L_Eprime, r.L_H)
            assert ok and quot == r.L_F.coeffs
            assert r.L_F.functional_equation_ok()

    def test_no_structural_alarm(self, report):
        assert report.structural_alarm == ()
        for r in report.results:
            assert (r.L_H1 * r.L_H2).coeffs == r.L_H.coeffs

    def test_simplicity_witness(self, report):
        assert 7 in report.simplicity_witnesses()
        frozen = {r.p: r.L_F.coeffs for r in report.results}
        assert frozen[7] == (1, 0, 6, 0, 49)

    def test_space_curve_consistency(self, report):
        for r in report.results:
            assert r.space_curve_ok

    def test_wrong_eprime_breaks_divisibility(self):
        # dropping the middle term of the auxiliary cubic must break the
        # genus-2 splitting at some p <= 13
        fam = build_family(A27)
        wrong = CubicModel(fam.Eprime.a2, F(0), fam.Eprime.a6)  # drop 2Ax
        broken = []
        for p in (7, 11, 13):
            LE = lpoly_weierstrass(fam.E, p)
            Lw = lpoly_weierstrass(wrong, p)
            LH2 = lpoly_hyperelliptic(fam.H2, p)
            broken.append((LE * Lw).coeffs != LH2.coeffs)
        assert any(broken)


class TestOverdetermination:
    def test_H2_full_range(self):
        fam = build_family(A27)
        L = lpoly_hyperelliptic(fam.H2, 7)
        rows = overdetermination_check(lambda k: count_hyperelliptic(fam.H2.f, 7, k), L, (3, 4))
        for _, predicted, computed in rows:
            assert predicted == computed

    def test_H1_full_range(self):
        fam = build_family(A27)
        L = lpoly_hyperelliptic(fam.H1, 7)
        rows = overdetermination_check(lambda k: count_hyperelliptic(fam.H1.f, 7, k), L, (4, 5, 6))
        for _, predicted, computed in rows:
            assert predicted == computed

    def test_space_curve_full_range(self):
        L = lpoly_space_curve(F(1), F(1), 7)
        rows = overdetermination_check(lambda k: count_space_curve(F(1), F(1), 7, k), L, (4, 5, 6))
        for _, predicted, computed in rows:
            assert predicted == computed

    def test_H_at_k6(self):
        fam = build_family(A27)
        L = lpoly_hyperelliptic(fam.H, 7)
        assert L.g == 5 and len(L.coeffs) == 11
        assert L.predicted_count(6) == count_hyperelliptic(fam.H.f, 7, 6)

    def test_budget_guard(self):
        fam = build_family(A27)
        with pytest.raises(CountingBudgetError):
            count_hyperelliptic(fam.H.f, 7, 9)
        with pytest.raises(CountingBudgetError):  # beyond the kernel's int32 tables
            affine_count_rhs([1, 0, 1], 7, 11, max_field_size=7**11)


def _brute_characters(f, fld):
    """chi(f(x)) for every x of fld, by FqElement arithmetic and Euler's
    criterion: no tables, no primitive element."""
    out = []
    for x in fld.elements():
        acc = fld.zero()
        for c in reversed(f):
            acc = acc * x + c
        out.append(quadratic_character(acc))
    return out


class TestCountingOracle:
    FIELDS = ((7, 1), (7, 2), (7, 3), (11, 2), (5, 4))
    SEEDS = (0, 5, 9)

    def _polys(self, p, seed):
        rng = random.Random(seed)
        fam = build_family(A27)
        return [
            _int_coeffs(fam.H.f, p),  # degree 12
            [0, 3, 1, 0, 2],  # f(0) = 0
            [rng.randrange(p) for _ in range(5)] + [1],
        ]

    def test_rhs_matches_brute_force(self):
        for (p, k), seed in itertools.product(self.FIELDS, self.SEEDS):
            # the oracle's field presentation differs from the kernel's
            fld = ExtField(p, k, seed=seed + 1)
            for f in self._polys(p, seed):
                expected = sum(1 + c for c in _brute_characters(f, fld))
                assert affine_count_rhs(f, p, k, seed=seed) == expected, (p, k, seed, f)

    def test_space_matches_brute_force(self):
        cubic = [1, 6, 0, 1]
        for (p, k), seed in itertools.product(self.FIELDS, self.SEEDS):
            disc = [4, 0, (-3) % p]
            fld = ExtField(p, k, seed=seed + 1)
            chis = zip(_brute_characters(cubic, fld), _brute_characters(disc, fld))
            expected = sum((1 + c1) * (1 + c2) for c1, c2 in chis)
            assert affine_count_space(cubic, disc, p, k, seed=seed) == expected, (p, k, seed)

    def test_counts_independent_of_modulus(self):
        # the point count is intrinsic: recount under different (seeded)
        # irreducible presentations of F_{7^k}
        coeffs = _int_coeffs(build_family(A27).H2.f, 7)
        for k in (2, 3, 4):
            assert len({field_modulus(7, k, seed) for seed in self.SEEDS}) == 3
            assert len({affine_count_rhs(coeffs, 7, k, seed=seed) for seed in self.SEEDS}) == 1
