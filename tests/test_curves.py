import itertools
import random
from fractions import Fraction as F

import pytest

from twocovers.algebra import Fp, Poly
from twocovers.curves import (
    CubicModel,
    CurveError,
    ECPoint,
    HyperellipticModel,
    OffCurveError,
    QuarticModel,
    SingularModelError,
    TwistMismatchError,
    discriminant,
    ec_add,
    ec_neg,
    ec_scalar,
    hyperelliptic_genus,
    j_invariant,
    model_to_obj,
    on_curve,
    quadratic_twist,
    twist_factor,
)


def E(a2, a4, a6):
    return CubicModel(F(a2), F(a4), F(a6))


class TestInvariants:
    def test_j_1728(self):
        assert j_invariant(E(0, -1, 0)) == 1728

    def test_j_0(self):
        assert j_invariant(E(0, 0, 1)) == 0

    def test_j_derived(self):
        # j = 1728 * 4a^3/(4a^3 + 27b^2) with a = -1, b = 1
        assert j_invariant(E(0, -1, 1)) == F(-6912, 23)

    def test_disc_cusp(self):
        assert discriminant(CubicModel.singular(F(0), F(0), F(0))) == 0

    def test_disc_node(self):
        assert discriminant(CubicModel.singular(F(1), F(0), F(0))) == 0

    def test_disc_64(self):
        assert discriminant(E(0, -1, 0)) == 64

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            CubicModel(F(0), F(0), F(0))

    def test_j_consistency_1728delta(self):
        rng = random.Random(7)
        for _ in range(50):
            a2, a4, a6 = (F(rng.randint(-9, 9)) for _ in range(3))
            m = CubicModel.singular(a2, a4, a6)
            d = discriminant(m)
            if not d:
                continue
            from twocovers.curves import c_invariants

            c4, c6 = c_invariants(m)
            assert c4**3 - c6**2 == 1728 * d


class TestGroupLaw:
    def setup_method(self):
        self.c = E(0, -1, 0)  # y^2 = x^3 - x

    def test_identity(self):
        P = ECPoint(F(0), F(0))
        assert ec_add(self.c, P, ECPoint.zero()) == P
        assert ec_add(self.c, ECPoint.zero(), P) == P

    def test_two_torsion_chord(self):
        P, Q = ECPoint(F(0), F(0)), ECPoint(F(1), F(0))
        assert ec_add(self.c, P, Q) == ECPoint(F(-1), F(0))

    def test_doubling_two_torsion(self):
        assert ec_scalar(self.c, 2, ECPoint(F(0), F(0))) == ECPoint.zero()

    def test_neg(self):
        c = E(0, -1, 1)
        P = ECPoint(F(1), F(1))
        assert ec_add(c, P, ec_neg(P)) == ECPoint.zero()

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurveError):
            ec_add(self.c, ECPoint(F(2), F(2)), ECPoint.zero())

    def test_scalar_matches_repeated_addition(self):
        c = E(0, -1, 1)
        P = ECPoint(F(1), F(1))
        acc = ECPoint.zero()
        for n in range(1, 9):
            acc = ec_add(c, acc, P)
            assert ec_scalar(c, n, P) == acc
        assert ec_scalar(c, -3, P) == ec_neg(ec_scalar(c, 3, P))

    def test_group_axioms_exhaustive_f13(self):
        f13 = [Fp(v, 13) for v in range(13)]
        c = CubicModel(f13[0], f13[-1], f13[1])
        pts = [ECPoint.zero()]
        for x in f13:
            for y in f13:
                if y * y == c.rhs(x):
                    pts.append(ECPoint(x, y))
        # commutativity and associativity over every pair/triple
        for P, Q in itertools.product(pts, repeat=2):
            assert ec_add(c, P, Q) == ec_add(c, Q, P)
        for P, Q, R in itertools.product(pts, repeat=3):
            assert ec_add(c, ec_add(c, P, Q), R) == ec_add(c, P, ec_add(c, Q, R))


class TestTwists:
    def test_d1_identity(self):
        c = E(0, -1, 1)
        assert quadratic_twist(c, F(1)) == c

    def test_short_form_twist(self):
        c = E(0, -1, 1)
        t = quadratic_twist(c, F(2))
        assert t == E(0, -4, 8)
        assert j_invariant(t) == j_invariant(c)

    def test_double_twist_isomorphic(self):
        c = E(0, -1, 1)
        t2 = quadratic_twist(quadratic_twist(c, F(5)), F(5))
        assert j_invariant(t2) == j_invariant(c)
        d = twist_factor(c, t2)
        assert d == 25  # a square: isomorphic over Q

    def test_j_invariance_random(self):
        rng = random.Random(0)
        for _ in range(30):
            a4, a6 = F(rng.randint(-20, 20)), F(rng.randint(-20, 20))
            d = F(rng.randint(1, 30))
            try:
                c = CubicModel(F(0), a4, a6)
            except SingularModelError:
                continue
            assert j_invariant(quadratic_twist(c, d)) == j_invariant(c)
            assert j_invariant(quadratic_twist(c, -d)) == j_invariant(c)

    def test_zero_d_rejected(self):
        with pytest.raises(CurveError):
            quadratic_twist(E(0, -1, 1), F(0))

    def test_hyperelliptic_twist_literal_and_normalized(self):
        f = Poly([F(-27), F(0), F(0), F(0), F(0), F(0), F(1)])  # x^6 - 27
        norm = quadratic_twist(HyperellipticModel(f), F(-3))
        # (0, 3) on the literal d y^2 = f(x) is (0, d 3) on y^2 = d f(x)
        assert norm.f == -3 * f
        assert on_curve(norm, (F(0), F(-9)))
        assert not on_curve(norm, (F(0), F(3)))

    def test_twist_factor_examples(self):
        c1 = E(0, -1, 1)
        c2 = E(0, -4, 8)
        assert twist_factor(c1, c2) == 2
        assert twist_factor(c1, c1) == 1
        with pytest.raises(TwistMismatchError):
            twist_factor(c1, E(0, -2, 1))

    def test_twist_factor_j_special_rejected(self):
        with pytest.raises(TwistMismatchError):
            twist_factor(E(0, -1, 0), E(0, -4, 0))  # j = 1728

    def test_twist_factor_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            a4, a6 = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
            d = F(rng.randint(-12, 12))
            if not (a4 and a6 and d):
                continue
            try:
                c = CubicModel(F(0), a4, a6)
            except SingularModelError:
                continue
            j = j_invariant(c)
            if not j or j == 1728:
                continue
            t = quadratic_twist(c, d)
            got = twist_factor(c, t)
            assert got == d
            assert t.a4 == got * got * c.a4


class TestQuarticJacobian:
    # the quartic model D, whose Jacobian is E (the map itself is
    # constructions.D_TO_E): a quartic with a repeated root is refused
    def test_singular_quartic_rejected(self):
        with pytest.raises(SingularModelError):
            QuarticModel(F(1), F(1), F(0), F(0), F(0))  # B = 0


class TestGenus:
    def test_degrees(self):
        # squarefree stand-ins of the three even degrees used here
        x = Poly.gen()
        assert hyperelliptic_genus(x**12 + x + 1) == 5
        assert hyperelliptic_genus(x**8 + x + 1) == 3
        assert hyperelliptic_genus(x**6 + x + 1) == 2
        assert hyperelliptic_genus(x**5 - x + 2) == 2

    def test_non_squarefree_rejected(self):
        x = Poly.gen()
        with pytest.raises(SingularModelError):
            hyperelliptic_genus((x - 1) ** 2 * (x**2 + 1))

    def test_model_stores_genus(self):
        x = Poly.gen()
        assert HyperellipticModel(x**6 - 2).genus == 2

    @staticmethod
    def _over_QA():
        """(x, A) in Q[A][x], with A lifted to a constant in x."""
        return Poly([Poly([]), Poly([F(1)])]), Poly.const(Poly.gen())

    def test_squarefree_over_function_field(self):
        # (x - A)(x - 2A) is squarefree over Q(A); (x - A)^2 is not
        x, A = self._over_QA()
        assert hyperelliptic_genus((x - A) * (x - 2 * A) * (x + 1)) == 1
        with pytest.raises(SingularModelError):
            hyperelliptic_genus((x - A) ** 2 * (x**2 + 1))

    def test_bad_specialisations_do_not_decide(self):
        # x^3 at A = 0, 1, 2, 3, squarefree over Q(A)
        x, A = self._over_QA()
        assert hyperelliptic_genus(x**3 + A * (A - 1) * (A - 2) * (A - 3) * x) == 1

    def test_leading_coefficient_vanishing_at_zero(self):
        x, A = self._over_QA()
        assert hyperelliptic_genus(A * x**5 + x + 1) == 2
        # at A = 0 this drops to the squarefree x^2 + 1
        with pytest.raises(SingularModelError):
            hyperelliptic_genus((A * x + 1) ** 2 * (x**2 + 1))


class TestOnCurve:
    def test_cubic_point(self):
        assert on_curve(E(0, -1, 1), ECPoint(F(1), F(1)))
        assert not on_curve(E(0, -1, 1), ECPoint(F(1), F(2)))
        assert on_curve(E(0, -1, 1), ECPoint.zero())

    def test_pair_points(self):
        x = Poly.gen()
        m = HyperellipticModel(x**6 + 3)
        assert on_curve(m, (F(1), F(2)))
        assert not on_curve(m, (F(1), F(1)))


class TestPrimeFieldCurves:
    def test_count_matches_direct(self):
        f7 = [Fp(v, 7) for v in range(7)]
        c = CubicModel(f7[0], f7[-1], f7[1])
        n = 1 + sum(1 for x in f7 for y in f7 if y * y == c.rhs(x))
        assert n == 12


class TestSerialization:
    def test_cubic_roundtrip(self):
        c = E(0, F(-27), F("27/4"))
        assert model_to_obj(c) == {
            "model": "cubic",
            "coeffs": [["27", "4"], ["-27", "1"], ["0", "1"], ["1", "1"]],
        }

    def test_denominator_positive_and_canonical(self):
        c = E(0, F(1, -2) if False else F(-1, 2), 1)
        obj = model_to_obj(c)
        assert obj["coeffs"][1] == ["-1", "2"]

    def test_hyperelliptic_roundtrip(self):
        x = Poly.gen()
        m = HyperellipticModel(x**6 - F(27))
        assert model_to_obj(m) == {
            "model": "hyperelliptic",
            "coeffs": [["-27", "1"]] + [["0", "1"]] * 5 + [["1", "1"]],
        }

    def test_quartic_roundtrip(self):
        q = QuarticModel(F(1), F(1), F(0), F(0), F(5))
        assert model_to_obj(q) == {
            "model": "quartic",
            "coeffs": [["5", "1"], ["0", "1"], ["0", "1"], ["1", "1"], ["1", "1"]],
        }
