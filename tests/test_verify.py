import dataclasses
import random
import time
from fractions import Fraction as F

from twocovers import constructions
from twocovers.algebra import PrimeField
from twocovers.verify import (
    VerificationReport,
    run_suite,
    thm1_fiber_check,
    verify_independence,
    verify_maps_on_curve,
    verify_quotients,
    verify_thm1,
    verify_thm2,
)


class TestThm1:
    def test_canonical_passes(self):
        r = verify_thm1()
        assert r.passed and r.witness is None

    def test_perturbed_conic_fails(self):
        r = verify_thm1(conic_coeffs=(2, 1, 1))
        assert not r.passed and r.witness is not None

    def test_every_single_mutation_fails(self):
        for idx in range(3):
            coeffs = [1, 1, 1]
            coeffs[idx] += 1
            assert not verify_thm1(conic_coeffs=tuple(coeffs)).passed

    def test_numeric_spot_check_f101(self):
        n, ok, distinct = thm1_fiber_check(F(1), F(1), 101)
        assert ok and n > 0
        assert distinct  # the two projections are different maps

    def test_numeric_spot_checks_random(self):
        rng = random.Random(4)
        for _ in range(6):
            A = F(rng.randint(1, 40))
            B = F(rng.randint(-40, 40))
            p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31])
            if A % p == 0:
                continue
            _, ok, _ = thm1_fiber_check(A, B, p)
            assert ok


class TestThm2:
    def test_canonical_passes(self):
        assert verify_thm2().passed

    def test_evaluation_cross_check(self):
        # both sides at t = 2, A = -27
        from twocovers.constructions import genus5_poly

        A, t = F(-27), F(2)
        lhs = 64 * ((t**3 - 1) ** 4 - (t**3 - 1) ** 3 * (t**4 - 1)) + A * (t**4 - 1) ** 4
        assert lhs == (t - 1) ** 4 * genus5_poly(A)(t)

    def test_mutations_fail(self):
        for idx in (0, 3, 7, 12):
            assert not verify_thm2(h_perturbation=(idx, 1)).passed


class TestMapsOnCurve:
    def test_symbolic_passes(self):
        assert verify_maps_on_curve().passed

    def test_specializations_pass(self):
        for A in (F(-27), F(1), F(16), F(5, 7)):
            assert verify_maps_on_curve(A).passed

    def test_corrupted_scaling_fails(self):
        r = verify_maps_on_curve(F(-27), corrupt_scale=True)
        assert not r.passed

    def test_perturbed_jacobian_fails(self, monkeypatch):
        # one y-map coefficient of the Jacobian map D -> E off by one
        original = constructions.quartic_jacobian

        def perturbed(q):
            jac = original(q)
            ya, yb = jac.y_map
            return dataclasses.replace(jac, y_map=(ya + 1, yb))

        monkeypatch.setattr(constructions, "quartic_jacobian", perturbed)
        for A in (None, F(-27)):
            r = verify_maps_on_curve(A)
            assert not r.passed and "Jacobian" in r.witness


class TestIndependence:
    def test_A27_f101(self):
        assert verify_independence(F(-27), 101).passed

    def test_several_good_pairs(self):
        from twocovers.zeta import is_good_prime

        rng = random.Random(9)
        done = 0
        while done < 5:
            A = F(rng.randint(-60, 60))
            p = rng.choice([7, 11, 13, 17, 19, 23])
            if not A or 4 * A == 27 or not is_good_prime(A, p):
                continue
            assert verify_independence(A, p).passed
            done += 1


class TestQuotients:
    def test_symbolic_passes(self):
        assert verify_quotients().passed

    def test_specializations_pass(self):
        for A in (F(-27), F(1), F(9, 4)):
            assert verify_quotients(A).passed

    def test_ramified_value_detected(self):
        r = verify_quotients(F(27, 4))
        assert not r.passed
        assert "x = 1" in r.witness


class TestSuite:
    def test_full_suite_A27(self):
        reports = run_suite(F(-27))
        assert all(r.passed for r in reports)
        names = [r.check for r in reports]
        assert "thm1-ideal-identity" in names
        assert "thm2-model-identity" in names
        assert "independence" in names

    def test_full_suite_A27_runtime(self):
        # bounds the Q(A) squarefree decisions inside build_family, which a
        # gcd over Q(A) would make take several seconds
        start = time.perf_counter()
        reports = run_suite(F(-27))
        elapsed = time.perf_counter() - start
        assert all(r.passed for r in reports)
        assert elapsed < 3.0, f"run_suite took {elapsed:.1f} s"

    def test_serialization(self):
        r = VerificationReport(check="x", status="fail", witness="w")
        assert r.serialize() == {"check": "x", "status": "fail", "witness": "w"}
        r2 = VerificationReport(check="x", status="pass")
        assert r2.serialize() == {"check": "x", "status": "pass"}

    def test_specialization_consistency_random(self):
        # symbolic passes imply specialized passes for random good (A, p):
        # check the numeric identity at every point of F_p for small p
        from twocovers.constructions import covering_maps
        from twocovers.zeta import is_good_prime

        rng = random.Random(12)
        done = 0
        while done < 20:
            A = F(rng.randint(-60, 60), rng.randint(1, 4))
            p = rng.choice([7, 11, 13, 17, 19, 23, 29, 31])
            if not A or 4 * A == 27 or not is_good_prime(A, p):
                continue
            field = PrimeField(p)
            f1, _ = covering_maps(A)
            to_fp = lambda c: field(F(c))
            g = f1.map_coeffs(to_fp)
            Afp = field(A)
            for tv in range(p):
                t0 = field(tv)
                hv = g.h(t0)
                for wv in range(p):
                    w0 = field(wv)
                    if w0 * w0 != hv:
                        continue
                    point = g.quartic_point(t0, w0)
                    if point is None:
                        continue
                    P = g.jacobian.apply(*point)
                    assert P.y * P.y == P.x**3 - Afp * P.x + Afp
            done += 1
