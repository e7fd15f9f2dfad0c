import dataclasses
import random
import time
from fractions import Fraction as F

import pytest

from twocovers import constructions, verify
from twocovers.algebra import Fp, Poly
from twocovers.verify import (
    VerificationReport,
    run_suite,
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


class TestThm2:
    def test_canonical_passes(self):
        assert verify_thm2().passed

    def test_evaluation_cross_check(self):
        # both sides at t = 2, A = -27
        from twocovers.constructions import genus5_poly

        A, t = F(-27), F(2)
        lhs = 64 * ((t**3 - 1) ** 4 - (t**3 - 1) ** 3 * (t**4 - 1)) + A * (t**4 - 1) ** 4
        assert lhs == (t - 1) ** 4 * genus5_poly(A)(t)


class TestMapsOnCurve:
    def test_symbolic_passes(self):
        assert verify_maps_on_curve().passed

    def test_specializations_pass(self):
        for A in (F(-27), F(1), F(16), F(5, 7)):
            assert verify_maps_on_curve(A).passed


class TestIndependence:
    def test_passes_over_several_A(self):
        # every A here is one that build_family accepts
        for A in (F(-27), F(1), F(5), F(-3, 4), F(7, 2), F(100), F(-1), F(9, 4)):
            r = verify_independence(A)
            assert r.passed and r.witness is None, A

    def test_t0_sheet_pairs_frozen(self):
        # x(f_i(0, w)) = alpha_i + beta_i w: 4 - w for f1 and -w for f2 at
        # every A (tools/identity_oracle.py, item 14)
        for A in (F(-27), F(1), F(-3, 4)):
            f1, f2 = constructions.covering_maps(A)
            assert f1.sheet_split(0)[:2] == (4, -1)
            assert f2.sheet_split(0)[:2] == (0, -1)

    def test_equal_covers_fail(self, monkeypatch):
        original = verify.covering_maps

        def doubled(A):
            f1, _ = original(A)
            return f1, f1

        monkeypatch.setattr(verify, "covering_maps", doubled)
        r = verify_independence(F(-27))
        assert not r.passed and "4 + (-1) w" in r.witness


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


# ---------------------------------------------------------------------------
# mutations: each check passes as built and fails once one module seam of
# verify (a function it imports from constructions) returns a corrupted value

t = Poly.gen()


def _z(*coeffs_in_x):
    """A Poly in z over Q[x]; each argument is one z-coefficient, given as its
    x-coefficients (low to high)."""
    return Poly([Poly([F(c) for c in cx]) for cx in coeffs_in_x])


def _plus(original, term):
    return lambda *args: original(*args) + term


def _each_cover(change):
    return lambda A: tuple(change(f) for f in constructions.covering_maps(A))


def _sheet_scaled(f):
    # w rescaled by a stray (t - 1)^2, so h becomes h (t - 1)^4
    return dataclasses.replace(f, h=f.h * (t - 1) ** 4)


def _y_map_bumped(f):
    # one y-map coefficient of the map D -> E off by one
    x_map, (ya, yb) = f.jacobian
    return dataclasses.replace(f, jacobian=(x_map, (ya + 1, yb)))


def _negated_second(A):
    # -f1 negates the y-map of the map D -> E and keeps its x-map
    f1, _ = constructions.covering_maps(A)
    x_map, (ya, yb) = f1.jacobian
    return f1, dataclasses.replace(f1, name="-f1", jacobian=(x_map, (-ya, -yb)))


_conic = constructions.conic_poly
_h = constructions.genus5_poly
_plane = constructions.plane_relation_poly
_scaled = _each_cover(_sheet_scaled)
_bumped = _each_cover(_y_map_bumped)
_INTO_D = "cover into D: nonzero residual"

MUTATIONS = [
    # (id, check, seam, mutant, args, substring of the witness)
    ("thm1-conic-z2", verify_thm1, "conic_poly", _plus(_conic, _z((), (), (1,))), (), ""),
    ("thm1-conic-xz", verify_thm1, "conic_poly", _plus(_conic, _z((), (0, 1))), (), ""),
    ("thm1-conic-x2", verify_thm1, "conic_poly", _plus(_conic, _z((0, 0, 1))), (), ""),
    *((f"thm2-h{i}", verify_thm2, "genus5_poly", _plus(_h, t**i), (), "") for i in (0, 3, 7, 12)),
    # the companion identity is what proves the plane relation monic of
    # z-degree 3, so both covers have degree 3 onto the quartic
    ("thm2-plane-lead", verify_thm2, "plane_relation_poly", _plus(_plane, _z((), (), (), (1,))), (), ""),
    ("thm2-plane-const", verify_thm2, "plane_relation_poly", _plus(_plane, _z((1,))), (), ""),
    ("maps-sheet-scale-A-27", verify_maps_on_curve, "covering_maps", _scaled, (F(-27),), _INTO_D),
    ("maps-sheet-scale-QA", verify_maps_on_curve, "covering_maps", _scaled, (), _INTO_D),
    ("maps-y-map-A-27", verify_maps_on_curve, "covering_maps", _bumped, (F(-27),), "Jacobian"),
    ("maps-y-map-QA", verify_maps_on_curve, "covering_maps", _bumped, (), "Jacobian"),
    ("negated-cover", verify_independence, "covering_maps", _negated_second, (F(-27),), "4 + (-1) w"),
]


@pytest.mark.parametrize(
    "check, seam, mutant, args, witness",
    [pytest.param(*row[1:], id=row[0]) for row in MUTATIONS],
)
def test_mutation_fails(monkeypatch, check, seam, mutant, args, witness):
    assert check(*args).passed
    monkeypatch.setattr(verify, seam, mutant)
    r = check(*args)
    assert not r.passed and witness in r.witness


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
            f1, _ = covering_maps(A)
            to_fp = lambda c: Fp(F(c).numerator, p) / F(c).denominator
            g = f1.map_coeffs(to_fp)
            Afp = to_fp(A)
            for tv in range(p):
                t0 = Fp(tv, p)
                hv = g.h(t0)
                for wv in range(p):
                    w0 = Fp(wv, p)
                    if w0 * w0 != hv:
                        continue
                    if g.quartic_point(t0, w0) is None:
                        continue
                    P = g.evaluate(t0, w0)
                    assert P.y * P.y == P.x**3 - Afp * P.x + Afp
            done += 1
