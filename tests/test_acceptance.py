"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated runtime bound.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import time
from fractions import Fraction as F

from twocovers import verify
from twocovers.algebra import Poly
from twocovers.cli import main as cli_main
from twocovers.constructions import D_TO_E, build_family, conic_poly, genus5_poly
from twocovers.curves import CubicModel, on_curve
from twocovers.twists import STATUS_INDEPENDENT, census, growth_table
from twocovers.verify import verify_maps_on_curve, verify_thm1, verify_thm2
from twocovers.zeta import (
    check_remarks,
    count_hyperelliptic,
    count_space_curve,
    count_weierstrass,
    good_primes,
    lpoly_divides,
    lpoly_hyperelliptic,
    lpoly_space_curve,
    lpoly_weierstrass,
)

# frozen from tools/census_oracle.py, run before the build (A=-27, height 25)
ORACLE_CENSUS_DISTINCT_D = 401


def _announce(n, text):
    print(f"CRITERION {n:2d}: PASS - {text}")


def test_criterion_01_thm1_symbolic_identity(monkeypatch):
    start = time.perf_counter()
    assert verify_thm1().passed
    # the conic plus z^2, xz or x^2, each a Poly in z over Q[x]
    one, x = Poly([F(1)]), Poly.gen()
    for bump in (Poly([0, 0, one]), Poly([0, x]), Poly([x * x])):
        monkeypatch.setattr(verify, "conic_poly", lambda A, bump=bump: conic_poly(A) + bump)
        assert not verify_thm1().passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(
        1,
        "divided-difference identity exact over Q[A][x][z]; B cancels; "
        f"mutations flip to fail ({elapsed:.2f}s)",
    )


def test_criterion_02_thm2_symbolic_identity():
    start = time.perf_counter()
    assert verify_thm2().passed
    A = Poly.gen()
    h = genus5_poly(A)
    assert h.degree == 12
    assert h.coeffs[-1] == A
    # h(1) = 256A - 1728 and h(-1) = 64, identically in A
    assert h(Poly([F(1)])) == Poly([F(-1728), F(256)])
    assert h(Poly([F(-1)])) == 64
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(2, f"model identity exact in Q[A][t]; deg 12, lc A, h(-1) = 64 ({elapsed:.2f}s)")


def test_criterion_03_j_round_trip():
    import random

    start = time.perf_counter()
    rng = random.Random(0)
    checked = 0
    while checked < 100:
        j = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        if j in (0, 1728):
            continue
        A = 27 * j / (4 * (j - 1728))
        from twocovers.curves import j_invariant

        assert j_invariant(CubicModel(F(0), -A, A)) == j
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(3, f"100 exact j round trips ({elapsed:.2f}s)")


def _d_is_e(jacobian, monkeypatch):
    """Whether jacobian = ((xa, xb), (ya, yb)) is an isomorphism D -> E over
    Q[A]: verify_maps_on_curve proves that the covers followed by it land on
    E, and u = (X + Y)/(4(1 - X)), v = (xa(u) - X)/8 inverts it exactly when
    xa + ya = 4u(1 - xa) and xb + yb = -4u xb in Q[u]."""
    original = verify.covering_maps
    monkeypatch.setattr(
        verify,
        "covering_maps",
        lambda A: tuple(dataclasses.replace(f, jacobian=jacobian) for f in original(A)),
    )
    on_E = verify_maps_on_curve().passed
    monkeypatch.setattr(verify, "covering_maps", original)
    (xa, xb), (ya, yb) = jacobian
    u = Poly.gen()
    return on_E and xa + ya == 4 * u * (1 - xa) and xb + yb == -4 * u * xb


def test_criterion_04_quartic_jacobian(monkeypatch):
    # D: v^2 = u^4 + u^3 + A/64 is isomorphic to E: y^2 = x^3 - Ax + A for
    # every A, through the one map D_TO_E
    assert _d_is_e(D_TO_E, monkeypatch)
    mutants = 0
    for i, k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for n in range(len(D_TO_E[i][k].coeffs)):
            mutant = [list(pair) for pair in D_TO_E]
            coeffs = list(mutant[i][k].coeffs)
            coeffs[n] += 1
            mutant[i][k] = Poly(coeffs)
            assert not _d_is_e(mutant, monkeypatch), (i, k, n)
            mutants += 1
    _announce(4, f"D_TO_E maps D onto E over Q[A] and inverts; {mutants} one-coefficient mutants fail")


def test_criterion_05_remark2_decomposition():
    start = time.perf_counter()
    rep = check_remarks(F(-27), [7, 11, 13])
    assert [r.p for r in rep.results] == [7, 11, 13]
    for r in rep.results:
        ok, quot = lpoly_divides(r.L_E * r.L_E * r.L_Eprime, r.L_H)
        assert ok, f"p = {r.p}: no exact division"
        assert len(quot) == 5 and all(isinstance(c, int) for c in quot)
        assert r.L_F.coeffs == quot
        assert r.L_F.functional_equation_ok()
        assert (r.L_E * r.L_Eprime).coeffs == r.L_H2.coeffs
        assert (r.L_E * r.L_F).coeffs == r.L_H1.coeffs
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _announce(5, f"exact integer splitting of all L-polynomials at p = 7, 11, 13 ({elapsed:.1f}s)")


def test_criterion_06_space_curve_consistency():
    A, B = F(1), F(1)
    from twocovers.constructions import build_thm1

    c = build_thm1(A, B)
    primes = good_primes(A, 19, B=B)
    assert primes == [5, 7, 11, 13, 17, 19]
    for q in primes:
        n = count_space_curve(A, B, q)
        aE = q + 1 - count_weierstrass(c.cubic, q)
        aEp = q + 1 - count_weierstrass(c.aux_cubic, q)
        assert n == q + 1 - (2 * aE + aEp), f"q = {q}"
    _announce(6, f"space-curve count equals (q+1) - (2a_E + a_E') at q in {primes}")


def test_criterion_07_simplicity_evidence():
    rep = check_remarks(F(-27), [7, 11, 13])
    witnesses = rep.simplicity_witnesses()
    assert witnesses, "no irreducible residual factor in the default sample"
    _announce(
        7,
        f"degree-4 residual factor irreducible over Z at (A, p) = (-27, {witnesses[0]}) "
        f"[all witnesses: {witnesses}]",
    )


def test_criterion_08_weil_and_overdetermination():
    fam = build_family(F(-27))
    # Weil bounds for every count used anywhere in the suite
    for p in (7, 11, 13):
        for model, g in ((fam.H, 5), (fam.H1, 3), (fam.H2, 2)):
            for k in range(1, g + 1):
                n = count_hyperelliptic(model.f, p, k)
                q = p**k
                assert (n - q - 1) ** 2 <= 4 * g * g * q
    # overdetermination at p = 7: the L-polynomial from counts k <= g must
    # predict the independently computed counts for g < k <= 2g
    p = 7
    LH2 = lpoly_hyperelliptic(fam.H2, p)
    for k in (3, 4):
        assert LH2.predicted_count(k) == count_hyperelliptic(fam.H2.f, p, k)
    LH1 = lpoly_hyperelliptic(fam.H1, p)
    for k in (4, 5, 6):
        assert LH1.predicted_count(k) == count_hyperelliptic(fam.H1.f, p, k)
    LC = lpoly_space_curve(F(1), F(1), p)
    for k in (4, 5, 6):
        assert LC.predicted_count(k) == count_space_curve(F(1), F(1), p, k)
    # genus-5 model: full range is 6..10 = 7^10 = 2.8e8 elements; k = 6, 7
    # run here, k = 8 in criterion 8b, k in {9, 10} are beyond the
    # desk-scale enumeration budget (see notes)
    LH = lpoly_hyperelliptic(fam.H, p)
    for k in (6, 7):
        assert LH.predicted_count(k) == count_hyperelliptic(fam.H.f, p, k)
    _announce(
        8,
        "all counts inside Weil intervals; overdetermination passes at p = 7 "
        "(genus-2/3 and space curve full range, genus-5 at k = 6, 7)",
    )


def test_criterion_08b_genus5_overdetermination_k8():
    fam = build_family(F(-27))
    LH = lpoly_hyperelliptic(fam.H, 7)
    assert LH.predicted_count(8) == count_hyperelliptic(fam.H.f, 7, 8)
    _announce(8, "genus-5 overdetermination also passes at k = 8 (5.76e6 elements)")


def test_criterion_09_census():
    start = time.perf_counter()
    A = F(-27)
    records = census(A, 25)
    factored = [r for r in records if r.d is not None]
    by_d = {r.d: r for r in factored}
    assert by_d[1].t == -1, "d = 1 must arise from t = -1"
    assert by_d[-3].t == 0, "d = -3 must arise from t = 0"
    h = genus5_poly(A)
    for r in factored:
        E_d = CubicModel(F(0), -A * r.d * r.d, A * r.d**3)
        assert on_curve(E_d, r.P1) and on_curve(E_d, r.P2)
        assert r.d * r.s * r.s == h(r.t)
    assert len(factored) == ORACLE_CENSUS_DISTINCT_D
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(
        9,
        f"census has d = 1 and d = -3, all points exactly on their twists, "
        f"{len(factored)} distinct d matching the pre-build oracle ({elapsed:.1f}s)",
    )


def test_criterion_10_growth_table():
    records = census(F(-27), 25)
    grid = [10, 10**2, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18, 10**21]
    summary = growth_table(records, grid)
    assert list(summary.counts) == sorted(summary.counts), "N(X) must be nondecreasing"
    ds = [r.d for r in records if r.status == STATUS_INDEPENDENT]
    assert len(ds) == len(set(ds)), "each d counted once"
    assert len(summary.reference) == len(grid)
    for ref in summary.reference:
        float(ref)  # well-formed fixed-precision decimal
    _announce(
        10,
        "growth table monotone, d deduplicated, reference column emitted "
        "(no numeric target: the bound is asymptotic)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    cases = [
        ["construct", "--j", "6912/5"],
        ["construct", "--theorem", "1", "--A", "1", "--B", "1"],
        ["verify", "--A", "-27"],
        ["zeta", "--A", "-27", "--curve", "H2", "--primes", "7,11"],
        ["zeta", "--curve", "C", "--A", "1", "--B", "1", "--primes", "7"],
        ["remarks", "--A", "-27", "--B", "1", "--primes", "7"],
        ["twists", "--A", "-27", "--height", "6"],
        ["growth", "--A", "-27", "--height", "6", "--grid", "10,100,1000"],
    ]
    for i, case in enumerate(cases):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        code1 = cli_main(case + ["--out", str(a)])
        code2 = cli_main(case + ["--out", str(b)])
        assert code1 == code2
        assert a.read_bytes() == b.read_bytes(), case
    _announce(11, f"{len(cases)} CLI invocations byte-identical across double runs")
