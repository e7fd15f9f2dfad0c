import math
import random
import time
from fractions import Fraction as F

import pytest

from twocovers import algebra, twists
from twocovers.algebra import MILLER_RABIN_BOUND, Poly
from twocovers.constructions import genus5_poly, odd_covering_maps
from twocovers.curves import CubicModel, CurveError, ECPoint, ec_add, ec_neg, ec_scalar, on_curve
from twocovers.twists import (
    STATUS_DEGENERATE,
    STATUS_DEPENDENT,
    STATUS_INDEPENDENT,
    STATUS_UNFACTORED,
    TRIAL_DIVISION_BOUND,
    CENSUS_HEADER,
    CensusSummary,
    TwistRecord,
    UnfactoredError,
    census,
    factorize,
    growth_table,
    independence_screen,
    record_to_tsv,
    squarefree_part,
    summary_to_tsv,
)

# frozen outputs of tools/census_oracle.py (A = -27, height bound 25)
ORACLE_DISTINCT_D = 401
ORACLE_SMALLEST_D = [1, -3, -15, -339, -719, -126591]


class TestFactorize:
    def test_small(self):
        assert factorize(8640) == {2: 6, 3: 3, 5: 1}
        assert factorize(-97) == {97: 1}
        assert factorize(1) == {}

    def test_random_roundtrip(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 10**12)
            f = factorize(n)
            prod = 1
            for p, e in f.items():
                assert p > 1
                prod *= p**e
            assert prod == n

    def test_twenty_digit_semiprime(self):
        p, q = 10000000019, 10000000033
        f = factorize(p * q)
        assert f == {p: 1, q: 1}

    def test_strong_pseudoprime_to_bases_up_to_37_is_split(self):
        # psi_12 passes Miller-Rabin to the bases 2..37; before base 41 was
        # added it came back as a prime
        assert factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}

    def test_composite_cofactor_beyond_primality_range_is_split(self):
        # 10007 is above the trial-division bound, so rho gets the whole
        # product; a Miller-Rabin witness proves it composite at any size
        n = 399165290221 * 798330580441 * 10007
        assert n > MILLER_RABIN_BOUND
        assert factorize(n) == {10007: 1, 399165290221: 1, 798330580441: 1}

    @pytest.mark.parametrize("n", [3317044064679887385961981, 6 * 3317044064679887385961981])
    def test_cofactor_beyond_primality_range_is_unfactored(self, n):
        with pytest.raises(UnfactoredError):
            factorize(n)

    def test_small_prime_strip(self):
        n = 2**5 * 3 * 9973**2 * 10007
        assert algebra._strip_small_primes(n) == ({2: 5, 3: 1, 9973: 2}, 10007)
        # the gcd is 2 * 9973: its last prime is read off once p^2 exceeds it
        assert algebra._strip_small_primes(2 * 9973) == ({2: 1, 9973: 1}, 1)
        assert algebra._strip_small_primes(10007 * 10009) == ({}, 10007 * 10009)
        assert algebra._strip_small_primes(1) == ({}, 1)


class TestSquarefreePart:
    def test_examples(self):
        assert squarefree_part(F(64)) == (1, 8)
        assert squarefree_part(F(-27)) == (-3, 3)
        assert squarefree_part(F(8, 9)) == (2, F(2, 3))

    def test_identity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            v = F(rng.randint(-10**8, 10**8), rng.randint(1, 10**6))
            if not v:
                continue
            d, s = squarefree_part(v)
            assert d * s * s == v
            assert s > 0
            for p, e in factorize(d).items():
                assert e == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(F(0))


# primes just above the trial-division bound B = 10^4, so that they reach
# the cofactor left after the small-prime strip
Q, R, S = 10007, 10009, 10037


class TestLargePrimeCofactors:
    """squarefree_part on values whose cofactor, after the primes <= B are
    stripped, is a prime, q r, q^2, q r s or q^2 r with primes above B."""

    def test_primes_above_bound(self):
        assert TRIAL_DIVISION_BOUND == 10_000 < min(Q, R, S)
        assert all(algebra.is_prime(p) for p in (Q, R, S, 99999989))

    @pytest.mark.parametrize(
        "v, expected",
        [
            (F(Q), (Q, 1)),
            (F(99999989), (99999989, 1)),
            (F(-12 * Q, 5), (-15 * Q, F(2, 5))),
            (F(Q * R), (Q * R, 1)),
            (F(-8 * Q * R), (-2 * Q * R, 2)),
            (F(Q * Q), (1, Q)),
            (F(3 * Q * Q, 4), (3, F(Q, 2))),
            (F(-7, Q * Q), (-7, F(1, Q))),
            (F(Q * R * S), (Q * R * S, 1)),
            (F(-2 * Q * Q * R), (-2 * R, Q)),
            (F(R, Q * Q * 9), (R, F(1, 3 * Q))),
        ],
        ids=[
            "prime",
            "prime-below-b-squared",
            "prime-times-small",
            "q-r",
            "q-r-times-small",
            "q-squared",
            "q-squared-over-small",
            "small-over-q-squared",
            "q-r-s",
            "q-squared-r",
            "r-over-q-squared",
        ],
    )
    def test_cases(self, v, expected):
        assert squarefree_part(v) == expected

    def test_random_products(self):
        # d is read off the exponents the product was built from
        rng = random.Random(13)
        small = twists._SMALL_PRIMES[:40] + twists._SMALL_PRIMES[-5:]
        large = [Q, R, S, 99991, 1000003, 99999989]
        for _ in range(500):
            parts, exponents = [1, 1], {}  # numerator, denominator
            cofactor = 1  # kept below the exact range of is_prime
            for pool, count in ((small, rng.randint(0, 4)), (large, rng.randint(0, 3))):
                for _ in range(count):
                    p, e = rng.choice(pool), rng.randint(1, 3)
                    if pool is large:
                        if cofactor * p**e >= MILLER_RABIN_BOUND:
                            continue
                        cofactor *= p**e
                    parts[rng.randint(0, 1)] *= p**e
                    exponents[p] = exponents.get(p, 0) + e
            sign = rng.choice((-1, 1))
            v = F(sign * parts[0], parts[1])
            d, s = squarefree_part(v)
            assert d == sign * math.prod(p for p, e in exponents.items() if e % 2), v
            assert d * s * s == v and s > 0


class TestIndependenceScreen:
    def setup_method(self):
        self.A = F(-27)
        self.E = CubicModel(F(0), F(27), F(-27))  # y^2 = x^3 + 27x - 27

    def test_negation_is_dependent(self):
        P = ECPoint(F(1), F(1))
        assert on_curve(self.E, P)
        assert independence_screen(self.E, P, ECPoint(F(1), F(-1))) == STATUS_DEPENDENT

    def test_equal_points_dependent(self):
        P = ECPoint(F(1), F(1))
        assert independence_screen(self.E, P, P) == STATUS_DEPENDENT

    def test_two_torsion_dependent(self):
        # y^2 = x^3 - x has (0,0) of order 2
        E = CubicModel(F(0), F(-1), F(0))
        P = ECPoint(F(0), F(0))
        Q = ECPoint(F(1), F(0))
        assert independence_screen(E, P, Q) == STATUS_DEPENDENT

    def test_small_relation_detected(self):
        # P and 5P always carry the relation 5 P1 - P2 = 0
        P = ECPoint(F(1), F(1))
        Q = ec_scalar(self.E, 5, P)
        assert independence_screen(self.E, P, Q) == STATUS_DEPENDENT

    def test_box_edge_twelve_is_dependent(self):
        P = ECPoint(F(1), F(1))
        assert independence_screen(self.E, P, ec_scalar(self.E, 12, P)) == STATUS_DEPENDENT

    def test_box_edge_thirteen_is_candidate(self):
        # the only relations of (P, 13P) are multiples of 13 P1 - P2, outside the box
        P = ECPoint(F(1), F(1))
        assert independence_screen(self.E, P, ec_scalar(self.E, 13, P)) == STATUS_INDEPENDENT

    def test_torsion_translate_is_dependent(self):
        # y^2 = x^3 - 2x: T = (0, 0) has order 2, P = (2, 2) infinite order
        # (2P has x = 9/4); (P, P + T) is dependent only through 2 P1 - 2 P2
        E = CubicModel(F(0), F(-2), F(0))
        T, P = ECPoint(F(0), F(0)), ECPoint(F(2), F(2))
        assert ec_scalar(E, 2, P).x == F(9, 4)
        assert independence_screen(E, P, ec_add(E, P, T)) == STATUS_DEPENDENT

    def test_torsion_second_point_is_dependent(self):
        # (P, T) on y^2 = x^3 - 2x is dependent only through 2 P2 = O, a = 0
        E = CubicModel(F(0), F(-2), F(0))
        assert independence_screen(E, ECPoint(F(2), F(2)), ECPoint(F(0), F(0))) == STATUS_DEPENDENT

    @pytest.mark.parametrize("p", [5, 7])
    def test_exact_confirmation_alone(self, p, monkeypatch):
        # one small prime leaves survivors in the box (p = 5 divides the
        # discriminant of every E_d at A = -27 and is skipped, so the whole
        # box goes to the exact step); the status must not change
        P = ECPoint(F(1), F(1))
        E2 = CubicModel(F(0), F(-1), F(0))
        expected = [
            (self.E, P, ECPoint(F(1), F(-1)), STATUS_DEPENDENT),
            (self.E, P, P, STATUS_DEPENDENT),
            (E2, ECPoint(F(0), F(0)), ECPoint(F(1), F(0)), STATUS_DEPENDENT),
            (self.E, P, ec_scalar(self.E, 5, P), STATUS_DEPENDENT),
            # 7 divides the denominator of 12P, so p = 7 is skipped for this pair
            (self.E, P, ec_scalar(self.E, 12, P), STATUS_DEPENDENT),
        ]
        maps = odd_covering_maps(self.A)
        for r in census(self.A, 6):
            if r.d is not None and r.status != STATUS_DEGENERATE:
                expected.append((maps.twisted_curve(F(r.d)), r.P1, r.P2, r.status))
        assert {status for *_, status in expected} == {STATUS_DEPENDENT, STATUS_INDEPENDENT}

        confirmed = []
        exact_relation = twists._exact_relation

        def spy(E_d, P1, P2, pairs):
            confirmed.append(pairs)
            return exact_relation(E_d, P1, P2, pairs)

        monkeypatch.setattr(twists, "_sieve_primes", lambda: iter([p]))
        monkeypatch.setattr(twists, "_exact_relation", spy)
        for E_d, P1, P2, status in expected:
            assert independence_screen(E_d, P1, P2) == status
        assert len(confirmed) == len(expected) and all(confirmed)

    def test_conservative_never_false_positive(self):
        # every census record gets the status of the brute-force rational
        # box check; A = 7/2 gives E_d rational coefficients, and at
        # d = 64046 = 2 * 31 * 1033 the sieve skips 1033, a bad prime
        for A in (F(-27), F(7, 2)):
            maps = odd_covering_maps(A)
            records = [r for r in census(A, 6) if r.d is not None and r.status != STATUS_DEGENERATE]
            assert STATUS_INDEPENDENT in {r.status for r in records}
            for r in records:
                E_d = maps.twisted_curve(F(r.d))
                assert r.status == _brute_force_status(E_d, r.P1, r.P2), (A, r.d)


def _brute_force_status(E_d, P1, P2, bound=12):
    """The screen's definition checked over Q: a P1 + b P2 = O for some
    (a, b) != (0, 0) with |a|, |b| <= bound, i.e. a P1 = +-b P2 with
    0 <= a, b <= bound."""

    def multiples(P):
        out = [ECPoint.zero()]
        for _ in range(bound):
            out.append(ec_add(E_d, out[-1], P))
        return out

    mults1, mults2 = multiples(P1), multiples(P2)
    for a in range(bound + 1):
        for b in range(bound + 1):
            if (a or b) and mults1[a] in (mults2[b], ec_neg(mults2[b])):
                return STATUS_DEPENDENT
    return STATUS_INDEPENDENT


class TestCensus:
    def test_oracle_match_height25(self):
        recs = census(F(-27), 25)
        factored = [r for r in recs if r.d is not None]
        assert not [r for r in recs if r.status == "unfactored"]
        assert len(factored) == ORACLE_DISTINCT_D
        ds = [r.d for r in factored]
        assert ds[: len(ORACLE_SMALLEST_D)] == ORACLE_SMALLEST_D

    def test_height25_runtime(self):
        # the screen decides at primes above 1000 first; checking the whole
        # box over Q took about 9 s here
        start = time.perf_counter()
        census(F(-27), 25)
        elapsed = time.perf_counter() - start
        assert elapsed < 6.0, f"took {elapsed:.1f}s"

    def test_height40_runtime(self):
        # the census target at height 40; about 3.6 s here with the images
        # computed over Q(sqrt d), about 2 s in rational arithmetic
        start = time.perf_counter()
        census(F(-27), 40)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

    def test_universal_records(self):
        recs = census(F(-27), 2)
        by_d = {r.d: r for r in recs}
        assert by_d[1].t == -1
        assert by_d[-3].t == 0
        assert by_d[-15].t == 1

    def test_points_on_curve_exact(self):
        A = F(-27)
        for r in census(A, 6):
            if r.d is None:
                continue
            E_d = CubicModel(F(0), -A * r.d * r.d, A * r.d**3)
            if r.P1 is not None:
                assert on_curve(E_d, r.P1)
            if r.P2 is not None:
                assert on_curve(E_d, r.P2)
            # d s^2 = h(t) exactly
            assert r.d * r.s * r.s == genus5_poly(A)(r.t)

    def test_deterministic_and_sorted(self):
        a = census(F(-27), 8)
        b = census(F(-27), 8)
        assert a == b
        ds = [r.d for r in a if r.d is not None]
        assert ds == sorted(ds, key=lambda d: (abs(d), d))
        assert len(set(ds)) == len(ds)

    def test_every_d_squarefree(self):
        for r in census(F(-27), 8):
            if r.d is None:
                continue
            for p, e in factorize(r.d).items():
                assert e == 1

    def test_dedup_keeps_smallest_height(self):
        recs = census(F(-27), 10)
        h = genus5_poly(F(-27))
        for r in recs:
            if r.d is None:
                continue
            # no t of smaller height yields the same d
            for m in range(1, r.height):
                for n in range(-m, m + 1):
                    if math.gcd(abs(n), m) != 1 or max(abs(n), m) >= r.height:
                        continue
                    t = F(n, m)
                    v = h(t)
                    if v:
                        d2, _ = squarefree_part(v)
                        assert d2 != r.d


def _reference_census(A, height_bound):
    """The census dedup without the pair skip: every t is factored.  Returns
    {d: (t, s)} and the unfactored t in (height, t) order."""
    h = genus5_poly(A)
    best, unfactored = {}, []
    for t in twists._enumerate_heights(height_bound):
        v = h(t)
        if not v:
            continue
        try:
            d, s = twists.squarefree_part(v)
        except UnfactoredError:
            unfactored.append(t)
            continue
        key = (max(abs(t.numerator), t.denominator), t)
        if d not in best or key < best[d][:2]:
            best[d] = (key[0], t, s)
    unfactored.sort(key=lambda t: (max(abs(t.numerator), t.denominator), t))
    return {d: (t, s) for d, (_, t, s) in best.items()}, unfactored


def _census_summary(records):
    best = {r.d: (r.t, r.s) for r in records if r.d is not None}
    return best, [r.t for r in records if r.status == STATUS_UNFACTORED]


def _kept(t):
    return not (t > 1 or -1 < t < 0)


class TestPairSkip:
    """h(t) is a palindrome, so the census factors each pair {t, 1/t} once."""

    @pytest.mark.parametrize("A, height", [(F(-27), 12), (F(-27), 25), (F(7, 2), 12)])
    def test_matches_loop_over_every_t(self, A, height):
        assert _census_summary(census(A, height)) == _reference_census(A, height)

    def test_kept_t_and_factoring_calls(self, monkeypatch):
        evaluated, factored = [], []

        def recording_poly(A):
            h = genus5_poly(A)

            class Recording(Poly):
                def __call__(self, t):
                    evaluated.append(t)
                    return h(t)

            return Recording(h.coeffs)

        def spy(v):
            factored.append(v)
            return squarefree_part(v)

        monkeypatch.setattr(twists, "genus5_poly", recording_poly)
        monkeypatch.setattr(twists, "squarefree_part", spy)
        census(F(-27), 25)
        every_t = list(twists._enumerate_heights(25))
        assert evaluated == [t for t in every_t if _kept(t)]
        assert len(factored) == ORACLE_DISTINCT_D == 401
        # exactly one member of each pair {t, 1/t}, t != 0, +-1, is kept
        for t in every_t:
            if t not in (0, 1, -1):
                assert _kept(t) != _kept(1 / t), t

    def test_unfactored_kept_t_reports_its_partner(self, monkeypatch):
        # h(t) and h(1/t) leave the same cofactor once the primes <= height
        # are stripped, so when the kept t is unfactored so is 1/t
        A, t0 = F(-27), F(2, 3)
        h = genus5_poly(A)
        failing = {h(t0), h(1 / t0)}
        factored = []

        def flaky(v):
            factored.append(v)
            if v in failing:
                raise UnfactoredError("forced")
            return squarefree_part(v)

        monkeypatch.setattr(twists, "squarefree_part", flaky)
        best, unfactored = _census_summary(census(A, 6))
        assert h(t0) in factored and h(1 / t0) not in factored
        assert unfactored == [t0, 1 / t0]
        assert (best, unfactored) == _reference_census(A, 6)

    def test_height_above_trial_division_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(twists, "_enumerate_heights", lambda bound: iter(()))  # no 10^8-t loop
        with pytest.raises(ValueError, match="height bound"):
            census(F(-27), TRIAL_DIVISION_BOUND + 1)

    def test_broken_palindrome_is_refused(self, monkeypatch):
        def perturbed(A):
            coeffs = list(genus5_poly(A).coeffs)
            coeffs[5] += 1
            return Poly(coeffs)

        monkeypatch.setattr(twists, "genus5_poly", perturbed)
        with pytest.raises(CurveError, match="palindrome"):
            census(F(-27), 3)


class TestGrowthTable:
    def test_empty(self):
        s = growth_table([], [10, 100])
        assert s.counts == (0, 0)

    def test_monotone(self):
        recs = census(F(-27), 12)
        grid = [10, 10**2, 10**3, 10**6, 10**9, 10**12, 10**15]
        s = growth_table(recs, grid)
        assert list(s.counts) == sorted(s.counts)

    def test_reference_column_format(self):
        s = growth_table([], [100])
        x = 100 ** (1 / 6) / math.log(100) ** 2
        assert s.reference[0] == "%.6f" % x

    def test_x_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            growth_table([], [1])


class TestTsv:
    def test_header_and_row_shape(self):
        recs = census(F(-27), 2)
        assert len(CENSUS_HEADER.split("\t")) == 12
        for r in recs:
            assert len(record_to_tsv(r).split("\t")) == 12

    def test_growth_tsv(self):
        s = growth_table([], [10, 100])
        lines = summary_to_tsv(s)
        assert lines[0].startswith("10\t0\t")
