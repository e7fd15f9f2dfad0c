import itertools
import random
from fractions import Fraction as F

import pytest

from twocovers.algebra import (
    MILLER_RABIN_BOUND,
    Fp,
    Poly,
    is_prime,
    poly_divmod,
    poly_gcd,
    quadratic_character,
)
from twocovers import counting
from twocovers.counting import (
    _frobenius_orbits,
    _norm_generates,
    _powmod,
    _tables,
    _x_is_primitive,
    find_irreducible,
)

# fields of more than one chunk of counting._CHUNK = 2^14 table entries
MULTI_CHUNK_FIELDS = ((7, 6), (13, 4), (131, 2))


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


class TestPoly:
    def test_basic_arithmetic(self):
        f = P(1, 2, 1)  # 1 + 2x + x^2
        g = P(-1, 1)  # x - 1
        assert (f * g) == P(-1, -1, 1, 1)
        assert f + g == P(0, 3, 1)
        assert f - f == Poly([])
        assert not (f - f)
        assert f.degree == 2 and Poly([]).degree == -1

    def test_call_and_derivative(self):
        f = P(1, 0, -3, 1)
        assert f(F(2)) == 1 - 12 + 8
        assert f.derivative() == P(0, -6, 3)
        assert Poly([])(F(5)) == 0

    def test_pow_and_shift(self):
        x = Poly.gen()
        assert (x + 1) ** 4 == P(1, 4, 6, 4, 1)

    def test_scalar_ops(self):
        f = P(1, 2)
        assert 2 * f == P(2, 4)
        assert f - 1 == P(0, 2)
        assert (3 + f) == P(4, 2)

    def test_divmod(self):
        f = P(-1, 0, 1)
        q, r = poly_divmod(f, P(-1, 1))
        assert q == P(1, 1) and not r
        q, r = poly_divmod(P(1, 1, 1), P(0, 1, 2))
        assert (P(0, 1, 2) * q + r) == P(1, 1, 1)

    def test_nested_ring(self):
        # (A + t)^2 in Q[A][t]
        a = Poly.gen()  # A in Q[A]
        t = Poly([Poly([]), Poly([F(1)])])  # t over Q[A]
        f = (t + Poly.const(a)) ** 2
        assert f.coeffs[0] == a * a
        assert f.coeffs[1] == 2 * a
        assert f.coeffs[2] == 1


class TestPolyGcd:
    def test_shared_root(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(0, -1, 0, 1), P(-1, 0, 3)) == P(1)

    def test_power_factor(self):
        f = P(0, 0, 1)
        g = P(0, 0, 0, 1)
        assert poly_gcd(f, g) == f

    def test_divides_both(self):
        rng = random.Random(1)
        for _ in range(20):
            f = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))])
            g = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))])
            d = poly_gcd(f, g)
            if not d:
                continue
            assert not poly_divmod(f, d)[1]
            assert not poly_divmod(g, d)[1]
            assert d.is_monic()

    def test_mixed_rings_error(self):
        f = P(1, 1)
        g = Poly([Fp(1, 7), Fp(1, 7)])
        with pytest.raises(TypeError):
            poly_gcd(f, g)


class TestReduceModIdeal:
    """Reduction modulo the monic conic z^2 + xz + x^2 - A in Q[A][B][x][z]
    is the remainder of poly_divmod, which never divides a coefficient."""

    @staticmethod
    def _ring():
        # Q[A,B][x][z]: generators at the right nesting levels
        one = F(1)
        a1 = Poly([F(0), one])  # A in Q[A]
        one1 = Poly([one])
        a2 = Poly([a1])  # A in Q[A][B]
        b2 = Poly([Poly([]), one1])  # B in Q[A][B]
        one2 = Poly([one1])
        x3 = Poly([Poly([]), one2])  # x over Q[A][B]
        a3 = Poly([a2])
        b3 = Poly([b2])
        one3 = Poly([one2])
        z4 = Poly([Poly([]), one3])  # z over Q[A][B][x]
        x4 = Poly([x3])
        a4 = Poly([a3])
        b4 = Poly([b3])
        return a4, b4, x4, z4

    def test_single_step(self):
        A, B, x, z = self._ring()
        g = z * z + x * z + x * x - A
        q, r = poly_divmod(z * z, g)
        assert q == 1
        assert r == A - x * z - x * x

    def test_difference_divisible_property(self):
        # q g + r = f with deg_z r < 2, for random f
        A, B, x, z = self._ring()
        g = z * z + x * z + (x * x - A)
        rng = random.Random(6)
        for _ in range(10):
            f = Poly([])
            for dz in range(rng.randint(1, 4) + 1):
                cx = rng.randint(-3, 3) * x ** rng.randint(0, 2)
                ca = rng.randint(-2, 2) * A + rng.randint(-2, 2) * B
                f = f + (cx + ca) * z**dz
            q, r = poly_divmod(f, g)
            assert r.degree < 2
            assert q * g + r == f


class TestPrimeField:
    def test_arithmetic(self):
        a, b = Fp(3, 7), Fp(5, 7)
        assert a + b == 1
        assert a * b == 1
        assert a / b == Fp(3 * 3, 7)  # 5^-1 = 3
        assert -a == 4
        assert a ** 6 == 1


class TestQuadraticCharacter:
    def test_examples_mod_7(self):
        assert quadratic_character(2, 7) == 1  # 3^2 = 2
        # squares mod 7 are {1, 2, 4}
        assert {a for a in range(1, 7) if quadratic_character(a, 7) == 1} == {1, 2, 4}
        assert quadratic_character(-4, 7) == -1
        assert quadratic_character(14, 7) == 0

    def test_multiplicative_all_small_fields(self):
        for p in (5, 7, 11, 13):
            chi = [quadratic_character(a, p) for a in range(p)]
            for a in range(1, p):
                for b in range(1, p):
                    assert chi[a * b % p] == chi[a] * chi[b]
            assert sum(chi) == 0

    def test_int_interface(self):
        assert quadratic_character(2, 7) == 1
        assert quadratic_character(3, 7) == -1
        assert quadratic_character(0, 7) == 0


def _x_power(e, g, p):
    """x^e mod (g, p) as an ascending int list."""
    return _powmod([0, 1], e, g, p)


def _assert_tables_biject(p, k, seed):
    exp, log = _tables(p, k, seed)
    assert sorted(exp.tolist()) == list(range(1, p**k)), (p, k, seed)
    assert log[exp].tolist() == list(range(p**k - 1)), (p, k, seed)


def _ints(poly):
    return tuple(c.value for c in poly.coeffs)


class TestFindIrreducible:
    """counting.find_irreducible: a primitive modulus, certified by the order
    of x alone."""

    def test_degree_one(self):
        g = find_irreducible(7, 1, seed=3)
        assert len(g) == 2 and g[-1] == 1
        assert -g[0] % 7 in (3, 5)  # the primitive roots mod 7

    def test_f25_modulus_irreducible(self):
        g = find_irreducible(5, 2, seed=0)
        assert len(g) == 3 and g[-1] == 1
        # no root in F_5
        for v in range(5):
            assert sum(c * v**i for i, c in enumerate(g)) % 5

    def test_f49_no_roots(self):
        for seed in range(4):
            g = find_irreducible(7, 2, seed=seed)
            for v in range(7):
                assert sum(c * v**i for i, c in enumerate(g)) % 7

    def test_deterministic(self):
        a = find_irreducible(13, 5, seed=0)
        b = find_irreducible(13, 5, seed=0)
        assert a == b

    def test_degree_six_rejects_split_products(self):
        # (x - 1)(x^2 + 1)(x^3 - 2) over F_7, irreducible factors of degrees
        # 1, 2, 3, passes x^(p^6) = x, the first half of Rabin's test; only
        # its gcd step, or the order of x, rejects it
        quadratic = Poly([Fp(1, 7), Fp(0, 7), Fp(1, 7)])
        cubic = Poly([Fp(-2, 7), Fp(0, 7), Fp(0, 7), Fp(1, 7)])
        for factor in (quadratic, cubic):
            assert all(factor(Fp(v, 7)) for v in range(7))
        g = _ints(Poly([Fp(-1, 7), Fp(1, 7)]) * quadratic * cubic)
        assert len(g) == 7
        assert _x_power(7**6, g, 7) == [0, 1, 0, 0, 0, 0]
        assert not _x_is_primitive(g, 7)
        # the modulus actually drawn is irreducible: x^(p^6) = x, and no
        # proper subfield F_{p^3}, F_{p^2} contains x
        g = find_irreducible(7, 6, seed=0)
        assert _x_power(7**6, g, 7) == [0, 1, 0, 0, 0, 0]
        assert _x_power(7**3, g, 7) != [0, 1, 0, 0, 0, 0]
        assert _x_power(7**2, g, 7) != [0, 1, 0, 0, 0, 0]

    def test_irreducible_but_not_primitive_rejected(self):
        # x^2 + 1 is irreducible over F_7 (-1 is a non-square), but x has
        # order 4, not 48
        assert quadratic_character(-1, 7) == -1
        g = (1, 0, 1)
        assert _x_power(4, g, 7) == [1, 0]
        assert not _x_is_primitive(g, 7)

    def test_split_quadratic_rejected(self):
        # (x - 1)(x - 2) = x^2 - 3x + 2: x^48 = 1 there, as 1 and 2 have
        # orders dividing 48; the cofactor 48/2 catches it
        g = (2, 4, 1)
        assert _x_power(48, g, 7) == [1, 0]
        assert not _x_is_primitive(g, 7)

    def test_exp_table_hits_every_nonzero_element_once(self):
        # x generates F_q^* under every drawn modulus; the last three fields
        # span several chunks, so each chunk's jump from the one before is
        # checked too
        fields = ((5, 1), (7, 1), (5, 2), (7, 2), (5, 3), (7, 3), (11, 2), (5, 4))
        for (p, k), seed in itertools.product(fields + MULTI_CHUNK_FIELDS, range(3)):
            _assert_tables_biject(p, k, seed)

    @pytest.mark.parametrize("p, k", MULTI_CHUNK_FIELDS)
    def test_jump_by_the_wrong_power_is_caught(self, monkeypatch, p, k):
        # a chunk reached from the one before by x^(m + 1) instead of x^m
        # skips an element and repeats another
        g = find_irreducible(p, k, 0)
        real = counting._next_windows

        def off_by_one(np, s, c, p):
            if len(s) - len(c) + 1 == counting._CHUNK:  # a step between chunks
                c = counting._mulmod(c, [0, 1], g, p)
            return real(np, s, c, p)

        monkeypatch.setattr(counting, "_next_windows", off_by_one)
        with pytest.raises(AssertionError):
            _assert_tables_biject(p, k, 0)

    def test_exp_entries_are_windows_of_one_sequence(self):
        # the digits of exp[i], top first, are the constant coefficients of
        # x^i, ..., x^(i+k-1) mod g; an element c of F_p packs as c p^(k-1),
        # so its log is a multiple of (q - 1)/(p - 1)
        rng = random.Random(5)
        for p, k in ((5, 3), (7, 4), (13, 5)) + MULTI_CHUNK_FIELDS:
            g = find_irreducible(p, k, 0)
            q = p**k
            exp, log = _tables(p, k, 0)
            for i in [0, 1, q - 2] + [rng.randrange(q - 1) for _ in range(20)]:
                digits = [int(exp[i]) // p ** (k - 1 - j) % p for j in range(k)]
                assert digits == [_x_power(i + j, g, p)[0] for j in range(k)], (p, k, i)
            for c in range(1, p):
                assert log[c * p ** (k - 1)] % ((q - 1) // (p - 1)) == 0, (p, k, c)

    def test_frozen_moduli(self):
        # the presentations drawn before the norm screen existed: the screen
        # rejects only draws the order test rejects, so none may move
        frozen = {
            (7, 2, 0): (3, 6, 1),
            (7, 2, 1): (3, 6, 1),
            (7, 2, 2): (5, 3, 1),
            (7, 2, 3): (3, 5, 1),
            (13, 5, 0): (7, 5, 9, 3, 8, 1),
            (397, 2, 0): (215, 20, 1),
            (7, 6, 0): (3, 2, 4, 1, 4, 1, 1),
        }
        for (p, k, seed), g in frozen.items():
            assert find_irreducible(p, k, seed) == g, (p, k, seed)

    @pytest.mark.parametrize("p, k", ((5, 2), (7, 2), (5, 3), (11, 2), (7, 1), (13, 1)))
    def test_norm_screen_keeps_every_primitive_modulus(self, p, k):
        # over every monic g of degree k: the order test implies the screen,
        # which for k = 1 is the order test itself
        kept = rejected = 0
        for low in itertools.product(range(p), repeat=k):
            g = low + (1,)
            if _x_is_primitive(g, p):
                assert _norm_generates(g, p), g
                kept += 1
            else:
                rejected += not _norm_generates(g, p)
                assert k > 1 or not _norm_generates(g, p), g
        assert kept and rejected


class TestFrobeniusOrbits:
    """counting._frobenius_orbits: one exponent per orbit of i -> i p mod
    (q - 1), weighted by the orbit's length."""

    @pytest.mark.parametrize("p, k", ((5, 1), (5, 2), (5, 4), (5, 6), (7, 3), (7, 4)))
    def test_orbits_partition_the_exponents(self, p, k):
        import numpy as np

        n = p**k - 1
        # in chunks, as the kernel calls it; one orbit may span several
        kept, weights = [], []
        for lo in range(0, n, 1000):
            i = np.arange(lo, min(lo + 1000, n), dtype=np.int32)
            chunk_kept, chunk_weights = _frobenius_orbits(np, i, p, k)
            kept += chunk_kept.tolist()
            weights += chunk_weights.tolist()
        assert sum(weights) == n
        covered = set()
        for i, w in zip(kept, weights):
            orbit = {i * p**j % n for j in range(k)}
            assert i == min(orbit) and w == len(orbit), (i, w)
            assert not covered & orbit
            covered |= orbit
        assert covered == set(range(n))


class TestIsPrime:
    def test_small(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        # psi_12 = 399165290221 * 798330580441 passes the bases 2..37; base 41
        # exposes it (Sorenson and Webster, Math. Comp. 86 (2017))
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)
        assert is_prime(MILLER_RABIN_BOUND - 168)  # the largest prime below psi_13

    @pytest.mark.parametrize("n", [MILLER_RABIN_BOUND, 2**89 - 1])
    def test_beyond_deterministic_range_raises(self, n):
        # psi_13 and the Mersenne prime 2^89 - 1 pass all 13 bases; at this
        # size that does not prove them prime
        assert MILLER_RABIN_BOUND == 3317044064679887385961981
        with pytest.raises(ValueError, match="deterministic primality range"):
            is_prime(n)

    @pytest.mark.parametrize(
        "n", [MILLER_RABIN_BOUND + 2, 318665857834031151167461 * 10007, (2**89 - 1) * (2**61 - 1)]
    )
    def test_witness_proves_composite_beyond_range(self, n):
        assert n > MILLER_RABIN_BOUND
        assert not is_prime(n)

