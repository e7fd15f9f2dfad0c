"""Exhaustive point counts over F_{p^k} through exp/log tables.

F_{p^k} is F_p[x]/(g) for a primitive modulus g (`find_irreducible`): the
class of x generates F_q^*, and it is the only F_{p^k} arithmetic here.  It
gives two int32 tables over packed elements: exp[i] = x^i for
0 <= i < q - 1, and its inverse log.  An element y packs as the base-p
digits (L(y), L(x y), ..., L(x^(k-1) y)), top digit first, where L(y) is the
constant coefficient of y mod g.  These k values of the linear map L
determine y (an element y != 0 with L(x^j y) = 0 for all j < k would make L
vanish on the whole field), and L(x^j) = 0 for 0 < j < k, so c in F_p packs
as c p^(k-1).

In these window coordinates x^i is the window s_i .. s_(i+k-1) of the one
sequence s_i = L(x^i), which recurs with characteristic polynomial g:
s_(i+k) = -sum_j g_j s_(i+j) (Lidl and Niederreiter, Finite Fields, ch. 8).
Writing x^d = sum_j c_j x^j mod g gives the jump s_(i+d) = sum_j c_j s_(i+j),
so each chunk of windows follows from the one before it with k multiply-adds
and one reduction mod p per term.

Horner's rule runs over many field elements t = x^i at once: multiplying acc
by t is exp[(log[acc] + i) mod (q - 1)], with 0 kept as 0.  Adding a
coefficient c of F_p adds c p^(k-1) mod q without a branch: the value
acc + c p^(k-1) - q lies in (-q, q), and q is added back where it is
negative.  The quadratic character of a nonzero value is the parity of its
log; t = 0 is counted on its own.

f has coefficients in F_p, so chi(f(t)) = chi(f(t^p)): the character is
constant on each Frobenius orbit {x^i, x^(ip), x^(ip^2), ...}.  Horner runs
once per orbit, at its least exponent, and the count weighs that value by
the orbit's length, so Horner's work over F_{p^k} drops to about 1/k.

The tables take 8 bytes per field element: 3 MB at 13^5, 48 MB at the default
budget of 6e6 elements.  Each count builds its field's tables and drops them
when it returns, and both the table build and Horner run in chunks, so memory
stays flat.  Everything is deterministic, including the field presentation
(modulus seed 0), and the seed cannot change a count.  numpy is imported
inside the kernel, so commands that never count points never load it.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .algebra import factorize, is_prime

MAX_FIELD_SIZE = 6_000_000
_CHUNK = 1 << 14
_INDEX_LIMIT = 1 << 30  # log + i < 2^31, and acc + c p^(k-1) - q lies in (-q, q)


class CountingBudgetError(ValueError):
    pass


class BadPrimeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the field modulus


def _mulmod(a, b, g, p):
    """a * b mod (g, p) for ascending int lists, g monic of degree k."""
    k = len(g) - 1
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    for i in range(len(c) - 1, k - 1, -1):
        top = c[i] % p
        if top:
            for j in range(k):
                c[i - k + j] -= top * g[j]
    return [v % p for v in c[:k]]


def _powmod(a, e, g, p):
    acc = [1] + [0] * (len(g) - 2)
    while e:
        if e & 1:
            acc = _mulmod(acc, a, g, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, g, p)
    return acc


@lru_cache(maxsize=128)
def _prime_divisors(n):
    """The primes dividing n > 0, cached: each field factors p - 1 and
    p^k - 1 once, not once per drawn modulus."""
    return tuple(factorize(n))


def _x_is_primitive(g, p):
    """True when x has order exactly q - 1 = p^k - 1 in R = F_p[x]/(g):
    x^(q-1) = 1 and x^((q-1)/r) != 1 for every prime r | q - 1.

    This one test also proves g irreducible.  The powers of x are then q - 1
    distinct units of R, and R has q elements, so every nonzero element of R
    is a unit and R is a field."""
    k = len(g) - 1
    n = p**k - 1
    one = [1] + [0] * (k - 1)
    return _powmod([0, 1], n, g, p) == one and all(
        _powmod([0, 1], n // r, g, p) != one for r in _prime_divisors(n)
    )


def _norm_generates(g, p):
    """True when (-1)^k g(0) generates F_p^*.  For irreducible g that is the
    norm of x, x^(1 + p + ... + p^(k-1)), and the norm F_{p^k}^* -> F_p^* is
    onto, so every g whose x generates F_{p^k}^* passes: the screen costs one
    pow per prime factor of p - 1 and rejects no g that `_x_is_primitive`
    accepts.  For k = 1, x = -g(0) and the screen is the whole order test."""
    norm = (-1) ** (len(g) - 1) * g[0] % p
    return norm != 0 and all(pow(norm, (p - 1) // r, p) != 1 for r in _prime_divisors(p - 1))


def find_irreducible(p, k, seed=0):
    """A primitive monic degree-k polynomial g over F_p, as its ascending
    coefficients: random monic g are drawn from the seeded RNG until
    `_x_is_primitive` accepts one, with `_norm_generates` screening the
    draws first.  So g is irreducible, and x generates F_{p^k}^*."""
    if p <= 3 or not is_prime(p) or k < 1:
        raise ValueError(f"need a prime p > 3 and k >= 1, got p={p}, k={k}")
    rng = random.Random(seed)
    while True:
        g = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        if _norm_generates(g, p) and (k == 1 or _x_is_primitive(g, p)):
            return g


@lru_cache(maxsize=64)
def field_modulus(p, k, seed=0):
    """The primitive modulus used for all F_{p^k} work."""
    return find_irreducible(p, k, seed)


# ---------------------------------------------------------------------------
# field tables


def _jump(s, c, p):
    """sum_j c_j s[j : j + len(s) - k + 1] mod p, k = len(c).  For c = x^d
    mod g and s = s_i .. s_(i+w+k-2), that is s_(i+d) .. s_(i+d+w-1), since
    s_(n+d) = L(x^d x^n) = sum_j c_j s_(n+j)."""
    w = len(s) - len(c) + 1
    out = c[0] * s[:w]
    for j in range(1, len(c)):
        out += c[j] * s[j : j + w]
    return out % p


def _next_windows(np, s, c, p):
    """The w windows after those in s = s_i .. s_(i+w+k-2), for c = x^w mod g
    and w >= 2k - 2: the terms s_(i+w) .. s_(i+2w+k-2).  The first w come
    from s, the last k - 1 from the first 2k - 2 of those."""
    head = _jump(s, c, p)
    return np.concatenate([head, _jump(head[: 2 * len(c) - 2], c, p)])


def _tables(p, k, seed):
    """(exp, log) for F_{p^k}, in window coordinates."""
    import numpy as np

    q = p**k
    if q > _INDEX_LIMIT:
        raise CountingBudgetError(f"field size {p}^{k} = {q} exceeds the int32 tables")
    g = field_modulus(p, k, seed)
    n = q - 1
    m = min(n, _CHUNK)
    # the first w windows, w a power of two >= 2k - 2, from the recurrence
    # s_(i+k) = -sum_j g_j s_(i+j); then doubled up to the m windows of the
    # first chunk.  The least power of two >= m is at most _CHUNK, so when a
    # second chunk is needed, w = m and c = x^m is the step between chunks.
    w = 1 << max(0, 2 * k - 3).bit_length()
    s = [1] + [0] * (k - 1)
    while len(s) < w + k - 1:
        s.append(-sum(gj * sj for gj, sj in zip(g, s[-k:])) % p)
    s = np.array(s, dtype=np.int64)
    c = _powmod([0, 1], w, g, p)
    while w < m:
        s = np.concatenate([s[:w], _next_windows(np, s, c, p)])
        w, c = 2 * w, _mulmod(c, c, g, p)
    s = s[: m + k - 1]
    exp = np.empty(n, dtype=np.int32)
    log = np.zeros(q, dtype=np.int32)  # log[0] = 0 is a placeholder
    for lo in range(0, n, m):
        hi = min(lo + m, n)
        packed = s[: hi - lo]
        for j in range(1, k):
            packed = packed * p + s[j : j + hi - lo]
        exp[lo:hi] = packed
        log[packed] = np.arange(lo, hi, dtype=np.int32)
        if hi < n:
            s = _next_windows(np, s, c, p)
    return exp, log


# ---------------------------------------------------------------------------
# kernel


def _frobenius_orbits(np, i, p, k):
    """The exponents in the int32 array i that are least in their orbit under
    Frobenius, i -> i p mod (q - 1), and each one's orbit length.

    i p mod (p^k - 1) rotates the k base-p digits of i, and the rotation
    a p^(k-1) + b -> b p + a stays below q - 1, so int32 suffices.  An
    exponent is dropped at its first smaller rotation; a kept one has orbit
    length k / #{j < k : i p^j = i}."""
    top = p ** (k - 1)
    kept, rot = i, i
    fixed = np.ones(i.shape, dtype=np.int32)  # j = 0
    for _ in range(1, k):
        a, b = np.divmod(rot, top)
        rot = b * p + a
        least = kept <= rot
        kept, rot, fixed = kept[least], rot[least], fixed[least]
        fixed += rot == kept
    return kept, k // fixed


def _horner(np, exp, log, coeffs, i, top):
    """Packed f(x^i) for an int32 array of exponents i; coeffs ascending in
    F_p, so each one is added to the top digit.  acc + c * top - q lies in
    (-q, q); its sign bit, masked with q, adds q back where it is negative."""
    q = log.shape[0]
    acc = np.full(i.shape, coeffs[-1] * top, dtype=np.int32)
    e = np.empty_like(acc)
    s = np.empty_like(acc)
    zero = np.empty(i.shape, dtype=bool)
    for c in reversed(coeffs[:-1]):
        np.equal(acc, 0, out=zero)
        np.take(log, acc, out=e)
        e += i
        np.take(exp, e, out=acc, mode="wrap")  # the index is taken mod q - 1
        np.copyto(acc, 0, where=zero)
        if c:
            acc += c * top - q
            np.right_shift(acc, 31, out=s)
            s &= q
            acc += s
    return acc


def _chi(np, log, values):
    """Quadratic character of packed values: 0 at 0, else (-1)^log."""
    return (values != 0) * (1 - 2 * (log[values] & 1))


def _characters(polys, p, k, seed):
    """(w, [chi(f(t)) for f in polys]), yielded chunk by chunk: first t = 0
    with w = 1, then one t = x^i per Frobenius orbit with w its length, so
    sum(w chi) over the chunks is the sum over all of F_{p^k}."""
    import numpy as np

    exp, log = _tables(p, k, seed)
    top = p ** (k - 1)
    yield 1, [_chi(np, log, np.array([f[0] * top])) for f in polys]
    for lo in range(0, exp.shape[0], _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, exp.shape[0]), dtype=np.int32)
        i, w = _frobenius_orbits(np, i, p, k)
        yield w, [_chi(np, log, _horner(np, exp, log, f, i, top)) for f in polys]


# ---------------------------------------------------------------------------
# public interface


def _check_budget(p, k, max_field_size):
    if not is_prime(p) or p <= 3:
        raise BadPrimeError(f"p = {p} is not a prime > 3")
    q = p**k
    if q > max_field_size:
        raise CountingBudgetError(
            f"field size {p}^{k} = {q} exceeds the enumeration budget {max_field_size}; "
            "raise max_field_size explicitly to go further"
        )
    return q


def affine_count_rhs(f_coeffs, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """Number of affine points on y^2 = f(x) over F_{p^k}; f has integer
    coefficients interpreted mod p.  The seed picks the field presentation
    and cannot change the count."""
    q = _check_budget(p, k, max_field_size)
    coeffs = [int(c) % p for c in f_coeffs]
    return q + sum(int((w * chi).sum()) for w, (chi,) in _characters([coeffs], p, k, seed))


def affine_count_space(cubic_coeffs, disc_coeffs, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """sum over x in F_{p^k} of (1 + chi(cubic(x))) (1 + chi(disc(x))): the
    affine count of the double cover of the cubic cut out by the z-fiber
    discriminant."""
    _check_budget(p, k, max_field_size)
    cc = [int(c) % p for c in cubic_coeffs]
    dc = [int(c) % p for c in disc_coeffs]
    return sum(
        int((w * (1 + c1) * (1 + c2)).sum()) for w, (c1, c2) in _characters([cc, dc], p, k, seed)
    )
