"""Exhaustive point counts over F_{p^k} through exp/log tables.

One kernel serves every field, k = 1 included.  A primitive element g of
F_{p^k}^* gives two int32 tables over packed elements (base-p digits, the
constant term as the top digit): exp[i] = g^i for 0 <= i < q - 1, and its
inverse log.  Horner's rule runs over every x = g^i at once: multiplying acc
by x is exp[(log[acc] + i) mod (q - 1)], with 0 kept as 0, and adding a
coefficient c of F_p adds c p^(k-1) mod q.  The quadratic character of a
nonzero value is the parity of its log; x = 0 is counted on its own.

The tables take 8 bytes per field element: 3 MB at 13^5, 48 MB at the default
budget of 6e6 elements.  Each count builds its field's tables and drops them
when it returns, and Horner runs in chunks, so memory stays flat.  Everything
is deterministic, including the field presentation (modulus seed 0), and the
seed cannot change a count.  numpy is imported inside the kernel, so commands that never count
points never load it.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import ExtField, Fp, find_irreducible, is_prime
from .twists import factorize

MAX_FIELD_SIZE = 6_000_000
_CHUNK = 1 << 14
_INDEX_LIMIT = 1 << 30  # log + i must stay below 2^31


class CountingBudgetError(ValueError):
    pass


class BadPrimeError(ValueError):
    pass


@lru_cache(maxsize=64)
def field_modulus(p, k, seed=0):
    """The monic degree-k irreducible over F_p used for all F_{p^k} work."""
    g = find_irreducible(p, k, seed)
    return tuple(c.value if isinstance(c, Fp) else int(c) % p for c in g.coeffs)


# ---------------------------------------------------------------------------
# field tables


def _primitive_element(field):
    """The first generator of F_q^* in packed order.  For k > 1 the search
    starts at x: no element of F_p generates a proper extension's group."""
    cofactors = [(field.q - 1) // r for r in factorize(field.q - 1)]
    one = field.one()
    for packed in range(2 if field.k == 1 else field.p, field.q):
        g = field(field.unpack(packed))
        if all(g**e != one for e in cofactors):
            return g
    raise AssertionError(f"{field!r} has no primitive element")


def _tables(p, k, seed):
    """(exp, log) for F_{p^k}."""
    import numpy as np

    q = p**k
    if q > _INDEX_LIMIT:
        raise CountingBudgetError(f"field size {p}^{k} = {q} exceeds the int32 tables")
    field = ExtField(p, k, modulus=field_modulus(p, k, seed))
    n = q - 1
    g = _primitive_element(field)
    # digits(a * g) = digits(a) @ step: row j holds the digits of g * x^j
    step = np.array([field.mul_tuples(g.coeffs, field.unpack(p**j)) for j in range(k)])
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    m = min(n, _CHUNK)
    # first block g^0 .. g^(m-1) by doubling; `power` ends as step^m whenever
    # a second block is needed (then m = _CHUNK, a power of two)
    block = np.zeros((1, k), dtype=np.int64)
    block[0, 0] = 1
    power = step
    while len(block) < m:
        block = np.vstack([block, block @ power % p])[:m]
        power = power @ power % p
    exp = np.empty(n, dtype=np.int32)
    log = np.zeros(q, dtype=np.int32)  # log[0] = 0 is a placeholder
    for lo in range(0, n, m):
        hi = min(lo + m, n)
        packed = block[: hi - lo] @ weights
        exp[lo:hi] = packed
        log[packed] = np.arange(lo, hi, dtype=np.int32)
        block = block @ power % p
    return exp, log


# ---------------------------------------------------------------------------
# kernel


def _horner(np, exp, log, coeffs, i, top):
    """Packed f(g^i) for an int32 array of exponents i; coeffs ascending in
    F_p, so each one is added to the top digit: c * top, then wrap mod q."""
    q = log.shape[0]
    acc = np.full(i.shape, coeffs[-1] * top, dtype=np.int32)
    e = np.empty_like(acc)
    zero = np.empty(i.shape, dtype=bool)
    for c in reversed(coeffs[:-1]):
        np.equal(acc, 0, out=zero)
        np.take(log, acc, out=e)
        e += i
        np.take(exp, e, out=acc, mode="wrap")  # the index is taken mod q - 1
        np.copyto(acc, 0, where=zero)
        if c:
            acc += c * top
            np.subtract(acc, q, out=acc, where=acc >= q)
    return acc


def _chi(np, log, values):
    """Quadratic character of packed values: 0 at 0, else (-1)^log."""
    return (values != 0) * (1 - 2 * (log[values] & 1))


def _characters(polys, p, k, seed):
    """chi(f(x)) for each f in polys over every x in F_{p^k}, yielded chunk by
    chunk: first x = 0, then x = g^i."""
    import numpy as np

    exp, log = _tables(p, k, seed)
    top = p ** (k - 1)
    yield [_chi(np, log, np.array([f[0] * top])) for f in polys]
    for lo in range(0, exp.shape[0], _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, exp.shape[0]), dtype=np.int32)
        yield [_chi(np, log, _horner(np, exp, log, f, i, top)) for f in polys]


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
    return q + sum(int(chi.sum()) for (chi,) in _characters([coeffs], p, k, seed))


def affine_count_space(cubic_coeffs, disc_coeffs, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """sum over x in F_{p^k} of (1 + chi(cubic(x))) (1 + chi(disc(x))): the
    affine count of the double cover of the cubic cut out by the z-fiber
    discriminant."""
    _check_budget(p, k, max_field_size)
    cc = [int(c) % p for c in cubic_coeffs]
    dc = [int(c) % p for c in disc_coeffs]
    return sum(
        int(((1 + c1) * (1 + c2)).sum()) for c1, c2 in _characters([cc, dc], p, k, seed)
    )
