"""Exhaustive point-counting kernels over F_{p^k}.

Counts are integer sums of quadratic-character values; the character is
evaluated through a precomputed square table rather than per-element
exponentiation (identical results, exhaustive enumeration makes the table
free).  Fields above a few thousand elements run through a vectorized numpy
path, chunked so memory stays flat; everything is deterministic, including
the field presentation (modulus seed 0).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Fp, find_irreducible, is_prime

MAX_FIELD_SIZE = 6_000_000
NUMPY_THRESHOLD = 4_096
_CHUNK = 1 << 17


class CountingBudgetError(ValueError):
    pass


class BadPrimeError(ValueError):
    pass


@lru_cache(maxsize=64)
def field_modulus(p, k, seed=0):
    """The monic degree-k irreducible over F_p used for all F_{p^k} work."""
    g = find_irreducible(p, k, seed)
    return tuple(c.value if isinstance(c, Fp) else int(c) % p for c in g.coeffs)


def _reduction_rows(p, k, modulus):
    """x^(k+i) mod modulus for i = 0..k-2, as length-k digit rows."""
    rows = []
    cur = [(-c) % p for c in modulus[:k]]
    rows.append(tuple(cur))
    for _ in range(k - 2):
        cur = [0] + cur
        top = cur.pop()
        cur = [(cur[j] + top * rows[0][j]) % p for j in range(k)]
        rows.append(tuple(cur))
    return rows


# ---------------------------------------------------------------------------
# pure-python path


class _PureField:
    def __init__(self, p, k, seed=0):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = field_modulus(p, k, seed)
        self.rows = _reduction_rows(p, k, self.modulus)

    def mul(self, a, b):
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = conv[:k]
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i] % p
            if c:
                row = self.rows[i - k]
                for j in range(k):
                    out[j] += c * row[j]
        return tuple(v % p for v in out)

    def elements(self):
        p, k = self.p, self.k
        for n in range(self.q):
            digits = []
            for _ in range(k):
                n, r = divmod(n, p)
                digits.append(r)
            yield tuple(digits)

    def pack(self, t):
        n = 0
        for d in reversed(t):
            n = n * self.p + d
        return n

    def squares(self):
        return {self.pack(self.mul(x, x)) for x in self.elements()}


def _pure_count_rhs(f_coeffs, p, k, seed=0):
    """sum over x in F_{p^k} of #{y : y^2 = f(x)} for f with F_p coefficients."""
    if k == 1:
        squares = {v * v % p for v in range(p)}
        count = 0
        for x in range(p):
            acc = 0
            for c in reversed(f_coeffs):
                acc = (acc * x + c) % p
            if acc == 0:
                count += 1
            elif acc in squares:
                count += 2
        return count
    fld = _PureField(p, k, seed)
    sq = fld.squares()
    count = 0
    rev = list(reversed(f_coeffs))
    for x in fld.elements():
        acc = (rev[0],) + (0,) * (k - 1)
        for c in rev[1:]:
            acc = fld.mul(acc, x)
            acc = (acc[0] + c,) + acc[1:]
        acc = tuple(v % p for v in acc)
        packed = fld.pack(acc)
        if packed == 0:
            count += 1
        elif packed in sq:
            count += 2
    return count


def _pure_count_space(cubic_coeffs, disc_coeffs, p, k, seed=0):
    """sum over x of (1 + chi(cubic(x))) (1 + chi(disc(x)))."""

    def chi_fn_k1():
        squares = {v * v % p for v in range(p)}

        def chi(a):
            if a == 0:
                return 0
            return 1 if a in squares else -1

        def ev(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            return acc

        return chi, ev, range(p)

    if k == 1:
        chi, ev, xs = chi_fn_k1()
    else:
        fld = _PureField(p, k, seed)
        sq = fld.squares()

        def chi(a):
            packed = fld.pack(a)
            if packed == 0:
                return 0
            return 1 if packed in sq else -1

        def ev(coeffs, x):
            acc = (coeffs[-1],) + (0,) * (k - 1)
            for c in reversed(coeffs[:-1]):
                acc = fld.mul(acc, x)
                acc = ((acc[0] + c) % p,) + acc[1:]
            return acc

        xs = fld.elements()
    total = 0
    for x in xs:
        c1 = chi(ev(cubic_coeffs, x))
        c2 = chi(ev(disc_coeffs, x))
        total += (1 + c1) * (1 + c2)
    return total


# ---------------------------------------------------------------------------
# numpy path (large fields)


def _np_context(p, k, seed=0):
    import numpy as np

    modulus = field_modulus(p, k, seed)
    rows = np.array(_reduction_rows(p, k, modulus), dtype=np.int64) if k > 1 else None
    weights = np.array([p**j for j in range(k)], dtype=np.int64)
    return np, rows, weights


def _np_mul(np, rows, p, k, X, Y):
    n = X.shape[0]
    conv = np.zeros((n, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        xi = X[:, i]
        for j in range(k):
            conv[:, i + j] += xi * Y[:, j]
    conv %= p
    out = conv[:, :k]
    for i in range(2 * k - 2, k - 1, -1):
        out += conv[:, i : i + 1] * rows[i - k][None, :]
    return out % p


def _np_unpack(np, p, k, idx):
    digits = np.empty((idx.shape[0], k), dtype=np.int64)
    cur = idx
    for j in range(k):
        digits[:, j] = cur % p
        cur = cur // p
    return digits


def _np_square_table(np, rows, weights, p, k, q):
    sq = np.zeros(q, dtype=bool)
    for lo in range(0, q, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
        d = _np_unpack(np, p, k, idx)
        s = _np_mul(np, rows, p, k, d, d)
        sq[s @ weights] = True
    return sq


def _np_eval(np, rows, p, k, digits, coeffs):
    acc = np.zeros_like(digits)
    acc[:, 0] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = _np_mul(np, rows, p, k, acc, digits)
        acc[:, 0] = (acc[:, 0] + c) % p
    return acc


def _np_count_rhs(f_coeffs, p, k, seed=0):
    np, rows, weights = _np_context(p, k, seed)
    q = p**k
    sq = _np_square_table(np, rows, weights, p, k, q)
    count = 0
    for lo in range(0, q, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
        d = _np_unpack(np, p, k, idx)
        packed = _np_eval(np, rows, p, k, d, f_coeffs) @ weights
        zeros = packed == 0
        plus = sq[packed] & ~zeros
        count += int(zeros.sum()) + 2 * int(plus.sum())
    return count


def _np_count_space(cubic_coeffs, disc_coeffs, p, k, seed=0):
    np, rows, weights = _np_context(p, k, seed)
    q = p**k
    sq = _np_square_table(np, rows, weights, p, k, q)
    total = 0
    for lo in range(0, q, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
        d = _np_unpack(np, p, k, idx)
        v1 = _np_eval(np, rows, p, k, d, cubic_coeffs) @ weights
        v2 = _np_eval(np, rows, p, k, d, disc_coeffs) @ weights
        c1 = np.where(v1 == 0, 0, np.where(sq[v1], 1, -1))
        c2 = np.where(v2 == 0, 0, np.where(sq[v2], 1, -1))
        total += int(((1 + c1) * (1 + c2)).sum())
    return total


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
    if k > 1 and q > NUMPY_THRESHOLD:
        return _np_count_rhs(coeffs, p, k, seed)
    return _pure_count_rhs(coeffs, p, k, seed)


def affine_count_space(cubic_coeffs, disc_coeffs, p, k=1, max_field_size=MAX_FIELD_SIZE, seed=0):
    """sum over x in F_{p^k} of (1 + chi(cubic(x))) (1 + chi(disc(x))): the
    affine count of the double cover of the cubic cut out by the z-fiber
    discriminant."""
    q = _check_budget(p, k, max_field_size)
    cc = [int(c) % p for c in cubic_coeffs]
    dc = [int(c) % p for c in disc_coeffs]
    if k > 1 and q > NUMPY_THRESHOLD:
        return _np_count_space(cc, dc, p, k, seed)
    return _pure_count_space(cc, dc, p, k, seed)


def chi_in_extension(a, p, k):
    """Quadratic character of a in F_p viewed inside F_{p^k}."""
    a = int(a) % p
    if a == 0:
        return 0
    r = pow(a, (p**k - 1) // 2, p)
    return 1 if r == 1 else -1
