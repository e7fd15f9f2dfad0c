"""Exact scalar and polynomial arithmetic, and integer primality and factoring.

Scalars are python Fractions (arbitrary precision) or prime-field
elements.  Polynomials are dense, generic over either coefficient ring,
including nested Poly coefficients for parameter rings like Q[A][t] and
Q[A][x][z]; poly_divmod divides by a monic divisor in any of them.  F_{p^k}
lives only in the point-count kernel (`counting`).
"""

from __future__ import annotations

import math
from fractions import Fraction


class AlgebraError(ValueError):
    pass


def _is_zero(c):
    return not c


def _is_one(c):
    if isinstance(c, Poly):
        return len(c.coeffs) == 1 and _is_one(c.coeffs[0])
    return c == 1


# ---------------------------------------------------------------------------
# prime fields


class Fp:
    """Element of F_p, p prime > 3."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise AlgebraError(f"mixed characteristics {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        inv = Fp(pow(self.value, self.p - 2, self.p), self.p)
        return inv * other

    def __pow__(self, n):
        return Fp(pow(self.value, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


# psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)): the least strong
# pseudoprime to all 13 prime bases 2..41.  Below it the test is exact;
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441 already
# passes the bases 2..37.
MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin to the bases 2..41.  A witness proves n
    composite at any size; n that passes every base is prime below
    MILLER_RABIN_BOUND (about 3.3e24), and at or above it ValueError is raised
    instead of an unproven answer."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"{n} passes every base but is beyond the deterministic primality range (< {MILLER_RABIN_BOUND})"
        )
    return True


# ---------------------------------------------------------------------------
# integer factoring: one gcd against the small primes, then Brent's
# cycle-finding rho

TRIAL_DIVISION_BOUND = 10_000
RHO_ITERATION_BUDGET = 1_000_000


class UnfactoredError(ValueError):
    pass


def _small_primes():
    limit = TRIAL_DIVISION_BOUND
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = _small_primes()
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)


def _strip_small_primes(n):
    """(exponents, c) for n > 0: the exponent of each prime <= TRIAL_DIVISION_BOUND
    that divides n, in increasing order, and the cofactor c with no such prime
    factor.  One gcd with the product of those primes gives the squarefree g
    whose primes divide n; only g is trial-divided."""
    exponents = {}
    g = math.gcd(n, _SMALL_PRIMES_PRODUCT)
    primes = iter(_SMALL_PRIMES)
    while g > 1:
        p = next(primes)
        if p * p > g:
            p = g  # g is squarefree, so what is left of it is one prime
        if g % p:
            continue
        g //= p
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exponents[p] = e
    return exponents, n


def _pollard_brent(n, budget):
    """A nontrivial factor of composite odd n, or None if the budget runs out."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m = 2, 128
        g, r, q = 1, 1, 1
        spent = 0
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if 1 < g < n:
            return g
    return None


def factorize(n):
    """Prime factorization of |n| as a dict; raises UnfactoredError past the
    rho budget or on a cofactor beyond the exact range of is_prime."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out, c = _strip_small_primes(n)
    stack = [c] if c > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        try:
            prime = is_prime(m)
        except ValueError as exc:
            raise UnfactoredError(f"cannot certify the factors of {m}: {exc}") from exc
        if prime:
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_brent(m, RHO_ITERATION_BUDGET)
        if f is None or f in (1, m):
            raise UnfactoredError(f"factoring budget exceeded on {m}")
        stack.append(f)
        stack.append(m // f)
    return out


# ---------------------------------------------------------------------------
# dense polynomials


class Poly:
    """Dense univariate polynomial over a generic coefficient ring.

    Coefficients may be Fraction, Fp, or Poly (for nested
    parameter rings).  Trailing zero coefficients are stripped; the zero
    polynomial has an empty coefficient list and degree -1.

    Caution with nested rings: an inner-ring Poly scalar must be lifted with
    Poly.const before multiplying, otherwise it is read as an outer-variable
    polynomial.  Plain ints and Fractions are safe scalars at any level.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def gen(cls):
        """The generator x of Q[x]."""
        return cls([Fraction(0), Fraction(1)])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and _is_one(self.coeffs[-1])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return len(self.coeffs) == len(other.coeffs) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if not self.coeffs:
            return _is_zero(other)
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, Poly):
            n = max(len(self.coeffs), len(other.coeffs))
            out = []
            for i in range(n):
                if i < len(self.coeffs) and i < len(other.coeffs):
                    out.append(self.coeffs[i] + other.coeffs[i])
                elif i < len(self.coeffs):
                    out.append(self.coeffs[i])
                else:
                    out.append(other.coeffs[i])
            return Poly(out)
        if not self.coeffs:
            return Poly([other])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly([])
            out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if _is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    t = a * b
                    out[i + j] = t if out[i + j] is None else out[i + j] + t
            zero = self.coeffs[0] * 0
            return Poly([zero if c is None else c for c in out])
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return Poly([other * c for c in self.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            return Poly([1])
        return result

    def __call__(self, x):
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self.coeffs])

    def derivative(self):
        return Poly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if not _is_zero(c)]
        return "Poly(" + " + ".join(terms) + ")"


def poly_divmod(f, g):
    """Euclidean division; the divisor must be monic or have an invertible
    leading coefficient (field coefficients)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    monic = g.is_monic()
    lead = g.lead()
    r = list(f.coeffs)
    dg = g.degree
    q = [None] * max(0, len(r) - dg)
    for i in range(len(r) - dg - 1, -1, -1):
        top = r[i + dg]
        if _is_zero(top):
            continue
        c = top if monic else top / lead
        q[i] = c
        for j, gc in enumerate(g.coeffs):
            r[i + j] = r[i + j] - c * gc
    if f.coeffs:
        zero = f.coeffs[0] * 0
        q = [zero if c is None else c for c in q]
    return Poly(q), Poly(r[:dg])


def poly_gcd(f, g):
    """Monic gcd over a field; gcd(0, 0) = 0, coprime inputs give 1."""
    a, b = f, g
    while b:
        _, a, b = None, b, poly_divmod(a, b)[1]
    if not a:
        return a
    lead = a.lead()
    if _is_one(lead):
        return a
    return a.map_coeffs(lambda c: c / lead)


def squarefree(f):
    """True when f has no repeated roots over the coefficient field."""
    g = poly_gcd(f, f.derivative())
    return g.degree <= 0


def quadratic_character(a, p):
    """The Legendre symbol (a/p) for an odd prime p: 0 when p | a, else +1
    or -1 by Euler's criterion a^((p-1)/2)."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
