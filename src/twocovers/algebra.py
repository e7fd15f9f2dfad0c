"""Exact scalar and polynomial arithmetic.

Scalars are python Fractions (arbitrary precision), prime-field elements, or
extension-field elements.  Polynomials are dense, generic over any of these
coefficient rings, including nested Poly coefficients for parameter rings
like Q[A][t] and Q[A,B][x][z].
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

Rational = Fraction


class AlgebraError(ValueError):
    pass


class _Infinity:
    """Projective infinity marker returned by pole-aware evaluation."""

    def __repr__(self):
        return "INFINITY"

    def __bool__(self):
        return True


INFINITY = _Infinity()


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


class PrimeField:
    """The field F_p for a prime p > 3."""

    def __init__(self, p):
        if p <= 3 or not is_prime(p):
            raise AlgebraError(f"prime > 3 required, got {p}")
        self.p = p
        self.order = p

    def __call__(self, value):
        if isinstance(value, Fp):
            value = value.value
        elif isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise AlgebraError(f"denominator of {value} vanishes mod {self.p}")
            value = value.numerator * pow(value.denominator, self.p - 2, self.p)
        return Fp(value, self.p)

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def elements(self):
        return (Fp(v, self.p) for v in range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self):
        return f"F_{self.p}"


def is_prime(n):
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomials


class Poly:
    """Dense univariate polynomial over a generic coefficient ring.

    Coefficients may be Fraction, Fp, FqElement, or Poly (for nested
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
    def gen(cls, one=Fraction(1)):
        """The generator x of R[x], with 1 given by `one`."""
        return cls([one * 0, one])

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

    def shift(self, n):
        """Multiply by x^n."""
        if not self.coeffs:
            return self
        zero = self.coeffs[0] * 0
        return Poly([zero] * n + self.coeffs)

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


def reduce_mod_ideal(f, g):
    """Remainder of f after iterated division by g in the top variable.

    g must be monic in that variable; coefficients live in any common ring
    (no coefficient division is performed).
    """
    if not g.is_monic():
        raise AlgebraError("reduce_mod_ideal requires a monic divisor")
    dg = g.degree
    r = f
    while r.degree >= dg:
        top = r.lead()
        shifted = Poly([top]).shift(r.degree - dg) * g
        r = r - shifted
    return r


def squarefree(f):
    """True when f has no repeated roots over the coefficient field."""
    g = poly_gcd(f, f.derivative())
    return g.degree <= 0


# ---------------------------------------------------------------------------
# extension fields


def find_irreducible(p, k, seed=0):
    """Monic irreducible polynomial of degree k over F_p, deterministic for a
    fixed seed.  Certified by the Rabin test: x^(p^k) == x mod g together
    with gcd(x^(p^(k/l)) - x, g) = 1 for each prime l dividing k."""
    if p <= 3 or k < 1:
        raise AlgebraError(f"need p > 3 and k >= 1, got p={p}, k={k}")
    field = PrimeField(p)
    rng = random.Random(seed)
    if k == 1:
        return Poly([Fp(rng.randrange(p), p), field.one()])
    prime_divs = sorted({d for d in range(2, k + 1) if k % d == 0 and is_prime(d)})
    x = Poly([field.zero(), field.one()])
    for _ in range(4096):
        coeffs = [Fp(rng.randrange(p), p) for _ in range(k)]
        if not coeffs[0]:
            continue
        g = Poly(coeffs + [field.one()])
        fr = x
        frob_steps = {}
        for step in range(1, k + 1):
            fr = _poly_powmod(fr, p, g)
            frob_steps[step] = fr
        if frob_steps[k] != x:
            continue
        if all(poly_gcd(frob_steps[k // l] - x, g).degree == 0 for l in prime_divs):
            return g
    raise AlgebraError(f"no irreducible of degree {k} over F_{p} found in 4096 tries")


def _poly_powmod(base, e, modulus):
    acc = None
    b = poly_divmod(base, modulus)[1]
    while e:
        if e & 1:
            acc = b if acc is None else poly_divmod(acc * b, modulus)[1]
        e >>= 1
        if e:
            b = poly_divmod(b * b, modulus)[1]
    if acc is None:
        one = Fp(1, modulus.coeffs[-1].p) if isinstance(modulus.coeffs[-1], Fp) else Fraction(1)
        return Poly([one])
    return acc


class ExtField:
    """F_{p^k} presented as F_p[x]/(modulus)."""

    def __init__(self, p, k, modulus=None, seed=0):
        if p <= 3 or not is_prime(p):
            raise AlgebraError(f"prime > 3 required, got {p}")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = find_irreducible(p, k, seed)
        if isinstance(modulus, Poly):
            mod = tuple(c.value if isinstance(c, Fp) else int(c) % p for c in modulus.coeffs)
        else:
            mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise AlgebraError("modulus must be monic of degree k")
        self.modulus = mod
        # reduction rows: x^(k+i) mod modulus, i = 0..k-2
        rows = []
        cur = [(-c) % p for c in mod[:k]]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            cur = [0] + cur
            top = cur.pop()
            cur = [(cur[j] + top * rows[0][j]) % p for j in range(k)]
            rows.append(tuple(cur))
        self._rows = rows

    def __call__(self, coeffs):
        if isinstance(coeffs, FqElement):
            return coeffs
        if isinstance(coeffs, int):
            return FqElement(self, (coeffs % self.p,) + (0,) * (self.k - 1))
        t = tuple(int(c) % self.p for c in coeffs)
        if len(t) > self.k:
            raise AlgebraError("residue degree too large")
        return FqElement(self, t + (0,) * (self.k - len(t)))

    def zero(self):
        return self((0,))

    def one(self):
        return self((1,))

    def elements(self):
        for packed in range(self.q):
            yield FqElement(self, self.unpack(packed))

    def unpack(self, n):
        digits = []
        for _ in range(self.k):
            n, r = divmod(n, self.p)
            digits.append(r)
        return tuple(digits)

    def pack(self, t):
        n = 0
        for d in reversed(t):
            n = n * self.p + d
        return n

    def mul_tuples(self, a, b):
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
                row = self._rows[i - k]
                for j in range(k):
                    out[j] += c * row[j]
        return tuple(v % p for v in out)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


class FqElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field != self.field:
                raise AlgebraError("mixed extension fields")
            return other.coeffs
        if isinstance(other, int):
            return (other % self.field.p,) + (0,) * (self.field.k - 1)
        if isinstance(other, Fp):
            if other.p != self.field.p:
                raise AlgebraError("mixed characteristics")
            return (other.value,) + (0,) * (self.field.k - 1)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FqElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FqElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.mul_tuples(self.coeffs, o))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return self.field.one() if acc is None else acc

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * FqElement(self.field, o).inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        return f"Fq{self.coeffs}@{self.field!r}"


def quadratic_character(a, q=None):
    """0 for a = 0, +1 for a nonzero square, -1 otherwise, in a field of odd
    size q (computed as a^((q-1)/2))."""
    if isinstance(a, Fp):
        if not a:
            return 0
        r = pow(a.value, (a.p - 1) // 2, a.p)
        return 1 if r == 1 else -1
    if isinstance(a, FqElement):
        if not a:
            return 0
        r = a ** ((a.field.q - 1) // 2)
        return 1 if r == a.field.one() else -1
    if isinstance(a, int):
        if q is None:
            raise AlgebraError("field size q required for plain-int input")
        a %= q
        if a == 0:
            return 0
        r = pow(a, (q - 1) // 2, q)
        return 1 if r == 1 else -1
    raise AlgebraError(f"unsupported element {a!r}")


# ---------------------------------------------------------------------------
# functions on a hyperelliptic curve, linear in the sheet coordinate


def poly_order_at(f, t0):
    """Vanishing order of f at t = t0, together with f/(t-t0)^order."""
    if not f:
        raise AlgebraError("zero polynomial has infinite order")
    order = 0
    while True:
        q, rem = _div_linear(f, t0)
        if rem:
            return order, f
        f = q
        order += 1


def _div_linear(f, t0):
    """Synthetic division of f by (t - t0)."""
    q = []
    acc = None
    for c in reversed(f.coeffs):
        acc = c if acc is None else acc * t0 + c
        q.append(acc)
    rem = q.pop()
    q.reverse()
    return Poly(q), rem


class RationalFunction:
    """num/den pair of polynomials, evaluated projectively (poles allowed)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def evaluate(self, t0):
        dv = self.den(t0)
        if dv:
            return self.num(t0) / dv
        if not self.num:
            raise AlgebraError("zero/zero rational function")
        a, num = poly_order_at(self.num, t0)
        b, den = poly_order_at(self.den, t0)
        if a < b:
            return INFINITY
        if a > b:
            return num(t0) * 0 / den(t0)
        return num(t0) / den(t0)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


class WLinear:
    """(a(t) + b(t) w) / den(t) on the curve w^2 = h(t).

    The arithmetic stays in polynomial form (no gcd reduction); evaluation
    resolves removable singularities through the conjugate and cancellation
    of (t - t0) factors.
    """

    __slots__ = ("a", "b", "den", "h")

    def __init__(self, a, b, den, h):
        self.a = a
        self.b = b
        self.den = den
        self.h = h

    @classmethod
    def lift_poly(cls, f, h, one=1):
        zero = Poly([])
        return cls(f if isinstance(f, Poly) else Poly([f * one]), zero, Poly([one * 1]), h)

    @classmethod
    def sheet(cls, h, one=1):
        """The function w itself."""
        return cls(Poly([]), Poly([one * 1]), Poly([one * 1]), h)

    def _check(self, other):
        if self.h != other.h:
            raise AlgebraError("mismatched curve relations")

    def __add__(self, other):
        if not isinstance(other, WLinear):
            other = WLinear.lift_poly(other if isinstance(other, Poly) else Poly([other]), self.h)
        self._check(other)
        return WLinear(
            self.a * other.den + other.a * self.den,
            self.b * other.den + other.b * self.den,
            self.den * other.den,
            self.h,
        )

    __radd__ = __add__

    def __neg__(self):
        return WLinear(-self.a, -self.b, self.den, self.h)

    def __sub__(self, other):
        if not isinstance(other, WLinear):
            other = WLinear.lift_poly(other if isinstance(other, Poly) else Poly([other]), self.h)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, WLinear):
            return WLinear(self.a * other, self.b * other, self.den, self.h)
        self._check(other)
        return WLinear(
            self.a * other.a + self.b * other.b * self.h,
            self.a * other.b + self.b * other.a,
            self.den * other.den,
            self.h,
        )

    __rmul__ = __mul__

    def norm_num(self):
        """a^2 - b^2 h (the numerator of self * conjugate)."""
        return self.a * self.a - self.b * self.b * self.h

    def inverse(self):
        n = self.norm_num()
        if not n:
            raise ZeroDivisionError("inverting a norm-zero function")
        return WLinear(self.den * self.a, -(self.den * self.b), n, self.h)

    def __truediv__(self, other):
        if not isinstance(other, WLinear):
            other = WLinear.lift_poly(other if isinstance(other, Poly) else Poly([other]), self.h)
        return self * other.inverse()

    def is_zero(self):
        return not self.a and not self.b

    def map_coeffs(self, fn):
        return WLinear(
            self.a.map_coeffs(fn),
            self.b.map_coeffs(fn),
            self.den.map_coeffs(fn),
            self.h.map_coeffs(fn),
        )

    def reduced(self):
        """Cancel the common polynomial factor of a, b, den (field
        coefficients required); keeps symbolic curve arithmetic from blowing
        up in degree."""
        g = poly_gcd(self.a, self.b) if self.a or self.b else self.den
        g = poly_gcd(g, self.den)
        if g.degree > 0:
            a = poly_divmod(self.a, g)[0] if self.a else self.a
            b = poly_divmod(self.b, g)[0] if self.b else self.b
            den = poly_divmod(self.den, g)[0]
            return WLinear(a, b, den, self.h)
        return self

    def evaluate(self, t0, w0):
        """Value at a curve point (t0, w0) with w0^2 = h(t0); INFINITY on a
        genuine pole."""
        a, b, den = self.a, self.b, self.den
        while True:
            dv = den(t0)
            nv = a(t0) + b(t0) * w0
            if dv:
                return nv / dv
            if nv:
                return INFINITY
            if not a and not b:
                return nv  # the zero function
            av = a(t0) if a else None
            bv = b(t0) if b else None
            if (av is None or not av) and (bv is None or not bv):
                # polynomial common factor (t - t0) in a, b, den
                a = _div_linear(a, t0)[0] if a else a
                b = _div_linear(b, t0)[0] if b else b
                den = _div_linear(den, t0)[0]
                continue
            # genuine sheet mixing: a(t0) = -b(t0) w0 with b(t0) != 0;
            # rewrite as (a^2 - b^2 h) / (den (a - b w))
            conj = a(t0) - b(t0) * w0
            if not conj:
                raise AlgebraError("unresolvable 0/0: common factor in map data")
            num = a * a - b * b * self.h
            if not num:
                raise AlgebraError("zero/zero: numerator has norm zero")
            aord, num = poly_order_at(num, t0)
            bord, dred = poly_order_at(den, t0)
            if aord < bord:
                return INFINITY
            if aord > bord:
                return num(t0) * 0 / (dred(t0) * conj)
            return num(t0) / (dred(t0) * conj)
