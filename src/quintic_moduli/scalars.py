"""Exact coefficient arithmetic: rationals and fixed odd prime fields.

Scalars are plain Python values: ``Fraction`` for the rationals, ``int``
reduced to ``[0, p)`` for a prime field.  Arithmetic is the values' own
``+ - *``; a ring object supplies only what those operators cannot:
``reduce``, which maps a raw ``+ - *`` combination of elements to the
canonical representative (``x % p`` on GF(p), the identity on QQ and on
polynomial rings, ``x % h`` on a residue ring GF(p)[u]/(h)), the
embeddings ``from_int`` and ``from_fraction``, ``pow``, and ``inv`` on a
field.  Generic code (polynomials, transvectants) is written
once against that interface: it combines values with their operators and
calls ``reduce`` once per result.  Values from different rings are never
coerced into each other: polynomial operations compare ring objects and
raise on mismatch.

``QQ.clear_denominators(values)`` returns ``(numerators, d)``: the ints
``x * d`` for d the lcm of the denominators, so an exact kernel
(``polys.dense_product``, ``linalg.rref``) sums and multiplies ints and
makes one ``Fraction`` per output value instead of normalising one per
term.

The private ``ZZ`` is the integers as plain ints: ``reduce`` is the
identity and there is no ``from_fraction``, so a rational constant that
reaches it raises.  The QQ entries of ``invariants.invariants``,
``invariants.invariant_triple`` and ``BinaryForm.substituted`` clear the
denominators once and run their generic kernels there, on the numerators:
the unscaled transvectant chain and the substitution's binomial pass.

Prime fields require an odd prime ``p >= 2503``.  The lower bound keeps
every factorial scaling, squarefree multiplicity and interpolation node
count used elsewhere in the package invertible / below ``p``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt, lcm

#: Smallest admissible prime field characteristic.
MIN_PRIME = 2503

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: 1287836182261 * 2575672364521, the least strong pseudoprime to all these bases
PSI_12 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37, a proof below ``PSI_12`` (Sorenson and
    Webster, Math. Comp. 86, 2017); from there on a strong Lucas test is added
    (Baillie-PSW, Math. Comp. 35, 1980), which no known composite passes."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_12 or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n), n odd and positive."""
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        if a % 4 == n % 4 == 3:
            out = -out
        a, n = n % a, a
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd n with no
    factor below 41: D the first of 5, -7, 9, -11, ... with (D / n) = -1,
    P = 1 and Q = (1 - D) / 4.  With n + 1 = d 2^s, n passes when U_d = 0
    or V_(d 2^r) = 0 mod n for some r < s."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D / n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n
        D = 2 - D if D < 0 else -D - 2
    Q, d, s, half = (1 - D) // 4, n + 1, 0, (n + 1) // 2
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_k, V_k and Q^k mod n from k = 1, doubling k (and adding 1) along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


class Ring:
    """Exact commutative ring: ``zero``, ``one``, ``reduce`` and embeddings.

    Elements combine with their own ``+ - *``; ``reduce`` brings the raw
    result back to the canonical representative, once per value.
    """

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def reduce(self, x):
        """Canonical representative of a raw ``+ - *`` combination of elements."""
        return x

    def pow(self, a, n: int):
        """a**n by repeated squaring; a negative n needs ``inv``."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        while n:
            if n & 1:
                out = self.reduce(out * a)
            n >>= 1
            if n:
                a = self.reduce(a * a)
        return out


class Field(Ring):
    """A ring with division."""

    def inv(self, a):
        raise NotImplementedError


class RationalField(Field):
    """The rationals; elements are ``Fraction`` (always in lowest terms)."""

    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def is_zero(self, a):
        return a == 0

    def clear_denominators(self, values):
        """(numerators, d): ints over d, the lcm of the values' denominators."""
        # a list, not a generator: unpacking a generator here made the peak
        # RSS of a long run of exact checks creep up by about 0.5 MB
        d = lcm(*[x.denominator for x in values])
        return [x.numerator * (d // x.denominator) for x in values], d

    def __repr__(self):
        return "QQ"


class _IntegerRing(Ring):
    """The integers as plain ints; ``reduce`` is the identity and
    ``from_fraction`` raises."""

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "ZZ"


class PrimeField(Field):
    """Integers mod an odd prime ``p >= MIN_PRIME``; elements live in ``[0, p)``."""

    def __init__(self, p: int):
        if p < MIN_PRIME:
            raise ValueError(f"prime field characteristic must be >= {MIN_PRIME}, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def reduce(self, x):
        return x % self.p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator {q.denominator} vanishes mod {self.p}")
        return q.numerator % self.p * pow(den, self.p - 2, self.p) % self.p

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
ZZ = _IntegerRing()


@functools.cache
def GF(p: int) -> PrimeField:
    """Cached prime field constructor, so ``GF(p) is GF(p)``."""
    return PrimeField(p)
