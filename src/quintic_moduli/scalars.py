"""Exact coefficient arithmetic: rationals and fixed odd prime fields.

Scalars are plain Python values: ``Fraction`` for the rationals, ``int``
reduced to ``[0, p)`` for a prime field.  A field object supplies the
arithmetic, so generic code (polynomials, transvectants, interpolation)
is written once against the field interface.  Values from different
fields are never coerced into each other: polynomial operations compare
field objects and raise on mismatch.

Prime fields require an odd prime ``p >= 2503``.  The lower bound keeps
every factorial scaling, squarefree multiplicity and interpolation node
count used elsewhere in the package invertible / below ``p``.
"""

from __future__ import annotations

import functools
from fractions import Fraction

#: Smallest admissible prime field characteristic.
MIN_PRIME = 2503

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
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
    return True


class Ring:
    """Exact commutative ring interface; enough for transvectant calculus."""

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def from_base(self, c):
        """Embed a scalar of the base field; a field is its own base."""
        return c

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out


class Field(Ring):
    """A ring with division."""

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class RationalField(Field):
    """The rationals; elements are ``Fraction`` (always in lowest terms)."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"


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

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

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


@functools.cache
def GF(p: int) -> PrimeField:
    """Cached prime field constructor, so ``GF(p) is GF(p)``."""
    return PrimeField(p)
