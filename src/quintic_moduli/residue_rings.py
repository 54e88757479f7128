"""Quotient rings GF(p)[u]/(h) with dynamic splitting on zero divisors.

For a squarefree modulus h the quotient is a product of fields, one per
irreducible factor.  Computations proceed as if over a single field; the
moment an inversion hits a zero divisor, the attempted gcd exposes a
nontrivial factor of h and a ``SplitNeeded`` escape carries it upward.
The caller reruns the computation modulo each factor.  This decides
questions "at every root of h simultaneously" without ever factoring h
into irreducibles.

Elements are reduced ``UniPoly`` values over GF(p).  ``reduce`` divides by
h through multiplication (von zur Gathen & Gerhard, *Modern Computer
Algebra*, section 9.1): the quotient is read off the product of the reversed
input with a cached power series of 1/rev(h), and the remainder off one
more product, both packed GF(p) products of ``polys.dense_product``.
Elements combine with ``UniPoly``'s own ``+ - *``; callers reduce each
result, and ``inv`` and ``generator`` reduce through it too.  So
``UniPoly(ResidueRing(h), ...)`` runs the dense kernels of :mod:`.polys`
unchanged: products accumulate raw and reduce once per coefficient, and
``gcd_uni`` escapes with ``SplitNeeded`` from the ``inv`` inside ``divmod``
and ``monic``.
"""

from __future__ import annotations

from .elimination import _gcd_cofactor
from .polys import UniPoly, dense_product
from .scalars import PrimeField, Ring


class SplitNeeded(Exception):
    """A zero divisor was hit; ``factor`` properly divides the modulus."""

    def __init__(self, factor: UniPoly):
        super().__init__(f"modulus splits off a degree-{factor.degree} factor")
        self.factor = factor


class ResidueRing(Ring):
    """GF(p)[u] modulo a monic polynomial; elements are reduced ``UniPoly``."""

    def __init__(self, modulus: UniPoly):
        if not isinstance(modulus.field, PrimeField):
            raise ValueError("residue rings are built over prime fields")
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        self.base = modulus.field
        self.modulus = modulus.monic()
        # the power series 1/rev(h) in GF(p)[[u]], to as many terms as reduce has needed
        self._inverse_series = [self.base.one]
        self.zero = UniPoly.zero(self.base)
        self.one = UniPoly.constant(self.base, self.base.one)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def generator(self) -> UniPoly:
        """The class of u itself."""
        return self.reduce(UniPoly.x(self.base))

    def from_int(self, n):
        return UniPoly.constant(self.base, self.base.from_int(n))

    def from_fraction(self, q):
        return UniPoly.constant(self.base, self.base.from_fraction(q))

    def from_base(self, c) -> UniPoly:
        """Embed a GF(p) scalar."""
        return UniPoly.constant(self.base, c)

    def reduce(self, poly: UniPoly) -> UniPoly:
        """The class of an arbitrary GF(p)[u] polynomial, with reduced coefficients.

        For x of degree m >= n = deg h, the quotient q has k = m - n + 1
        coefficients and rev(q) = rev(x) / rev(h) mod u**k; the remainder is
        the low n coefficients of x - q h.
        """
        x, h = poly.coeffs, self.modulus.coeffs
        n = len(h) - 1
        k = len(x) - n
        if k <= 0:
            return poly
        F = self.base
        # rev(x) mod u**k is the top k coefficients of x, highest first
        q = dense_product(F, x[:n - 1:-1], self._series(k))[k - 1::-1]
        qh = dense_product(F, q[:n], h[:n])
        p = F.p
        return UniPoly(F, [(c - d) % p for c, d in zip(x[:n], qh)])

    def _series(self, k: int) -> list:
        """The first k coefficients of 1/rev(h), extending the cached series."""
        s = self._inverse_series
        if len(s) < k:
            s = list(s)
            rev = self.modulus.coeffs[::-1]  # rev[0] == 1: h is monic
            p = self.base.p
            for i in range(len(s), k):
                s.append(-sum(rev[j] * s[i - j] for j in range(1, min(i, len(rev) - 1) + 1)) % p)
            self._inverse_series = s
        return s[:k]

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def inv(self, a):
        """Inverse of a unit; raises SplitNeeded on a zero divisor."""
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in residue ring")
        d, s = _gcd_cofactor(a, self.modulus)
        if d.degree == 0:
            return self.reduce(s)
        if d.degree < self.modulus.degree:
            raise SplitNeeded(d)
        raise ZeroDivisionError("inverse of zero in residue ring")

    def is_unit(self, a) -> bool:
        """True/False for unit/zero; zero divisors raise SplitNeeded."""
        if a.is_zero():
            return False
        self.inv(a)
        return True

    def __repr__(self):
        return f"ResidueRing({self.modulus!r})"


def split_modulus(ring: ResidueRing, factor: UniPoly) -> tuple[UniPoly, UniPoly]:
    """The two complementary moduli exposed by a SplitNeeded factor."""
    h = ring.modulus
    other = (h // factor).monic()
    return factor.monic(), other
