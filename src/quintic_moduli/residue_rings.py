"""Quotient rings GF(p)[u]/(h) with dynamic splitting on zero divisors.

For a squarefree modulus h the quotient is a product of fields, one per
irreducible factor.  Computations proceed as if over a single field; the
moment an inversion hits a zero divisor, the attempted gcd exposes a
nontrivial factor of h and a ``SplitNeeded`` escape carries it upward.
The caller reruns the computation modulo each factor.  This decides
questions "at every root of h simultaneously" without ever factoring h
into irreducibles.

Elements are reduced ``UniPoly`` values over GF(p).  ``reduce`` is the
remainder of ``UniPoly.divmod`` by h, the packed GF(p) division that
Yun and ``split_modulus`` use too.  ``inv`` is the packed extended Euclid
``elimination._gcd_cofactor`` of the element and h: the remainder
sequence of ``gcd_uni`` with the cofactor carried along in the same
slots.  Elements combine with ``UniPoly``'s own ``+ - *``; callers reduce
each result, and ``inv`` and ``generator`` reduce through it too.  So ``UniPoly(ResidueRing(h), ...)``
runs the dense kernels of :mod:`.polys` unchanged: products accumulate raw
and reduce once per coefficient, and ``gcd_uni`` escapes with
``SplitNeeded`` from the ``inv`` inside ``divmod`` and ``monic``.
"""

from __future__ import annotations

from .elimination import _gcd_cofactor
from .polys import UniPoly
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

    def reduce(self, poly: UniPoly) -> UniPoly:
        """The class of an arbitrary GF(p)[u] polynomial: its remainder mod h."""
        return poly % self.modulus

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
