"""Quotient rings GF(p)[u]/(h), for the flex probe of ``plane_curves`` and
the flex lines of ``fiber_counting``.

For a squarefree modulus h the quotient is a product of fields, one per
irreducible factor, so a class stands for its values at every root of h at
once.  The probe inverts one class, a zero divisor there meaning a
degenerate frame, and counts the roots where a class vanishes by gcds over
GF(p): h is never split.

Elements are reduced ``UniPoly`` values over GF(p), and each ring also
handles them packed: one int with coefficient k in the w-bit slot k
(``pack``/``unpack``).  ``divmod_packed`` divides by the monic h of degree
n by Barrett's method on those slots (Barrett, CRYPTO '86; von zur Gathen &
Gerhard, *Modern Computer Algebra*, section 9.1).  With K = 2n + 1 and the
reciprocal R = floor(x**K / h), cached per ring with the packed -h, the
quotient of a polynomial a of degree < K by h is exactly q =
floor(floor(a / x**n) * R / x**(K - n)), so a mod h is a + q * (-h) on its
low n slots.  An input of higher degree is reduced K - n slots at a time
from its top.  SWAR Barrett steps (``polys._barrett_constants``) bring the
slots back to [0, 2p) between the two products, and one SWAR compare and
subtract leaves residues in [0, p), so the remainder is canonical for any
input degree; the quotient keeps its slots in [0, 2p), so the fiber oracle
divides its eliminant by a flex-line polynomial again and again without
unpacking it.  ``reduce_packed`` is the remainder and ``reduce`` that on a
packed ``UniPoly``.  The ring divides x**K by h once, when it is built
(one packed ``UniPoly.divmod``), and never again.  The flex probe (``plane_curves._tangent_coefficients``)
keeps its classes packed, a product of two classes being one bigint product
and one ``reduce_packed``, and unpacks only the classes it takes gcds of.

``inv`` is the packed extended Euclid ``elimination._gcd_cofactor`` of the
element and h: the remainder sequence of ``gcd_uni`` with the cofactor
carried along in the same slots; every non-unit raises
``ZeroDivisionError``.  Elements combine with ``UniPoly``'s own ``+ - *``;
callers reduce each result, and ``inv`` and ``generator`` reduce through
it too.  A ring is a ``Ring`` like any other, so ``UniPoly(ResidueRing(h),
...)`` runs the dense kernels of :mod:`.polys`, though the package builds
no such polynomial.
"""

from __future__ import annotations

from .elimination import _gcd_cofactor
from .polys import UniPoly, _barrett_constants, _barrett_mask, _pack, _unpack
from .scalars import PrimeField, Ring


class ResidueRing(Ring):
    """GF(p)[u] modulo a monic polynomial h; elements are reduced ``UniPoly``.

    Packed classes have slots of ``width`` bits: the w of
    ``polys._barrett_constants`` for the slot bound 6 (n + 4)(p - 1)**2, n
    = deg h, which every input of ``reduce_packed`` must keep.  It holds
    the flex probe's sums (``plane_curves._tangent_coefficients``) and the
    slots formed inside ``reduce_packed``.  At the certificate's degree 45
    the width is 64 bits for p below about 57,000 and 128 bits below about
    10**11.
    """

    def __init__(self, modulus: UniPoly):
        if not isinstance(modulus.field, PrimeField):
            raise ValueError("residue rings are built over prime fields")
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        self.base = modulus.field
        self.modulus = h = modulus.monic()
        self.zero = UniPoly.zero(self.base)
        self.one = UniPoly.constant(self.base, self.base.one)
        p, n = self.base.p, h.degree
        s, m, w = _barrett_constants(p, 6 * (n + 4) * (p - 1) ** 2)
        k = 2 * n + 1
        self.width = w
        self._k = k
        self._step = (s, m, _barrett_mask(s, k, w))
        self._recip = _pack((UniPoly(self.base, [0] * k + [1]) // h).coeffs, w)
        self._negated = _pack([-c % p for c in h.coeffs], w)
        self._low = (1 << w * n) - 1
        ones = self._low // ((1 << w) - 1)
        t = p.bit_length()
        self._compare = (t, ones, ones * ((1 << t) - p))

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
        return self.unpack(self.reduce_packed(self.pack(poly)))

    def pack(self, a: UniPoly) -> int:
        """A polynomial over GF(p) in the ring's slots."""
        return _pack(a.coeffs, self.width)

    def unpack(self, x: int) -> UniPoly:
        """The class of a canonical packed residue, as ``reduce_packed`` gives."""
        return UniPoly(self.base, _unpack(x, self.degree, self.width))

    def reduce_packed(self, a: int) -> int:
        """The remainder mod h of a packed polynomial of any degree whose slots
        are at most 6 (n + 4)(p - 1)**2, in n slots in [0, p): the remainder
        of ``divmod_packed``."""
        return self.divmod_packed(a)[1]

    def divmod_packed(self, a: int) -> tuple[int, int]:
        """(quotient, remainder) of a packed polynomial of any degree whose
        slots are at most 6 (n + 4)(p - 1)**2 by h: the remainder in n slots
        in [0, p), the quotient's slots in [0, 2p), so it may be divided
        again.

        While a has a slot at n or above, its top chunk c, of at most K = 2n
        + 1 slots from slot j on, is reduced: one Barrett step brings c's
        slots below 2p, the quotient q = floor(floor(c / x**n) * R / x**(K
        - n)) gets a Barrett step of its own, and c + q * (-h) keeps its low
        n slots, the rest being multiples of p.  Each pass drops at least K
        - n slots.  A slot of floor(c / x**n) * R takes at most n + 1
        products below (2p - 1)(p - 1), and one of c + q * (-h) at most n +
        1 more on top of 2p - 1: both stay below the bound for p >= 2, so no
        slot carries into the next.  Then one more Barrett step, and the
        compare y = a + (2**t - p) on every slot (2**t > p) sets bit t of a
        slot exactly where it is at least p, which subtracts p there.  The
        quotient is the sum of the passes' q x**j, which occupy disjoint
        slots: the next chunk's top is below j + n, so its q ends below j.
        """
        w, k, n = self.width, self._k, self.modulus.degree
        p = self.base.p
        s, m, mask = self._step
        quotient = 0
        while (top := (a.bit_length() - 1) // w) >= n:
            j = max(0, top - k + 1)
            c = a >> w * j
            c -= p * ((c * m >> s) & mask)
            q = (c >> w * n) * self._recip >> w * (k - n)
            q -= p * ((q * m >> s) & mask)
            quotient += q << w * j
            a = ((c + q * self._negated) & self._low) << w * j | a & ((1 << w * j) - 1)
        a -= p * ((a * m >> s) & mask)
        t, ones, offset = self._compare
        return quotient, a - p * ((a + offset) >> t & ones)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def inv(self, a):
        """Inverse of a unit; every non-unit raises ZeroDivisionError."""
        d, s = _gcd_cofactor(a, self.modulus)
        if d.degree != 0:
            raise ZeroDivisionError("inverse of a zero divisor in residue ring")
        return self.reduce(s)

    def __repr__(self):
        return f"ResidueRing({self.modulus!r})"


def split_modulus(ring: ResidueRing, factor: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(factor, other), both monic, with factor * other the ring's h.

    No caller in the package: it is kept only because the benchmark's
    tracer (``perfbench/tracing.py``) wraps it by name.
    """
    h = ring.modulus
    other = (h // factor).monic()
    return factor.monic(), other
