"""Binary forms and transvectants over an arbitrary exact coefficient ring.

A form of order n in (x, y) is a coefficient list of length n + 1 where
``coeffs[k]`` multiplies ``x**(n-k) * y**k``.  The order is part of the
data: top coefficients may vanish (a root at (1:0)); the zero form of a
given order is allowed, since transvectants produce it.

Coefficients live in any ``Ring`` from :mod:`.scalars` /
:mod:`.polys` (rationals, a prime field, the integers, a polynomial ring
for symbolic identities, or a residue ring GF(p)[u]/(h)), so the same
covariant code serves numeric and symbolic callers.
Every kernel here sums the coefficients' own ``+ - *`` with one ``reduce``
per result; a form has no sum or scaling of its own.  Products of forms go
through ``polys.dense_product``, as ``UniPoly``'s do, for the tests only.

A transvectant has two layers.  The kernel ``_transvectant_sums`` is the
accumulate-then-reduce idiom over a cached table of integer weights, with
no intermediate derivative forms, no scaling and no clearing of
denominators: one weighted sum and one ``reduce`` per output coefficient,
the weights scaling the values as ints (``UniPoly`` and ``MultiPoly`` take
``n * value``).  It is what ``invariants`` runs, in every ring; the
chain's factorial scalings are constants that its normalisation absorbs.
The public ``transvectant`` is the kernel times the table's scaling, with
one more ``reduce`` per output coefficient; the package's own chain never
needs the scaling.

``BinaryForm.substituted`` applies a linear change of the two variables
in one binomial pass, with no power forms and one ``reduce`` per output
coefficient.  Over QQ it clears the form's and the matrix's denominators
once, runs that pass over the integers and makes one ``Fraction`` per
output coefficient.  Restricting a ternary form to a line is
``polys.line_restriction``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial, perm
from typing import Sequence

from .polys import UniPoly, dense_product, powers
from .scalars import QQ, ZZ, Field, Ring


class BinaryForm:
    """Homogeneous binary form of a fixed order."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        if self.ring is not other.ring:
            raise ValueError("ring mismatch between binary forms")
        return BinaryForm(self.ring, dense_product(self.ring, self.coeffs, other.coeffs))

    def substituted(self, m: Sequence[Sequence]) -> "BinaryForm":
        """Apply the linear substitution (x, y) -> (a x + b y, c x + d y).

        ``m = ((a, b), (c, d))`` with entries in the coefficient ring.  The
        sum of f_k (a x + b y)^(n-k) (c x + d y)^k is expanded binomially
        from the power tables of a, b, c and d, the binomials int factors
        on the left, with one ``reduce`` per output coefficient.
        Over QQ, f = F / d and m = M / e for integer F and M, and by
        homogeneity f(m (x, y)) = F(M (x, y)) / (d e**n): the sums run over
        ZZ, and each output coefficient is one ``Fraction``.
        """
        R = self.ring
        n = self.order
        if R is QQ:
            coeffs, d = QQ.clear_denominators(self.coeffs)
            entries, e = QQ.clear_denominators([*m[0], *m[1]])
            numerators = BinaryForm(ZZ, coeffs).substituted((entries[:2], entries[2:]))
            den = d * e**n
            return BinaryForm(QQ, [Fraction(x, den) for x in numerators.coeffs])
        (a, b), (c, d) = m
        A, B, C, D = (powers(R, x, n) for x in (a, b, c, d))
        acc = [R.zero] * (n + 1)
        for k, f in enumerate(self.coeffs):
            r = n - k
            left = [comb(r, i) * A[r - i] * B[i] for i in range(r + 1)]
            for j in range(k + 1):
                right = comb(k, j) * f * C[k - j] * D[j]
                for i, x in enumerate(left, j):
                    acc[i] += x * right
        return BinaryForm(R, [R.reduce(x) for x in acc])

    def to_unipoly(self) -> UniPoly:
        """Dehomogenise at y = 1, i.e. f(X, 1) as a univariate polynomial."""
        if not isinstance(self.ring, Field):
            raise ValueError("dehomogenisation needs field coefficients")
        return UniPoly(self.ring, list(reversed(self.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.ring is other.ring
            and self.order == other.order
            and all(
                self.ring.is_zero(self.ring.reduce(a - b))
                for a, b in zip(self.coeffs, other.coeffs)
            )
        )

    def __hash__(self):
        # on the reduced coefficients, as __eq__ compares them
        return hash((id(self.ring), tuple(map(self.ring.reduce, self.coeffs))))

    def __repr__(self):
        return f"BinaryForm({self.ring!r}, {list(self.coeffs)!r})"


class BinaryQuintic(BinaryForm):
    """An order-5 binary form, required to be nonzero."""

    def __init__(self, ring: Ring, coeffs: Sequence):
        if len(coeffs) != 6:
            raise ValueError("a binary quintic has exactly 6 coefficients")
        super().__init__(ring, coeffs)
        if self.is_zero():
            raise ValueError("the zero form is not a valid binary quintic")

    @classmethod
    def from_ints(cls, ring: Ring, ints: Sequence[int]) -> "BinaryQuintic":
        return cls(ring, [ring.from_int(n) for n in ints])


@functools.cache
def _transvectant_table(m: int, n: int, k: int):
    """Integer weights of (g, h)_k for forms of orders m and n.

    Returns (rows, scaling): ``rows[u]`` lists the (t, s, w) with
    t + s = u + k and nonzero w, where w * g[t] * h[s] is the part of output
    coefficient u before scaling.  Differentiating x^(m-t) y^t k - r times in
    x and r times in y gives (m-t)_(k-r) * t_(r) (falling factorials), so

        w = sum_r (-1)^r C(k, r) (m-t)_(k-r) t_(r) (n-s)_(r) s_(k-r);

    ``scaling`` is (m-k)! (n-k)! / (m! n!).
    """
    rows = []
    for u in range(m + n - 2 * k + 1):
        row = []
        for t in range(max(0, u + k - n), min(m, u + k) + 1):
            s = u + k - t
            w = sum(
                (-1) ** r * comb(k, r) * perm(m - t, k - r) * perm(t, r)
                * perm(n - s, r) * perm(s, k - r)
                for r in range(k + 1)
            )
            if w:
                row.append((t, s, w))
        rows.append(tuple(row))
    scaling = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    return tuple(rows), scaling


def _transvectant_sums(g: BinaryForm, h: BinaryForm, k: int) -> BinaryForm:
    """(g, h)_k before its scaling, in g's ring.

    Each output coefficient is one sum of w * g[t] * h[s] over the integer
    weights of ``_transvectant_table`` and one ``ring.reduce``; nothing is
    scaled and no denominator is cleared.  Result order: m + n - 2k.
    Requires k <= min(m, n).
    """
    if g.ring is not h.ring:
        raise ValueError("ring mismatch in transvectant")
    m, n = g.order, h.order
    if k > min(m, n):
        raise ValueError(f"transvectant index {k} exceeds min order {min(m, n)}")
    R = g.ring
    gc, hc = g.coeffs, h.coeffs
    zero = 0 * gc[0]  # 0 over the ints and GF(p), the ring's zero otherwise
    out = []
    for row in _transvectant_table(m, n, k)[0]:
        acc = zero
        for t, s, w in row:
            acc += w * gc[t] * hc[s]
        out.append(R.reduce(acc))
    return BinaryForm(R, out)


def transvectant(g: BinaryForm, h: BinaryForm, k: int) -> BinaryForm:
    """k-th transvectant of two forms, with the symmetric factorial scaling.

    (g, h)_k = ((m-k)! (n-k)!)/(m! n!) * sum_r (-1)^r C(k, r)
               * d^k g/dx^(k-r) dy^r * d^k h/dx^r dy^(k-r)

    Result order: m + n - 2k.  Requires k <= min(m, n).  The sums are
    ``_transvectant_sums``; the scaling then multiplies each output
    coefficient, with one more ``ring.reduce``.
    """
    R = g.ring
    scaling = R.from_fraction(_transvectant_table(g.order, h.order, k)[1])
    return BinaryForm(R, [R.reduce(scaling * c) for c in _transvectant_sums(g, h, k).coeffs])
