"""Invariants of binary quintics and the moduli of 5 points on a line.

The ring of invariants is generated in coefficient-degrees 4, 8, 12 and 18.
We build the generators from a fixed transvectant chain

    i = (f, f)_4    j = (i, f)_2    ell = (i*i, f)_4    q = (j, j)_2

    J4 = (i, i)_2   J8 = (q, i)_2   J12 = (q, q)_2      J18 = (j, ell^3)_3

and pin the scale of I4, I8, I12 so that on the three-parameter family

    l*x^5 + m*y^5 + n*(-x-y)^5

they take the classical closed forms

    I4  = (mn + nl + lm)^2 - 4 l m n (l + m + n)
    I8  = (l m n)^2 (mn + nl + lm)
    I12 = (l m n)^4.

Each pinning constant is one exact ratio, solved once per process on the
symbolic family (never hand-entered): s = t / J at one monomial of the
closed form t, with s*J = t then rechecked coefficient by coefficient.  On
this chain they come out as (s4, s8, s12) = (-1/2, 1/8, 1/96).  I18 never
enters any degree computation and keeps the raw chain scale.

In this normalisation the locus of quintics with a repeated root is cut
out by I4^2 - 128*I8, and a quintic is unstable (some root of multiplicity
at least 3) exactly when all invariants vanish; the moduli space of stable
unordered quintuples is the weighted projective plane with weights (1, 2, 3)
via (I4 : I8 : I12).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .binary_forms import BinaryForm, BinaryQuintic, transvectant
from .elimination import gcd_uni
from .polys import PolynomialRing
from .scalars import GF, QQ, Field, PrimeField, Ring


class UnstableQuinticError(ValueError):
    """Raised when a moduli point is requested for an unstable quintuple."""


@dataclass(frozen=True)
class InvariantVector:
    """The four generating invariants of a binary quintic."""

    ring: Ring
    i4: object
    i8: object
    i12: object
    i18: object

    def __iter__(self):
        return iter((self.i4, self.i8, self.i12, self.i18))


class WPPoint:
    """Point of the weighted projective plane with weights (1, 2, 3).

    Equality is weighted proportionality, (w1, w2, w3) ~ (t*w1, t^2*w2,
    t^3*w3) with t != 0, tested over the algebraic closure via the three
    cross conditions below (no root extractions needed).
    """

    __slots__ = ("field", "w1", "w2", "w3")

    def __init__(self, field: Field, w1, w2, w3):
        if field.is_zero(w1) and field.is_zero(w2) and field.is_zero(w3):
            raise ValueError("(0 : 0 : 0) is not a point of the weighted plane")
        self.field = field
        self.w1 = w1
        self.w2 = w2
        self.w3 = w3

    def coords(self):
        return (self.w1, self.w2, self.w3)

    def normalised(self) -> "WPPoint":
        """Representative with w1 = 1 when w1 != 0; otherwise unchanged."""
        F = self.field
        if F.is_zero(self.w1):
            return self
        t = F.inv(self.w1)
        return WPPoint(F, F.one, F.reduce(t * t * self.w2), F.reduce(t * t * t * self.w3))

    def __eq__(self, other):
        if not isinstance(other, WPPoint) or self.field is not other.field:
            return NotImplemented
        F = self.field
        u1, u2, u3 = self.coords()
        v1, v2, v3 = other.coords()
        c12 = F.reduce(v1 * v1 * u2 - u1 * u1 * v2)
        c13 = F.reduce(v1 * v1 * v1 * u3 - u1 * u1 * u1 * v3)
        c23 = F.reduce(v2 * v2 * v2 * u3 * u3 - u2 * u2 * u2 * v3 * v3)
        return F.is_zero(c12) and F.is_zero(c13) and F.is_zero(c23)

    def __hash__(self):
        raise TypeError("WPPoint is unhashable (equality is up to weighted rescaling)")

    def __repr__(self):
        return f"WPPoint({self.w1!r} : {self.w2!r} : {self.w3!r})"


@dataclass(frozen=True)
class OneDouble:
    """One doubled point plus three simple ones; j of the reduced quadruple."""

    j: object


@dataclass(frozen=True)
class TwoDoubles:
    """Two doubled points (the j = infinity end of the discriminant curve)."""


ConfigClass = Union[OneDouble, TwoDoubles]


def _chain(f: BinaryForm):
    """Covariants i, j and the chain values (J4, J8, J12): six transvectants."""
    i = transvectant(f, f, 4)
    j = transvectant(i, f, 2)
    q = transvectant(j, j, 2)
    J4 = transvectant(i, i, 2).coeffs[0]
    J8 = transvectant(q, i, 2).coeffs[0]
    J12 = transvectant(q, q, 2).coeffs[0]
    return i, j, (J4, J8, J12)


def _j18(f: BinaryForm, i: BinaryForm, j: BinaryForm):
    """J18 = (j, ell^3)_3 with ell = (i*i, f)_4, from the chain's i and j."""
    ell = transvectant(i * i, f, 4)
    return transvectant(j, ell * ell * ell, 3).coeffs[0]


def family_quintic(ring: PolynomialRing) -> BinaryQuintic:
    """The symbolic family l*x^5 + m*y^5 + n*(-x-y)^5 over QQ[l, m, n]."""
    l, m, n = ring.variable(0), ring.variable(1), ring.variable(2)
    coeffs = []
    for k in range(6):
        c = ring.zero
        if k == 0:
            c = c + l
        if k == 5:
            c = c + m
        c = c - n.scale(QQ.from_int(comb(5, k)))
        coeffs.append(c)
    return BinaryQuintic(ring, coeffs)


def family_closed_forms(ring: PolynomialRing):
    """The closed forms of (I4, I8, I12) on ``family_quintic``, in QQ[l, m, n]."""
    l, m, n = ring.variable(0), ring.variable(1), ring.variable(2)
    sigma1 = l + m + n
    sigma2 = m * n + n * l + l * m
    prod3 = l * m * n
    t4 = sigma2 * sigma2 - (prod3 * sigma1).scale(Fraction(4))
    t8 = prod3 * prod3 * sigma2
    t12 = (prod3 * prod3) * (prod3 * prod3)
    return t4, t8, t12


def _scale_factor(chain_value, closed_form) -> Fraction:
    """The Fraction s with s * chain_value == closed_form, verified term by term."""
    e = min(closed_form.terms)
    # a chain value missing the monomial raises ZeroDivisionError, an ArithmeticError
    s = closed_form.terms[e] / chain_value.terms.get(e, 0)
    if chain_value.scale(s) != closed_form:
        raise ArithmeticError("invariant normalisation did not reproduce the closed forms")
    return s


_NORMALISATION: tuple[Fraction, Fraction, Fraction] | None = None


def _normalisation() -> tuple[Fraction, Fraction, Fraction]:
    """Scale factors (s4, s8, s12) with s*J equal to the family closed forms.

    Solved once per process as exact ratios on the symbolic family; a
    failure here means the covariant chain is broken.
    """
    global _NORMALISATION
    if _NORMALISATION is None:
        ring = PolynomialRing(QQ, 3)
        chain = _chain(family_quintic(ring))[2]
        _NORMALISATION = tuple(map(_scale_factor, chain, family_closed_forms(ring)))
    return _NORMALISATION


@functools.cache
def _normalisation_modp(p: int) -> tuple[int, int, int]:
    """The scale factors as residues mod p, converted once per prime."""
    F = GF(p)
    return tuple(F.from_fraction(s) for s in _normalisation())


def _normalise(R: Ring, J4, J8, J12):
    """(I4, I8, I12) from the chain values, by the pinned scale factors."""
    if isinstance(R, PrimeField):
        s4, s8, s12 = _normalisation_modp(R.p)
    else:
        s4, s8, s12 = (R.from_fraction(s) for s in _normalisation())
    return R.reduce(s4 * J4), R.reduce(s8 * J8), R.reduce(s12 * J12)


def invariants(f: BinaryQuintic) -> InvariantVector:
    """The normalised invariant quadruple (I4, I8, I12, I18) of a quintic."""
    i, j, triple = _chain(f)
    return InvariantVector(f.ring, *_normalise(f.ring, *triple), _j18(f, i, j))


def invariant_triple(f: BinaryQuintic):
    """(I4, I8, I12) only; the lean path for moduli and fiber-counting loops."""
    return _normalise(f.ring, *_chain(f)[2])


def discriminant_invariant(iv: InvariantVector):
    """The repeated-root locus: I4^2 - 128*I8."""
    R = iv.ring
    return R.reduce(iv.i4 * iv.i4 - R.from_int(128) * iv.i8)


def moduli_point(f: BinaryQuintic) -> WPPoint:
    """(I4 : I8 : I12) in the weighted plane; rejects unstable quintics."""
    if not isinstance(f.ring, Field):
        raise ValueError("moduli points need field coefficients")
    triple = invariant_triple(f)
    if all(f.ring.is_zero(c) for c in triple):
        raise UnstableQuinticError(
            "quintic has a root of multiplicity >= 3; its moduli point is undefined"
        )
    return WPPoint(f.ring, *triple)


def is_stable(f: BinaryQuintic) -> bool:
    """True iff no root (including (1:0)) has multiplicity 3 or more."""
    if not isinstance(f.ring, Field):
        raise ValueError("stability test needs field coefficients")
    F = f.to_unipoly()
    infinity_mult = 5 - F.degree  # vanishing order of the x-leading coefficients
    if infinity_mult >= 3:
        return False
    if F.degree < 2:
        return True
    d1 = F.derivative()
    d2 = d1.derivative()
    return gcd_uni(gcd_uni(F, d1), d2).degree == 0


#: Exponent quadruples (e4, e8, e12, e18) of the 13 candidate monomials of
#: weighted degree 36: I18^2 first, then the pure (I4, I8, I12) monomials in
#: descending lexicographic order.
RELATION_MONOMIALS: tuple[tuple[int, int, int, int], ...] = ((0, 0, 0, 2),) + tuple(
    sorted(
        (
            (a, b, c, 0)
            for a in range(10)
            for b in range(5)
            for c in range(4)
            if 4 * a + 8 * b + 12 * c == 36
        ),
        reverse=True,
    )
)


#: Random rational quintics sampled by ``find_fundamental_relation``: well
#: above the 13 candidate monomials, so the null space holds true relations only.
RELATION_SAMPLES = 24


def find_fundamental_relation(seed: int = 0) -> list[Fraction]:
    """The unique degree-36 relation among the generators, up to scale.

    Evaluates the 13 candidate monomials (see RELATION_MONOMIALS) on random
    rational quintics and computes the exact null space, which must be
    one-dimensional; returned normalised so the I18^2 coefficient is 1.
    """
    import random

    rng = random.Random(seed)
    from .linalg import nullspace

    rows = []
    while len(rows) < RELATION_SAMPLES:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        if all(c == 0 for c in coeffs):
            continue
        iv = invariants(BinaryQuintic(QQ, coeffs))
        row = []
        for e4, e8, e12, e18 in RELATION_MONOMIALS:
            row.append(iv.i4**e4 * iv.i8**e8 * iv.i12**e12 * iv.i18**e18)
        rows.append(row)
    basis = nullspace(rows)
    if len(basis) != 1:
        raise ArithmeticError(
            f"null space dimension {len(basis)} != 1: invariant implementation broken"
        )
    vec = basis[0]
    if vec[0] == 0:
        raise ArithmeticError("relation does not involve I18^2: generators degenerate")
    scale = 1 / vec[0]
    return [c * scale for c in vec]
