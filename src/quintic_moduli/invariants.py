"""Invariants of binary quintics and the moduli of 5 points on a line.

The ring of invariants is generated in coefficient-degrees 4, 8, 12 and 18.
We build the generators from a fixed transvectant chain

    i = (f, f)_4    j = (i, f)_2    ell = (i*i, f)_4    q = (j, j)_2

    J4 = (i, i)_2   J8 = (q, i)_2   J12 = (q, q)_2      J18 = (j, ell^3)_3

(``_j18`` reads J18 as 36 j(ell1, -ell0) at ell = ell0 x + ell1 y), and
pin the scale of I4, I8, I12 so that on the three-parameter family

    l*x^5 + m*y^5 + n*(-x-y)^5

they take the classical closed forms

    I4  = (mn + nl + lm)^2 - 4 l m n (l + m + n)
    I8  = (l m n)^2 (mn + nl + lm)
    I12 = (l m n)^4.

The chain runs on ``binary_forms._transvectant_sums``, the transvectants
without their factorial scalings, in every ring: an invariant is a
homogeneous polynomial in the coefficients, so those scalings are
constants that the pinning absorbs.  Each pinning constant is one exact
ratio, solved once per process on the symbolic family (never
hand-entered): s = t / J at one monomial of the closed form t, with s*J =
t then rechecked coefficient by coefficient.  Divided by the products of
the scalings along their chains, (s4, s8, s12) are (-1/2, 1/8, 1/96), the
factors of the scaled chain.  I18 never enters any degree computation and
keeps the raw scaled chain's value: J18 times the product of the
``_transvectant_table`` scalings along its own chain, computed from the
table.

Over QQ, f = F / d with F the integer numerators; the chain runs on F over
the integers (``scalars.ZZ``), and since I_k is homogeneous of degree k,
I_k(f) = s_k J_k(F) / d**k is the one ``Fraction`` of each invariant.

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
from math import comb, lcm
from typing import Union

from .binary_forms import BinaryForm, BinaryQuintic, _transvectant_sums, _transvectant_table
from .polys import PolynomialRing
from .scalars import QQ, ZZ, Field, Ring


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
    """Covariants i, j and the chain values (J4, J8, J12): six unscaled
    transvectants."""
    i = _transvectant_sums(f, f, 4)
    j = _transvectant_sums(i, f, 2)
    q = _transvectant_sums(j, j, 2)
    J4 = _transvectant_sums(i, i, 2).coeffs[0]
    J8 = _transvectant_sums(q, i, 2).coeffs[0]
    J12 = _transvectant_sums(q, q, 2).coeffs[0]
    return i, j, (J4, J8, J12)


def _j18(f: BinaryForm, i: BinaryForm, j: BinaryForm):
    """J18 = (j, ell^3)_3 for ell = (i*i, f)_4 = ell0 x + ell1 y, from the
    chain's i and j, as 36 j(ell1, -ell0), without forming ell^3.

    Output 0 of ``_transvectant_table(3, 3, 3)`` sums over t + s = 3, and
    only r = t survives its falling factorials, so the weight is
    w(t, 3 - t) = (-1)^t 6 t! (3 - t)!.  With ell^3's coefficient
    C(3, t) ell0^t ell1^(3-t) at s = 3 - t, the sum is
    36 sum_t (-1)^t j_t ell0^t ell1^(3-t), taken with one ``reduce``.
    """
    l0, l1 = _transvectant_sums(i * i, f, 4).coeffs
    j0, j1, j2, j3 = j.coeffs
    return f.ring.reduce(36 * (l1 * l1 * (j0 * l1 - j1 * l0) + l0 * l0 * (j2 * l1 - j3 * l0)))


@functools.cache
def _i18_scale() -> Fraction:
    """I18's factor on J18, the raw scale of the chain of scaled
    transvectants: the product of the scalings along J18's chain, each
    covariant carrying its own scaling times its operands' products."""

    def scaling(m, n, k):
        return _transvectant_table(m, n, k)[1]

    i = scaling(5, 5, 4)
    j = scaling(2, 5, 2) * i
    ell = scaling(4, 5, 4) * i * i
    return scaling(3, 3, 3) * j * ell**3


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


#: Degrees of the three maps the Fermat line-to-moduli map factors through:
#: coordinatewise fifth power, elementary symmetric functions, and a
#: birational correction of the weighted plane.
FERMAT_FACTOR_DEGREES = (25, 6, 1)


def fermat_degree_factorization() -> int:
    """Verify the Fermat closed forms symbolically and return the degree 150.

    On the family l x^5 + m y^5 + n (-x-y)^5 the invariants must satisfy
    I4 = (mn+nl+lm)^2 - 4 l m n (l+m+n), I8 = (lmn)^2 (mn+nl+lm) and
    I12 = (lmn)^4 as polynomial identities in (l, m, n); restricting the
    Fermat quintic to the line with dual coordinates (a : b : c) realises
    this family, so its line-to-moduli map factors through maps of degrees
    25, 6 and 1.
    """
    ring = PolynomialRing(QQ, 3)
    if invariant_triple(family_quintic(ring)) != family_closed_forms(ring):
        raise ArithmeticError(
            "invariant normalisation broke the closed forms on the Fermat family"
        )
    degree = 1
    for d in FERMAT_FACTOR_DEGREES:
        degree *= d
    return degree


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
    """Scale factors (s4, s8, s12) with s*J equal to the family closed forms,
    for the unscaled chain values J.

    Solved once per process as exact ratios on the symbolic family; a
    failure here means the covariant chain is broken.
    """
    global _NORMALISATION
    if _NORMALISATION is None:
        ring = PolynomialRing(QQ, 3)
        chain = _chain(family_quintic(ring))[2]
        _NORMALISATION = tuple(map(_scale_factor, chain, family_closed_forms(ring)))
    return _NORMALISATION


def _chain_input(f: BinaryQuintic):
    """(F, d) with f = F / d: over QQ, F is f's integer numerators over ZZ;
    in any other ring F is f and d is 1."""
    if f.ring is QQ:
        coeffs, d = QQ.clear_denominators(f.coeffs)
        return BinaryForm(ZZ, coeffs), d
    return f, 1


def _normalise(R: Ring, d: int, values, scales):
    """The invariants s_k J_k / d**k of degree k = 4, 8, 12, 18 from the
    chain values J_k of F = d f: one ``Fraction`` each over QQ, the scale
    factors embedded by ``from_fraction`` in any other ring (there d = 1)."""
    if R is QQ:
        return tuple(
            Fraction(s.numerator * J, s.denominator * d**k)
            for s, J, k in zip(scales, values, (4, 8, 12, 18))
        )
    return tuple(R.reduce(R.from_fraction(s) * J) for s, J in zip(scales, values))


def invariants(f: BinaryQuintic) -> InvariantVector:
    """The normalised invariant quadruple (I4, I8, I12, I18) of a quintic."""
    F, d = _chain_input(f)
    i, j, triple = _chain(F)
    values = (*triple, _j18(F, i, j))
    scales = (*_normalisation(), _i18_scale())
    return InvariantVector(f.ring, *_normalise(f.ring, d, values, scales))


def invariant_triple(f: BinaryQuintic):
    """(I4, I8, I12) only; the lean path for moduli and fiber-counting loops."""
    F, d = _chain_input(f)
    return _normalise(f.ring, d, _chain(F)[2], _normalisation())


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
    from .elimination import gcd_uni  # loaded here: no other invariant needs it

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
    Each row is built from the invariants' integer numerators and
    denominators and cleared over one ``lcm`` (a row's scale leaves the
    null space unchanged); ``linalg.nullspace`` eliminates the first 13
    rows mod p and certifies its vector exactly on all 24, or eliminates
    over QQ.
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
        terms = []
        for exponents in RELATION_MONOMIALS:
            num = den = 1
            for value, e in zip(iv, exponents):
                if e:
                    num *= value.numerator**e
                    den *= value.denominator**e
            terms.append((num, den))
        d = lcm(*[den for _, den in terms])
        rows.append([num * (d // den) for num, den in terms])
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
