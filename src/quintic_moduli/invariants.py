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

The pinning constants are solved, exactly and once per process, from the
symbolic family (never hand-entered); the solved identities are rechecked
coefficient-by-coefficient.  I18 never enters any degree computation and
keeps the raw chain scale.

In this normalisation the locus of quintics with a repeated root is cut
out by I4^2 - 128*I8, and a quintic is unstable (some root of multiplicity
at least 3) exactly when all invariants vanish; the moduli space of stable
unordered quintuples is the weighted projective plane with weights (1, 2, 3)
via (I4 : I8 : I12).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .binary_forms import BinaryForm, BinaryQuintic, transvectant
from .elimination import gcd_uni
from .linalg import solve
from .polys import MultiPoly, PolynomialRing
from .scalars import QQ, Field, Ring


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
        return WPPoint(F, F.one, F.mul(F.pow(t, 2), self.w2), F.mul(F.pow(t, 3), self.w3))

    def __eq__(self, other):
        if not isinstance(other, WPPoint) or self.field is not other.field:
            return NotImplemented
        F = self.field
        u1, u2, u3 = self.coords()
        v1, v2, v3 = other.coords()
        c12 = F.sub(F.mul(F.pow(v1, 2), u2), F.mul(F.pow(u1, 2), v2))
        c13 = F.sub(F.mul(F.pow(v1, 3), u3), F.mul(F.pow(u1, 3), v3))
        c23 = F.sub(
            F.mul(F.pow(v2, 3), F.pow(u3, 2)), F.mul(F.pow(u2, 3), F.pow(v3, 2))
        )
        return F.is_zero(c12) and F.is_zero(c13) and F.is_zero(c23)

    def __hash__(self):
        raise TypeError("WPPoint is unhashable (equality is up to weighted rescaling)")

    def __repr__(self):
        return f"WPPoint({self.w1!r} : {self.w2!r} : {self.w3!r})"


@dataclass(frozen=True)
class Smooth5:
    """Stable quintuple of distinct points, recorded by its moduli point."""

    point: WPPoint


@dataclass(frozen=True)
class OneDouble:
    """One doubled point plus three simple ones; j of the reduced quadruple."""

    j: object


@dataclass(frozen=True)
class TwoDoubles:
    """Two doubled points (the j = infinity end of the discriminant curve)."""


ConfigClass = Union[Smooth5, OneDouble, TwoDoubles]


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


def raw_invariants(f: BinaryForm):
    """Unnormalised chain values (J4, J8, J12, J18)."""
    i, j, triple = _chain(f)
    return (*triple, _j18(f, i, j))


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


def _match_on_family(columns, target):
    """Exact coefficients x with sum x_j * columns[j] == target, verified."""
    monomials = set(target.terms)
    for col in columns:
        monomials |= set(col.terms)
    monomials = sorted(monomials)
    rows = [[col.terms.get(e, Fraction(0)) for col in columns] for e in monomials]
    rhs = [target.terms.get(e, Fraction(0)) for e in monomials]
    sol = solve(rows, rhs, QQ)
    check = columns[0].scale(sol[0])
    for x, col in zip(sol[1:], columns[1:]):
        check = check + col.scale(x)
    if check != target:
        raise ArithmeticError("invariant normalisation did not reproduce the closed forms")
    return sol


_NORMALISATION: dict | None = None


def _normalisation() -> dict:
    """Scale factors pinning (I4, I8, I12) to the family closed forms.

    Solved once per process by exact linear algebra on the symbolic family;
    a failure here means the covariant chain is broken.
    """
    global _NORMALISATION
    if _NORMALISATION is not None:
        return _NORMALISATION
    ring = PolynomialRing(QQ, 3)
    l, m, n = ring.variable(0), ring.variable(1), ring.variable(2)
    fam = family_quintic(ring)
    A4, A8, A12, _ = raw_invariants(fam)

    sigma1 = l + m + n
    sigma2 = m * n + n * l + l * m
    prod3 = l * m * n
    t4 = sigma2 * sigma2 - (prod3 * sigma1).scale(Fraction(4))
    t8 = prod3 * prod3 * sigma2
    t12 = (prod3 * prod3) * (prod3 * prod3)

    (s4,) = _match_on_family([A4], t4)
    u8, v8 = _match_on_family([A8, t4 * t4], t8)
    u12, v12, w12 = _match_on_family([A12, t4 * t4 * t4, t4 * t8], t12)
    _NORMALISATION = {"s4": s4, "u8": u8, "v8": v8, "u12": u12, "v12": v12, "w12": w12}
    return _NORMALISATION


def _normalise(R: Ring, J4, J8, J12):
    """(I4, I8, I12) from the chain values, by the pinned scale factors."""
    norm = _normalisation()
    i4 = R.mul(R.from_fraction(norm["s4"]), J4)
    i4sq = R.mul(i4, i4)
    i8 = R.add(
        R.mul(R.from_fraction(norm["u8"]), J8), R.mul(R.from_fraction(norm["v8"]), i4sq)
    )
    i12 = R.add(
        R.add(
            R.mul(R.from_fraction(norm["u12"]), J12),
            R.mul(R.from_fraction(norm["v12"]), R.mul(i4sq, i4)),
        ),
        R.mul(R.from_fraction(norm["w12"]), R.mul(i4, i8)),
    )
    return i4, i8, i12


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
    return R.sub(R.mul(iv.i4, iv.i4), R.mul(R.from_int(128), iv.i8))


def moduli_point(f: BinaryQuintic) -> WPPoint:
    """(I4 : I8 : I12) in the weighted plane; rejects unstable quintics."""
    if not isinstance(f.ring, Field):
        raise ValueError("moduli points need field coefficients")
    iv = invariants(f)
    R = iv.ring
    if R.is_zero(iv.i4) and R.is_zero(iv.i8) and R.is_zero(iv.i12):
        raise UnstableQuinticError(
            "quintic has a root of multiplicity >= 3; its moduli point is undefined"
        )
    return WPPoint(R, iv.i4, iv.i8, iv.i12)


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


def j_from_cross_ratio(lam, field: Field = QQ):
    """j of four points with cross-ratio lam: 256 (lam^2-lam+1)^3 / (lam^2 (lam-1)^2).

    Constant on the six-element cross-ratio orbit; lam in {0, 1} is rejected
    (degenerate quadruple).
    """
    F = field
    if F.is_zero(lam) or F.is_zero(F.sub(lam, F.one)):
        raise ValueError("cross-ratio 0 or 1 does not define four distinct points")
    num = F.add(F.sub(F.mul(lam, lam), lam), F.one)
    num = F.mul(F.from_int(256), F.pow(num, 3))
    den = F.mul(F.pow(lam, 2), F.pow(F.sub(lam, F.one), 2))
    return F.div(num, den)


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


def relation_value(iv: InvariantVector, coefficients):
    """Evaluate a degree-36 relation vector (rational coefficients) on iv."""
    R = iv.ring
    acc = R.zero
    for (e4, e8, e12, e18), c in zip(RELATION_MONOMIALS, coefficients):
        if c == 0:
            continue
        term = R.from_fraction(Fraction(c))
        term = R.mul(term, R.pow(iv.i4, e4))
        term = R.mul(term, R.pow(iv.i8, e8))
        term = R.mul(term, R.pow(iv.i12, e12))
        term = R.mul(term, R.pow(iv.i18, e18))
        acc = R.add(acc, term)
    return acc


def find_fundamental_relation(n_samples: int = 24, seed: int = 0) -> list[Fraction]:
    """The unique degree-36 relation among the generators, up to scale.

    Evaluates the 13 candidate monomials (see RELATION_MONOMIALS) on random
    rational quintics and computes the exact null space, which must be
    one-dimensional; returned normalised so the I18^2 coefficient is 1.
    """
    import random

    if n_samples < 20:
        raise ValueError("need at least 20 sample quintics")
    rng = random.Random(seed)
    from .linalg import nullspace

    rows = []
    while len(rows) < n_samples:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        if all(c == 0 for c in coeffs):
            continue
        iv = invariants(BinaryQuintic(QQ, coeffs))
        row = []
        for e4, e8, e12, e18 in RELATION_MONOMIALS:
            row.append(iv.i4**e4 * iv.i8**e8 * iv.i12**e12 * iv.i18**e18)
        rows.append(row)
    basis = nullspace(rows, QQ)
    if len(basis) != 1:
        raise ArithmeticError(
            f"null space dimension {len(basis)} != 1: invariant implementation broken"
        )
    vec = basis[0]
    if vec[0] == 0:
        raise ArithmeticError("relation does not involve I18^2: generators degenerate")
    scale = 1 / vec[0]
    return [c * scale for c in vec]
