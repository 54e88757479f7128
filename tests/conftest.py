"""Shared fixtures and references: the frozen generic quintic, the Fermat
quintic, a quintic with a flex-bitangent and one with a contact-4
hyperflex, identity-frame charts, j of a cross-ratio, interpolation through
arbitrary nodes, the evaluation and the substitution of a sparse
polynomial, the arc test suite, the evaluation of a degree-36 invariant
relation, frames through a given point, and the singular check by
dynamic evaluation in a residue ring that splits its modulus on a zero
divisor."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from quintic_moduli import ArcSpec, LineChart, PlaneCurve
from quintic_moduli.arc_limits import BITS
from quintic_moduli.elimination import _gcd_cofactor, gcd_uni
from quintic_moduli.invariants import RELATION_MONOMIALS, InvariantVector
from quintic_moduli.plane_curves import frame_determinant
from quintic_moduli.polys import MultiPoly, UniPoly, powers
from quintic_moduli.residue_rings import ResidueRing
from quintic_moduli.scalars import QQ, Field, PrimeField

REPO_ROOT = Path(__file__).resolve().parent.parent
CURVES_DIR = REPO_ROOT / "curves"

#: Frozen generic witness: random search certified this quintic smooth with
#: 45 distinct honest flexes over both acceptance primes.
GENERIC_QUINTIC_RECORDS = [
    [4, 1, 0, "-3"], [4, 0, 1, "6"], [3, 2, 0, "9"], [3, 1, 1, "7"],
    [2, 3, 0, "-8"], [2, 2, 1, "-1"], [2, 1, 2, "3"], [2, 0, 3, "-6"],
    [1, 4, 0, "4"], [1, 3, 1, "-9"], [1, 2, 2, "-6"], [1, 1, 3, "4"],
    [1, 0, 4, "9"], [0, 5, 0, "-8"], [0, 4, 1, "6"], [0, 3, 2, "-9"],
    [0, 2, 3, "2"], [0, 1, 4, "-8"], [0, 0, 5, "1"],
]

ACCEPTANCE_PRIMES = (10007, 3001)
#: primes at the edges of the packed kernels' slot widths: 1482907 is the
#: last prime whose remainder sequences run in 64-bit slots and 1482919 the
#: first at 128 bits; the others span the primes the gates run at
BARRETT_EDGE_PRIMES = (2503, 10007, 1000003, 1482907, 1482919, 2**31 - 1, 2**61 - 1, 2**89 - 1)


@pytest.fixture(scope="session")
def generic_quintic() -> PlaneCurve:
    return PlaneCurve.from_records(GENERIC_QUINTIC_RECORDS)


def fermat_quintic() -> PlaneCurve:
    """x^5 + y^5 + z^5 over QQ."""
    one = QQ.one
    return PlaneCurve(MultiPoly(QQ, 3, {(5, 0, 0): one, (0, 5, 0): one, (0, 0, 5): one}))


#: x^3 (x - z)^2 + y G(x, y, z): the tangent y = 0 at the flex (0 : 0 : 1)
#: touches the curve again at (1 : 0 : 1), so one of the 45 flexes fails
#: the probe, which counts it off by a gcd over GF(p).
FLEX_BITANGENT_RECORDS = [
    [5, 0, 0, "1"], [4, 1, 0, "-6"], [4, 0, 1, "-2"], [3, 2, 0, "8"],
    [3, 1, 1, "3"], [3, 0, 2, "1"], [2, 3, 0, "-2"], [2, 2, 1, "6"],
    [2, 1, 2, "2"], [1, 4, 0, "-6"], [1, 3, 1, "-4"], [1, 2, 2, "-8"],
    [1, 1, 3, "-2"], [0, 5, 0, "5"], [0, 4, 1, "-9"], [0, 3, 2, "7"],
    [0, 2, 3, "2"], [0, 1, 4, "-1"],
]


def contact_four_hyperflex(seed: int) -> PlaneCurve:
    """x^4 (x - 2z) + y G(x, y, z), G a seeded random quartic: the tangent
    y = 0 at (0 : 0 : 1) meets the curve there with contact order 4."""
    rng = random.Random(seed)
    terms = {(5, 0, 0): Fraction(1), (4, 0, 1): Fraction(-2)}
    for i in range(5):
        for k in range(5 - i):
            c = rng.randint(-9, 9)
            if c:
                terms[(i, 5 - i - k, k)] = Fraction(c)  # y * x^i y^(4-i-k) z^k
    return PlaneCurve(MultiPoly(QQ, 3, terms))


class SplitNeeded(Exception):
    """A zero divisor of a ``SplittingRing``; ``factor`` properly divides the modulus."""

    def __init__(self, factor: UniPoly):
        super().__init__(f"modulus splits off a degree-{factor.degree} factor")
        self.factor = factor


class SplittingRing(ResidueRing):
    """A ``ResidueRing`` whose ``inv`` raises ``SplitNeeded`` with the gcd of
    a zero divisor and h: dynamic evaluation (Della Dora, Dicrescenzo &
    Duval, EUROCAL '85), the tests' reference for deciding a question at
    every root of h by splitting h where a case distinction is forced."""

    def inv(self, a):
        d, _ = _gcd_cofactor(a, self.modulus)
        if 0 < d.degree < self.degree:
            raise SplitNeeded(d)
        return super().inv(a)


def zpoly_over(ring: ResidueRing, bivar: MultiPoly) -> UniPoly:
    """A (u, z) polynomial as a z-polynomial with residue coefficients."""
    n = max(map(max, bivar.terms), default=0) + 1
    rows = [[ring.base.zero] * n for _ in range(n)]
    for (i, k), c in bivar.terms.items():
        rows[k][i] = c
    return UniPoly(ring, [ring.reduce(UniPoly(ring.base, row)) for row in rows])


def each_factor(modulus: UniPoly, check):
    """(h, check(SplittingRing(h))) over the factors h of the modulus that the
    ``SplitNeeded`` escapes of ``check`` expose, lazily and in order."""
    ring = SplittingRing(modulus)
    try:
        result = check(ring)
    except SplitNeeded as split:
        for part in (split.factor, ring.modulus // split.factor):
            yield from each_factor(part.monic(), check)
    else:
        yield modulus, result


def singular_by_splitting(polys, modulus: UniPoly) -> bool:
    """Whether F, F_x and F_z at y = 1 share a zero above a root of the
    modulus, by their gcd over ``SplittingRing``s: the modulus is split
    wherever a division of the gcd meets a zero divisor."""

    def common_zero(ring: ResidueRing) -> bool:
        return reduce(gcd_uni, (zpoly_over(ring, p) for p in polys)).degree >= 1

    return any(found for _, found in each_factor(modulus, common_zero))


def frame_with_third_column(field: PrimeField, point, seed: int = 0):
    """A random invertible frame whose third column is ``point``: framed
    (0 : 0 : 1) maps to it."""
    rng = random.Random(seed)
    while True:
        columns = [[field.from_int(rng.randrange(field.p)) for _ in range(3)] for _ in range(2)]
        frame = tuple(zip(*columns, point))
        if not field.is_zero(frame_determinant(frame, field)):
            return frame


def identity_chart(field: Field, a, b) -> LineChart:
    """The chart z = a x + b y in the identity frame."""
    one, zero = field.one, field.zero
    return LineChart(field, ((one, zero, zero), (zero, one, zero), (zero, zero, one)), a, b)


def j_from_cross_ratio(lam, field: Field = QQ):
    """j of four points with cross-ratio lam: 256 (lam^2-lam+1)^3 / (lam^2 (lam-1)^2).

    Constant on the six-element cross-ratio orbit; lam in {0, 1} is rejected
    (degenerate quadruple).
    """
    F = field
    if F.is_zero(lam) or F.is_zero(F.reduce(lam - F.one)):
        raise ValueError("cross-ratio 0 or 1 does not define four distinct points")
    s = lam * lam - lam + F.one
    den = F.reduce(lam * lam * (lam - F.one) * (lam - F.one))
    return F.reduce(F.from_int(256) * s * s * s * F.inv(den))


def newton_interpolation(samples, field: PrimeField) -> UniPoly:
    """The polynomial of degree < n through n (x, v) pairs, the x distinct
    mod p, in any order: O(n**2) divided differences (Newton form), then
    expansion to monomials by Horner.  The reference for interpolation on
    nodes that ``polys.interpolate`` does not take."""
    p = field.p
    xs = [x % p for x, _ in samples]
    dd = [v % p for _, v in samples]
    n = len(dd)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * pow(xs[i] - xs[i - level], -1, p) % p
    coeffs: list[int] = []
    for k in range(n - 1, -1, -1):  # coeffs <- coeffs * (x - x_k) + dd[k]
        shifted = [dd[k]] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= xs[k] * c
        coeffs = [c % p for c in shifted]
    return UniPoly(field, coeffs)


def evaluate(poly: MultiPoly, point):
    """Exact value of a ``MultiPoly`` at a point, one scalar per variable:
    the reference evaluation, with a power table per coordinate."""
    if len(point) != poly.arity:
        raise ValueError(f"point arity {len(point)} does not match polynomial arity {poly.arity}")
    F = poly.field
    rows = [powers(F, x, max(poly.degree_in(i), 0)) for i, x in enumerate(point)]
    acc = F.zero
    for e, c in poly.terms.items():
        for row, k in zip(rows, e):
            if k:
                c = F.reduce(c * row[k])
        acc += c
    return F.reduce(acc)


def compose(poly: MultiPoly, args) -> MultiPoly:
    """``poly`` with ``args[i]`` substituted for variable i, by sparse
    products (the args share one field and arity): the reference frame
    change and substitution."""
    if len(args) != poly.arity:
        raise ValueError("one substitution polynomial required per variable")
    F, arity = poly.field, args[0].arity
    if any(g.field is not F or g.arity != arity for g in args):
        raise ValueError("substitution polynomials must share field and arity")
    tables = [[MultiPoly.constant(F, arity, F.one)] for _ in args]  # g**0, g**1, ...
    acc = MultiPoly.zero(F, arity)
    for e, c in poly.sorted_terms():
        term = MultiPoly.constant(F, arity, c)
        for g, table, k in zip(args, tables, e):
            while len(table) <= k:
                table.append(table[-1] * g)
            if k:
                term = term * table[k]
        acc = acc + term
    return acc


def relation_value(iv: InvariantVector, coefficients):
    """Evaluate a degree-36 relation vector (rational coefficients) on iv."""
    R = iv.ring
    acc = R.zero
    for (e4, e8, e12, e18), c in zip(RELATION_MONOMIALS, coefficients):
        if c == 0:
            continue
        acc += (
            R.from_fraction(Fraction(c))
            * R.pow(iv.i4, e4) * R.pow(iv.i8, e8) * R.pow(iv.i12, e12) * R.pow(iv.i18, e18)
        )
    return R.reduce(acc)


def to_fixed(z, bits: int = BITS):
    """An mpmath number (or a float) as the arc oracle's complex fixed-point
    pair: real and imaginary part as ints scaled by 2**bits, rounded down."""
    import mpmath as mp

    z = mp.convert(z)  # no rounding to the working precision
    return mp.libmp.to_fixed(z.real._mpf_, bits), mp.libmp.to_fixed(z.imag._mpf_, bits)


def from_fixed(z, bits: int = BITS):
    """A fixed-point pair as an mpc rounded to the working precision."""
    import mpmath as mp

    return mp.mpc(mp.mpf((z[0], -bits)), mp.mpf((z[1], -bits)))


def _nonzero(rng, lo=-6, hi=6) -> Fraction:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return Fraction(v)


def make_arc_suite(count: int = 100, seed: int = 42) -> list[ArcSpec]:
    """Deterministic arcs spanning all four limit regimes (moderate exponents)."""
    rng = random.Random(seed)
    arcs = []
    for trial in range(count):
        case = trial % 4
        if case == 0:  # beta-dominant: m <= n
            m = rng.randint(1, 3)
            n = rng.randint(m, 4)
            alpha = [Fraction(0)] * n + [Fraction(rng.randint(-6, 6))] + [
                Fraction(rng.randint(-3, 3)) for _ in range(2)
            ]
            beta = [Fraction(0)] * m + [_nonzero(rng)] + [
                Fraction(rng.randint(-3, 3)) for _ in range(2)
            ]
        elif case == 1:  # alpha-dominant: beta == 0 or m >= 2n
            n = rng.randint(1, 3)
            alpha = [Fraction(0)] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
            if rng.random() < 0.4:
                beta = []
            else:
                m = rng.randint(2 * n, 2 * n + 2)
                beta = [Fraction(0)] * m + [_nonzero(rng)]
        elif case == 2:  # intermediate: n < m < 2n off the balance line
            while True:
                n = rng.randint(2, 4)
                m = rng.randint(n + 1, 2 * n - 1)
                if 2 * m != 3 * n:
                    break
            alpha = [Fraction(0)] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
            beta = [Fraction(0)] * m + [_nonzero(rng)]
        else:  # balanced: (n, m) = (2k, 3k), including engineered degeneracies
            k = rng.randint(1, 2)
            a0, b0 = _nonzero(rng), _nonzero(rng)
            if rng.random() < 0.2:
                c = rng.choice([1, 2, -1])
                a0, b0 = Fraction(3 * c * c), Fraction(2 * c**3)  # 4 a0^3 = 27 b0^2
            alpha = [Fraction(0)] * (2 * k) + [a0]
            beta = [Fraction(0)] * (3 * k) + [b0]
        arcs.append(ArcSpec(alpha, beta))
    return arcs
