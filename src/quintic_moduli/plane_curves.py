"""Plane quintics and their line geometry.

A plane curve is a homogeneous ternary form; lines are presented by charts
(an invertible coordinate frame plus slopes (a, b) selecting z' = a x' + b y'
in framed coordinates).  Restricting the curve to a chart yields a binary
quintic, whose moduli point is the value of the line-to-moduli map.  The
restriction is ``_restrict_through``: F(s P + t Q) for two points P, Q of
the line, by ``polys.line_restriction`` on the line solved for one
coordinate and one ``BinaryForm.substituted``.  A chart's line runs through
M (1, 0, a) and M (0, 1, b), so the curve is never framed to restrict it.
The frame change and the Hessian run over GF(p) only, as packed sums in a
``polys._KroneckerRing``.

``genericity_report`` decides, exactly over GF(p), the three conditions
the degree-420 count rests on: the curve is smooth, it has 45 distinct
inflection points, and at each of them the tangent meets the curve with
contact order exactly 3 and is tangent nowhere else.  Each random frame
computes one eliminant, R = Res_z(F, H) of the curve and its Hessian; a
frame degenerate for any step is redrawn, its cause noted
(``FrameRetryError``).  A singular point lies on H with multiplicity at
least 2 (a node absorbs 6 of the 3d(d - 2) = 45 intersections, a cusp 8),
so once R has its full degree 45 (every intersection affine in the frame)
the curve is smooth exactly when no repeated factor of R carries a common
zero of the partials, or of F, F_x and F_z at y = 1 (Euler's relation, p >
5).  That is decided by gcds over GF(p) of each repeated part of R with at
most six more eliminants, Res_z(F, F_x + lambda F_z) for lambda = 0..5
(``_certify_singular``), so a curve whose R is squarefree costs no
elimination beyond R.  One table of Taylor coefficients per frame
(``_taylor_tables``) gives these three and feeds the eliminant, the
singular check and the flex probe.  H = 0 (a cone) and R = 0 (F and H
share a component, for p > 5 a line or a multiple component) are singular
outright.  All flexes of a smooth curve are then handled at once by
computing in GF(p)[u] modulo each squarefree part h of R, so conjugate
flexes over extension fields are verified together: a residue class is
nonzero at deg h - deg gcd(h, class) of the roots.  The flex over a root u
of R is P = (u, 1, z0), z0 = -s0/s1 from the first subresultant S1 = s1 z
+ s0 of F and H, whose values at R's nodes come out of the remainder
sequences of R's samples.  The tangent at P is read at P and at its point
D = (-F_z(P), 0, F_x(P)): the contact order and a second tangency are the
coefficients of F(s P + t D), the Taylor coefficients of F at P towards D
and of F at D towards P, so no line is restricted.

The fiber oracle's flex lines (``fiber_counting.flex_lines``) reuse the
certificate's frame set-up (``_flex_frame``) with its redraw rule and its
one decomposition of R, its powers of z0 (``_flex_point``) and its Taylor
sums (``_taylor_sum``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from math import comb
from typing import Sequence

from .binary_forms import BinaryForm, BinaryQuintic
from .elimination import (
    gcd_uni,
    resultant_bivar_elim,
    squarefree_decomposition,
)
from .polys import (
    MultiPoly,
    UniPoly,
    _KroneckerRing,
    interpolate,
    line_restriction,
    powers,
)
from .residue_rings import ResidueRing
from .scalars import GF, QQ, Field, PrimeField, Ring


class LineInCurveError(ValueError):
    """The chart's line is contained in the curve (restriction vanished)."""


class FrameRetryError(Exception):
    """The random draw was degenerate for this computation; carries the cause."""


class PlaneCurve:
    """Homogeneous ternary form of degree d (d = 5 for the quintic case)."""

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MultiPoly):
        if poly.arity != 3:
            raise ValueError("a plane curve is a ternary form")
        if poly.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        degrees = {sum(e) for e in poly.terms}
        if len(degrees) != 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degrees)}")
        self.poly = poly
        self.degree = degrees.pop()

    @property
    def field(self) -> Field:
        return self.poly.field

    @classmethod
    def from_records(cls, records: Sequence) -> "PlaneCurve":
        """Build a rational curve from [i, j, k, coefficient] records.

        The form must be homogeneous.  Exponents are non-negative ints;
        coefficients are ints, Fractions or rational strings like "3/4".
        Anything else (a float, a bool, a record of another shape) raises
        ValueError: a curve is never read inexactly.
        """
        if not isinstance(records, (list, tuple)):
            raise ValueError("a curve is a list of [i, j, k, coefficient] records")
        terms: dict[tuple, object] = {}
        for rec in records:
            if not isinstance(rec, (list, tuple)) or len(rec) != 4:
                raise ValueError(f"curve record {rec!r} is not a list [i, j, k, coefficient]")
            i, j, k, c = rec
            if any(type(x) is not int or x < 0 for x in (i, j, k)):
                raise ValueError(f"exponents must be non-negative integers in record {rec!r}")
            if type(c) not in (int, str, Fraction):
                raise ValueError(
                    f"coefficient must be an integer or a rational string in record {rec!r}"
                )
            try:
                value = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad coefficient in record {rec!r}: {exc}") from None
            e = (i, j, k)
            terms[e] = terms.get(e, QQ.zero) + value
        return cls(MultiPoly(QQ, 3, terms))

    def reduce_mod(self, target: PrimeField) -> "PlaneCurve":
        """Reduction of a rational curve modulo p; a curve over ``target`` is kept."""
        if self.field is target:
            return self
        if self.field is not QQ:
            raise ValueError(f"cannot reduce a curve over {self.field!r} to {target!r}")
        reduced = self.poly.map_coefficients(target, target.from_fraction)
        if reduced.is_zero():
            raise ValueError(f"curve vanishes modulo {target.p}")
        return PlaneCurve(reduced)

    def composed_with_frame(self, frame: Sequence[Sequence]) -> "PlaneCurve":
        """The curve in framed coordinates, F(M . (x', y', z')), over GF(p).

        One packed sum of c * l0**i * l1**j * l2**k over the terms c x**i
        y**j z**k (Kronecker substitution): l_r = M[r][0] x' + M[r][1] y' +
        M[r][2] is the frame's r-th linear form at z' = 1, an element of a
        ``_KroneckerRing`` of stride d + 1, and the sum is grouped by the
        power of l0.  No slot passes #terms (p - 1) (3 (p - 1))**d, the
        ring's bound, and each is taken mod p once.  Other fields raise
        ``ValueError``.
        """
        F = self.field
        if not isinstance(F, PrimeField):
            raise ValueError(f"the frame change runs over a prime field, not {F!r}")
        p, d = F.p, self.degree
        ring = _KroneckerRing(p, d + 1, len(self.poly.terms) * (p - 1) * (3 * (p - 1)) ** d)
        w = ring.width
        tables = []
        for row in frame:
            linear = row[2] % p | row[1] % p << w | row[0] % p << w * ring.stride
            table = [1]
            for _ in range(d):
                table.append(table[-1] * linear)
            tables.append(table)
        t0, t1, t2 = tables
        by_i: dict[int, int] = {}  # the sum grouped by the power of l0
        for (i, j, k), c in self.poly.terms.items():
            by_i[i] = by_i.get(i, 0) + c * t2[k] * t1[j]
        framed = ring.terms(sum(t0[i] * v for i, v in by_i.items()))
        return PlaneCurve(MultiPoly(F, 3, {(i, j, d - i - j): c for (i, j), c in framed.items()}))

    def __eq__(self, other):
        return isinstance(other, PlaneCurve) and self.poly == other.poly

    def __repr__(self):
        return f"PlaneCurve(degree={self.degree}, {len(self.poly.terms)} terms)"


def _det3(m: Sequence[Sequence]):
    """Cofactor expansion of a 3x3 determinant, with the entries' own ``+ - *``."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def frame_determinant(frame: Sequence[Sequence], field: Field):
    return field.reduce(_det3(frame))


class LineChart:
    """A line presented as z' = a x' + b y' in an invertible coordinate frame.

    The frame maps framed coordinates to ambient ones; the chart's line is
    the image of {(s, t, a s + b t)}.
    """

    __slots__ = ("field", "frame", "a", "b")

    def __init__(self, field: Field, frame: Sequence[Sequence], a, b):
        frame = tuple(tuple(row) for row in frame)
        if len(frame) != 3 or any(len(r) != 3 for r in frame):
            raise ValueError("frame must be a 3x3 matrix")
        if field.is_zero(frame_determinant(frame, field)):
            raise ValueError("frame is not invertible")
        self.field = field
        self.frame = frame
        self.a = a
        self.b = b


def restrict_to_line(curve: PlaneCurve, chart: LineChart) -> BinaryQuintic:
    """The binary quintic cut on the chart's line by a degree-5 curve.

    Its coefficients are ascending in y': the framed curve restricted to
    z' = a x' + b y', which is F(s P + t Q) for the line's points P = M (1,
    0, a) and Q = M (0, 1, b), the curve itself never framed.
    """
    if curve.degree != 5:
        raise ValueError("restriction to a binary quintic needs a degree-5 curve")
    F = curve.field
    if F is not chart.field:
        raise ValueError("curve and chart live over different fields")
    M, a, b = chart.frame, chart.a, chart.b
    P = [F.reduce(row[0] + row[2] * a) for row in M]
    Q = [F.reduce(row[1] + row[2] * b) for row in M]
    ell = [F.reduce(P[r - 2] * Q[r - 1] - P[r - 1] * Q[r - 2]) for r in range(3)]  # P x Q
    v = next(v for v in (2, 0, 1) if not F.is_zero(ell[v]))  # M invertible: ell != 0
    coeffs = _restrict_through(curve.poly, F, ell, v, P, Q).coeffs
    if all(F.is_zero(c) for c in coeffs):
        raise LineInCurveError(
            "restriction vanished identically: the line lies on the curve"
        )
    return BinaryQuintic(F, coeffs)


def _restrict_through(
    poly: MultiPoly, ring: Ring, ell: Sequence, v: int, P: Sequence, Q: Sequence
) -> BinaryForm:
    """F(s P + t Q) as a binary form in (s, t), coefficients ascending in t,
    for P and Q on the line ell . x = 0 with ell[v] a unit of ``ring``.

    The line is x_v = a x_o1 + b x_o2 with a = -ell[o1] / ell[v] and b =
    -ell[o2] / ell[v] (the inverse raises ``ZeroDivisionError`` when ell[v]
    is not a unit); ``polys.line_restriction`` gives F there in (x_o1,
    x_o2), and one ``BinaryForm.substituted`` puts in x_o1
    = P[o1] s + Q[o1] t and x_o2 = P[o2] s + Q[o2] t.  Only the coordinates
    o1 and o2 of P and Q are read: the line fixes the third.
    """
    o1, o2 = (o for o in range(3) if o != v)
    pivot = ring.reduce(-ring.inv(ell[v]))
    d = max(sum(e) for e in poly.terms)
    a, b = (powers(ring, ring.reduce(ell[o] * pivot), d) for o in (o1, o2))
    on_line = BinaryForm(ring, [ring.reduce(c) for c in line_restriction(poly.terms, v)(a, b)])
    return on_line.substituted(((P[o1], Q[o1]), (P[o2], Q[o2])))


def _hessian_form(poly: MultiPoly) -> MultiPoly:
    """Determinant of the matrix of second partials over GF(p), a form of
    degree D = 3(d - 2), at y = 1: a polynomial in (x, z); zero for a cone.

    The six distinct second partials H_rc, at z = 1, are elements of a
    ``_KroneckerRing`` of stride D + 1, each term placed by one shift, and
    the determinant is A - B for the two nonnegative sums of triple
    products A = H00 H11 H22 + 2 H01 H12 H02 and B = H00 H12**2 + H11
    H02**2 + H22 H01**2 (the matrix is symmetric).  No slot of A or B
    passes 3 T**2 (p - 1)**3, T = d(d - 1)/2 being the most terms a partial
    has, so neither does a slot of A - B: that is the ring's bound, and
    its ``terms`` reads the residues of A - B, x**i z**(D - i - j) at y = 1
    in slot (i, j).
    """
    F = poly.field
    if not isinstance(F, PrimeField):
        raise ValueError(f"the Hessian is formed over a prime field, not {F!r}")
    p = F.p
    d = max((sum(e) for e in poly.terms), default=0)
    degree = 3 * max(d - 2, 0)
    ring = _KroneckerRing(p, degree + 1, 3 * (d * (d - 1) // 2) ** 2 * (p - 1) ** 3)
    w, stride = ring.width, ring.stride
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
    h = dict.fromkeys(pairs, 0)
    for e, c in poly.terms.items():
        for r, s in pairs:
            weight = e[r] * (e[s] - (r == s))
            if weight:
                i, j = e[0] - (r == 0) - (s == 0), e[1] - (r == 1) - (s == 1)
                h[r, s] += (c * weight % p) << w * (i * stride + j)
    h00, h11, h22, h01, h12, h02 = h.values()
    a = h00 * h11 * h22 + 2 * h01 * h12 * h02
    b = h00 * h12 * h12 + h11 * h02 * h02 + h22 * h01 * h01
    terms = ring.terms(a - b)
    return MultiPoly(F, 2, {(i, degree - i - j): c for (i, j), c in terms.items()})


# ---------------------------------------------------------------------------
# genericity certificate


@dataclass
class GenericityReport:
    """Outcome of the exact genericity checks over GF(prime)."""

    prime: int
    seed: int
    smooth: bool
    flex_cycle_ok: bool  # intersection with the hessian has full degree 45
    distinct_flex_count: int
    flexes_verified: int  # contact exactly 3 and no extra tangency, per flex
    flex_total: int
    frames_tried: int
    notes: list[str] = dc_field(default_factory=list)

    @property
    def higher_flex_ok(self) -> bool:
        return (
            self.distinct_flex_count == self.flex_total
            and self.flexes_verified == self.flex_total
        )

    @property
    def generic(self) -> bool:
        return self.smooth and self.flex_cycle_ok and self.higher_flex_ok


def random_invertible_frame(field: PrimeField, rng: random.Random):
    while True:
        frame = tuple(
            tuple(field.from_int(rng.randrange(field.p)) for _ in range(3))
            for _ in range(3)
        )
        if not field.is_zero(frame_determinant(frame, field)):
            return frame


def _flex_point(shape: Sequence[UniPoly], modulus: UniPoly) -> tuple[ResidueRing, list[int]]:
    """(GF(p)[u]/(h), the ``_power_table`` of z0) for a squarefree part h
    of the flex eliminant: z0 = -s0/s1, packed in the ring, is the
    z-coordinate of the flex (u, 1, z0) over every root u of h at once.

    ``shape`` is the pair (s0, s1) of the first subresultant S1 = s1(u) z +
    s0(u) of F and H at y = 1 (the shape lemma: S1 is a multiple of the gcd
    of F and H over u when that gcd is linear).  s1 vanishing at a root of
    h, so that its one inverse in the ring meets zero or a zero divisor,
    means two intersections of F and H share that root's fiber, and the
    frame is retried.
    """
    ring = ResidueRing(modulus)
    try:
        inverse = ring.inv(ring.reduce(shape[1]))
    except ZeroDivisionError:
        raise FrameRetryError(
            "two intersections share a flex fiber (s1 vanishes there); reframe"
        ) from None
    settle = ring.reduce_packed
    return ring, _power_table(ring, settle(settle(ring.pack(shape[0])) * ring.pack(-inverse)))


def _probe_flexes(tables: tuple[dict, tuple], shape: Sequence[UniPoly], modulus: UniPoly) -> int:
    """Contact-order check at every root of the squarefree flex modulus
    simultaneously: the number of roots whose flex is verified.

    ``tables`` are the ``_taylor_tables`` of the framed curve F and
    ``shape`` the pair (s0, s1) of the first subresultant of F and H at y =
    1.  Over a root u of the modulus the flex is P = (u, 1, z0), z0 =
    -s0/s1 (``_flex_point``, which retries the frame where s1 meets a zero
    divisor).

    With l = grad F(P), the point D = l x e_y = (-l_z, 0, l_x) lies on the
    tangent line l . x = 0.  D is not 0: l_x = l_z = 0 would give l_y = 0
    by Euler's relation x F_x + y F_y + z F_z = 5 F, as F(P) = 0 and P has
    y = 1, and the probe runs on a curve certified smooth.  P has y = 1 and
    D has y = 0, so they span the tangent, and with c_k at s^(5-k) t^k in
    F(s P + t D):

      c0 = F(P), c1 = l . D = 0 identically, c2 = D^T grad^2 F(P) D / 2,
      c3 = P^T grad^2 F(D) P / 2, c4 = P . grad F(D), c5 = F(D),

    the Taylor coefficients of F at P in the direction D and of F at D in
    the direction P (``_tangent_coefficients``).  Contact is at least 3
    iff c0 = c2 = 0, and exactly 3 with no second tangency iff c3 (c4^2 -
    4 c3 c5) is nonzero, which is invariant under any other choice of the
    second point.  The modulus h being squarefree, the roots where c0 and
    c2 vanish are those of g = gcd(h, c0, c2), and those of g where a class
    does not vanish number deg g - deg gcd(g, class), so conjugate flexes
    count together and h is never split.
    """
    ring, zs = _flex_point(shape, modulus)
    p, settle = ring.base.p, ring.reduce_packed
    c0, c2, c3, c4, c5 = _tangent_coefficients(tables, ring, zs)
    contact = reduce(gcd_uni, (ring.unpack(c) for c in (c0, c2) if c), ring.modulus)
    discriminant = settle(c4 * c4 + (-4 % p) * settle(c3 * c5))
    return contact.degree - gcd_uni(contact, ring.unpack(settle(c3 * discriminant))).degree


#: The directions (a, b) of the Taylor coefficients the probe reads, up to
#: order 2: F(P + t D) needs them at P, and F(D + s P) at D.
_DIRECTIONS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _taylor_tables(poly: MultiPoly) -> tuple[dict, tuple]:
    """(at_point, polar): coefficient tables of a framed quintic F for the
    flex probe.

    ``at_point[a, b]`` maps (e1, e2) to C(i, a) C(k, b) c summed over the
    terms c x^i y^j z^k with (i - a, k - b) = (e1, e2): the Taylor
    coefficient of order (a, b) of f(x, z) = F(x, 1, z) at (x, z), the
    coefficient of t^a r^b in f(x + t, z + r), is the sum of its entries
    times x^e1 z^e2.  ``polar[t]`` maps each (a, b) with a + b <= t to the
    same table of the terms with j = t - a - b only: for P = (x, 1, z) and
    D = (D_x, 0, D_z), the coefficient of s^t in F(D + s P) is the sum over
    (a, b) of x^a z^b times that table's sum at (D_x, D_z).
    """
    p = poly.field.p
    at_point = {d: {} for d in _DIRECTIONS}
    polar = tuple({} for _ in range(3))
    for (i, j, k), c in poly.terms.items():
        for a, b in _DIRECTIONS:
            if a <= i and b <= k:
                weight = c * comb(i, a) * comb(k, b) % p
                key = (i - a, k - b)
                tables = [at_point[a, b]]
                if a + b + j <= 2:
                    tables.append(polar[a + b + j].setdefault((a, b), {}))
                for table in tables:
                    table[key] = (table.get(key, 0) + weight) % p
    return at_point, polar


def _power_table(ring: ResidueRing, x: int) -> list[int]:
    """[1, x, ..., x**5] for a packed class x, each power canonical."""
    out = [1, x]
    for _ in range(4):
        out.append(ring.reduce_packed(out[-1] * x))
    return out


def _taylor_sum(ring: ResidueRing, table: dict, zs: Sequence[int]) -> int:
    """The sum of a ``_taylor_tables`` entry at (u, z0), u the ring's
    generator and ``zs`` the ``_power_table`` of z0: at most 21 products of
    a residue and a canonical class, so within ``reduce_packed``'s bound."""
    w = ring.width
    return ring.reduce_packed(sum(c * zs[e2] << w * e1 for (e1, e2), c in table.items()))


def _tangent_coefficients(tables: tuple[dict, tuple], ring: ResidueRing, zs: Sequence[int]):
    """(c0, c2, c3, c4, c5) of F(s P + t D) over ``ring``, for P = (u, 1, z0)
    and D = (-l_z, 0, l_x), l = grad F(P), u the ring's generator.

    Every class is packed in the ring's slots (``ResidueRing.pack``): z0's
    ``_power_table`` ``zs`` comes in canonical and the coefficients go out
    canonical, and each sum or product is reduced by ``ResidueRing.reduce_packed``, whose slot bound
    6 (n + 4)(p - 1)**2 (n the modulus degree) holds every one of them.  A
    product of two classes takes at most n products of residues per slot;
    a Taylor sum at P at most 21, one per exponent pair (e1, e2) with e1 +
    e2 <= 5; the polar sums at D at most 6, one per (e1, e2) with e1 + e2 =
    5 - t, and these are reduced mod p before they multiply a power of z0.
    So c2, a sum of three products of classes, takes at most 3n, and c3,
    c4 and c5, sums of at most six (a, b) with a + b <= 2, at most 6n.
    Multiplying by u is a shift of one slot.
    """
    at_point, polars = tables
    p, w, settle = ring.base.p, ring.width, ring.reduce_packed
    at = {d: _taylor_sum(ring, table, zs) for d, table in at_point.items()}
    dxs, dzs = _power_table(ring, settle((p - 1) * at[0, 1])), _power_table(ring, at[1, 0])
    monomials: dict = {}

    def monomial(e1: int, e2: int) -> int:
        if not (e1 and e2):
            return dzs[e2] if e2 else dxs[e1]
        if (e1, e2) not in monomials:
            monomials[e1, e2] = settle(dxs[e1] * dzs[e2])
        return monomials[e1, e2]

    def at_d(table: dict) -> int:
        return settle(sum(c * monomial(e1, e2) for (e1, e2), c in table.items()))

    c2 = settle(sum(monomial(a, b) * at[a, b] for a, b in _DIRECTIONS[3:]))
    c5, c4, c3 = (
        settle(sum(zs[b] * at_d(table) << w * a for (a, b), table in polar.items()))
        for polar in polars
    )
    return at[0, 0], c2, c3, c4, c5


def _certify_singular(polys: Sequence[MultiPoly], modulus: UniPoly) -> bool:
    """True iff F, F_x and F_z at y = 1 share a zero above some root of the
    modulus h, a repeated part of R of full degree 45: by Euler's relation
    x F_x + y F_y + z F_z = 5 F, for p > 5, exactly where the partials do.

    For lambda = 0, 1, ..., 5 in turn g = h is replaced by gcd(g, Res_z(F,
    G)), G = F_x + lambda F_z, and the curve is singular iff deg g >= 1 after
    all six.  At a root u0 of h, Res_z(F, G)(u0) is a power of F's z-lead,
    the nonzero constant F(0, 0, 1) (``_flex_frame``), times the product of
    G(u0, z_i) over the roots z_i of F(u0, z), a polynomial of degree at
    most 5 in lambda: it vanishes at six values of lambda only if it
    vanishes for every lambda, which happens iff some z_i is a common zero
    of F, F_x and F_z.  Each step is one ``resultant_bivar_elim`` of total
    degree 5 * 4 = 20.  A G free of z (F = A(x, y) + B(y, z - lambda x)
    gives G = A_x) leaves nothing to eliminate, and the frame is redrawn.
    """
    f, f_x, f_z = polys
    g = modulus
    for lam in range(6):
        polar = f_x + f_z.scale(lam)
        if polar.degree_in(1) <= 0:
            raise FrameRetryError(f"F_x + {lam} F_z is free of z; reframe")
        g = gcd_uni(g, resultant_bivar_elim(f, polar))
        if g.degree == 0:
            return False
    return True


def _flex_eliminant(curve_uz: MultiPoly, hess_uz: MultiPoly):
    """(R, (s0, s1)) for R = Res_z(F, H) of F and H at y = 1, F's z-lead
    the nonzero constant F(0, 0, 1), and the first subresultant S1 = s1 z +
    s0, whose node values come out of R's remainder sequences
    (``resultant_bivar_elim`` with ``subresultant``).

    Only the nodes that fix s0 and s1 are interpolated, 0..33 and 0..32 of
    R's 46.  In f and g, of total degrees m and n in (u, z), the coefficient
    of z^j has u-degree at most m - j and n - j.  At formal z-degrees a and
    b, s1 and s0 are the minors of the Sylvester rows z^k f (k < b - 1) and
    z^k g (k < a - 1) on the columns z^1..z^(a+b-2) and z^0, z^2..z^(a+b-2).
    The entry of row z^k f at column z^c has u-degree at most m + k - c (n
    + k - c for g), so a minor's is at most its rows' m + k and n + k
    summed less its columns' c summed: B (m - 1 - A) + A (n - 1) <= (m -
    1)(n - 1) = 32 for s1 (A = a - 1 <= m - 1, B = b - 1 <= n - 1), one
    more for s0.
    """
    flex_res, s0, s1 = resultant_bivar_elim(curve_uz, hess_uz, subresultant=True)
    bound = (curve_uz.total_degree - 1) * (hess_uz.total_degree - 1)  # deg s1 (see above)
    field = curve_uz.field
    return flex_res, (interpolate(s0[: bound + 2], field), interpolate(s1[: bound + 1], field))


#: Bezout: R = Res_z(F, H) of a quintic has degree deg F * deg H = 5 * 9.
_FLEX_TOTAL = 45


def _flex_frame(framed: PlaneCurve):
    """(tables, at_y1, parts, shape) of a framed quintic F over GF(p): its
    ``_taylor_tables``, F, F_x and F_z at y = 1 (the tables' entries (0,
    0), (1, 0) and (0, 1)), the squarefree parts of R = Res_z(F, H) with
    their multiplicities, none where R = 0, and S1's (s0, s1) from
    ``_flex_eliminant``.  The one set-up of a frame, and the one Yun
    decomposition of R, for the certificate and for the fiber oracle's
    flex lines (``fiber_counting.flex_lines``).  It redraws
    (``FrameRetryError``) a frame that puts (0 : 0 : 1) on the curve,
    before the Hessian: F's z-lead, the constant every elimination needs,
    is then 0.  So it does where R is nonzero but short of degree 45.
    """
    tables = _taylor_tables(framed.poly)
    at_y1 = [MultiPoly(framed.field, 2, tables[0][d]) for d in _DIRECTIONS[:3]]
    if (0, framed.degree) not in at_y1[0].terms:
        raise FrameRetryError("frame puts (0 : 0 : 1) on the curve; reframe")
    hess = _hessian_form(framed.poly)
    if hess.is_zero():  # a cone
        return tables, at_y1, [], None
    flex_res, shape = _flex_eliminant(at_y1[0], hess)
    if flex_res.is_zero():  # F and H share a component
        return tables, at_y1, [], None
    if flex_res.degree != _FLEX_TOTAL:
        raise FrameRetryError(f"flex eliminant degree {flex_res.degree} < {_FLEX_TOTAL}; reframe")
    return tables, at_y1, squarefree_decomposition(flex_res), shape


#: Random frames ``genericity_report`` tries before it gives up.
MAX_FRAMES = 6


def genericity_report(curve: PlaneCurve, prime: int, seed: int = 0) -> GenericityReport:
    """Run the three exact genericity checks over GF(prime).

    The curve must have degree 5 (rational curves are reduced mod p first).
    Random frames, drawn deterministically from the seed, are redrawn when
    ``_flex_frame``, the singular check or the flex probe finds them
    degenerate (``FrameRetryError``), and each cause is noted.
    """
    if curve.degree != 5:
        raise ValueError("genericity checks are for quintics")
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    rng = random.Random(seed)
    notes: list[str] = []
    for attempt in range(1, MAX_FRAMES + 1):
        frame = random_invertible_frame(field, rng)
        distinct = verified = 0
        try:
            tables, at_y1, parts, shape = _flex_frame(reduced.composed_with_frame(frame))
            # R = 0 is singular, and a singular point meets H twice: a repeated part
            smooth = bool(parts) and not any(
                _certify_singular(at_y1, part) for part, mult in parts if mult > 1
            )
            if smooth:
                distinct = sum(part.degree for part, _ in parts)
                verified = sum(_probe_flexes(tables, shape, part) for part, _ in parts)
            else:
                notes.append("curve is singular; flex analysis skipped")
        except FrameRetryError as exc:
            notes.append(f"frame {attempt}: {exc}")
            continue
        # a smooth curve only gets here once its flex eliminant has degree 45
        return GenericityReport(
            prime=prime,
            seed=seed,
            smooth=smooth,
            flex_cycle_ok=smooth,
            distinct_flex_count=distinct,
            flexes_verified=verified,
            flex_total=_FLEX_TOTAL,
            frames_tried=attempt,
            notes=notes,
        )
    raise RuntimeError(
        f"no usable frame in {MAX_FRAMES} attempts: " + "; ".join(notes)
    )


def load_curve(path) -> PlaneCurve:
    """Read a rational curve file: a JSON list of (i, j, k, coefficient) records."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    return PlaneCurve.from_records(records)
