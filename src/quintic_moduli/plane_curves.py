"""Plane quintics and their line geometry.

A plane curve is a homogeneous ternary form; lines are presented by charts
(an invertible coordinate frame plus slopes (a, b) selecting z' = a x' + b y'
in framed coordinates).  Restricting the curve to a chart yields a binary
quintic, whose moduli point is the value of the line-to-moduli map.  Every
restriction to a line here, the chart's and the tangent line at each flex,
is ``_restrict_through``: F(s P + t Q) for two points P, Q of the line, by
``polys.line_restriction`` on the line solved for one coordinate and one
``BinaryForm.substituted``.  A chart's line runs through M (1, 0, a) and
M (0, 1, b), so the curve is never framed to restrict it.  The frame change
and the Hessian run over GF(p) only, as packed sums in a
``polys._KroneckerRing``.

``genericity_report`` decides, exactly over GF(p), the three conditions the
degree-420 count rests on: the curve is smooth, it has 45 distinct
inflection points, and at each of them the tangent meets the curve with
contact order exactly 3 and is tangent nowhere else.  Each random frame
computes one eliminant, R = Res_z(F, H) of the curve and its Hessian.  A
singular point lies on H with multiplicity at least 2 (a node absorbs 6 of
the 3d(d - 2) = 45 intersections, a cusp 8), so once R has its full degree
45 (every intersection affine in the frame) the curve is smooth exactly
when no repeated factor of R carries a common zero of the partials.  H = 0
(a cone) and R = 0 (F and H share a component, for p > 5 a line or a
multiple component) are singular outright.  All flexes of a smooth curve
are then handled at once by computing in GF(p)[u] modulo each squarefree
part of R (splitting it only when a zero divisor forces a case split), so
conjugate flexes over extension fields are verified together: one linear
substitution moves each flex to (1 : 0) on its tangent line, where the
coefficients of the restricted quintic read off the contact order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple, Sequence

from .binary_forms import BinaryForm, BinaryQuintic
from .elimination import (
    gcd_uni,
    resultant_bivar_elim,
    squarefree_decomposition,
)
from .invariants import family_closed_forms, family_quintic, invariant_triple
from .polys import (
    MultiPoly,
    PolynomialRing,
    UniPoly,
    _KroneckerRing,
    line_restriction,
    powers,
)
from .residue_rings import ResidueRing, SplitNeeded, split_modulus
from .scalars import GF, QQ, Field, PrimeField, Ring


class LineInCurveError(ValueError):
    """The chart's line is contained in the curve (restriction vanished)."""


class _FrameRetry(Exception):
    """Internal: the random frame was degenerate for this computation."""


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

    def partials(self) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
        return tuple(self.poly.derivative(v) for v in range(3))

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
    -ell[o2] / ell[v] (the inverse raises ``SplitNeeded`` when ell[v] is a
    zero divisor of a residue ring); ``polys.line_restriction`` gives F
    there in (x_o1, x_o2), and one ``BinaryForm.substituted`` puts in x_o1
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
    degree D = 3(d - 2); zero for a cone.

    The six distinct second partials H_rc, at z = 1, are elements of a
    ``_KroneckerRing`` of stride D + 1, each term placed by one shift, and
    the determinant is A - B for the two nonnegative sums of triple
    products A = H00 H11 H22 + 2 H01 H12 H02 and B = H00 H12**2 + H11
    H02**2 + H22 H01**2 (the matrix is symmetric).  No slot of A or B
    passes 3 T**2 (p - 1)**3, T = d(d - 1)/2 being the most terms a partial
    has, so neither does a slot of A - B: that is the ring's bound, and
    its ``terms`` reads the residues of A - B.
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
    return MultiPoly(F, 3, {(i, j, degree - i - j): c for (i, j), c in terms.items()})


class PluckerCounts(NamedTuple):
    dual_degree: int
    flex_count: int
    bitangent_count: int


def plucker_counts(d: int) -> PluckerCounts:
    """Dual degree, flex count and bitangent count of a smooth general curve.

    (d(d-1), 3d(d-2), d(d-2)(d-3)(d+3)/2); for d = 5 this is (20, 45, 120).
    """
    if d < 4:
        raise ValueError("counts are used here only for degree >= 4")
    numerator = d * (d - 2) * (d - 3) * (d + 3)
    return PluckerCounts(d * (d - 1), 3 * d * (d - 2), numerator // 2)


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


def _dehom_y(poly: MultiPoly, field: Field) -> MultiPoly:
    """Ternary form at y = 1, as a bivariate polynomial in (u, z); in a form
    the exponents of x and z fix that of y, so no two terms collide."""
    return MultiPoly(field, 2, {(i, k): c for (i, _, k), c in poly.terms.items()})


def _zpoly_over(ring: ResidueRing, bivar: MultiPoly) -> UniPoly:
    """Bivariate (u, z) polynomial as a z-polynomial with residue coefficients."""
    n = max(map(max, bivar.terms), default=0) + 1
    rows = [[ring.base.zero] * n for _ in range(n)]
    for (i, k), c in bivar.terms.items():
        rows[k][i] = c
    return UniPoly(ring, [ring.reduce(UniPoly(ring.base, row)) for row in rows])


def _each_factor(modulus: UniPoly, check):
    """(h, check(ResidueRing(h))) over the factors h of the modulus that the
    SplitNeeded escapes of ``check`` expose, lazily and in order."""
    ring = ResidueRing(modulus)
    try:
        result = check(ring)
    except SplitNeeded as split:
        for part in split_modulus(ring, split.factor):
            yield from _each_factor(part, check)
    else:
        yield modulus, result


def _probe_flexes(curve_poly: MultiPoly, dehom: Sequence[MultiPoly], modulus: UniPoly) -> int:
    """Contact-order check at every root of the flex modulus simultaneously.

    ``dehom`` is F, H and the partials of F at y = 1.  One substitution moves
    the flex (s0 : t0) on its tangent line to (1 : 0); with c_k at S^(5-k) T^k
    in the restricted quintic, contact is at least 3 iff c0 = c1 = c2 = 0,
    and exactly 3 with no second tangency iff c3 (c4^2 - 4 c3 c5) is a unit.
    Conjugate flexes count with the degree of their residue factor."""
    check = partial(_probe_single, curve_poly, dehom)
    return sum(h.degree for h, ok in _each_factor(modulus, check) if ok)


def _probe_single(curve_poly: MultiPoly, dehom: Sequence[MultiPoly], ring: ResidueRing) -> bool:
    curve_uz, hess_uz, *partials = dehom
    g = gcd_uni(_zpoly_over(ring, curve_uz), _zpoly_over(ring, hess_uz))
    if g.degree != 1:
        raise _FrameRetry(f"flex fiber gcd has degree {g.degree}, expected 1; reframe")
    z0 = ring.reduce(-g.coeffs[0])
    point = (ring.generator(), ring.one, z0)
    grad = [_zpoly_over(ring, d).eval(z0) for d in partials]
    # the tangent line grad . x = 0 solved for x_v, the first coordinate of
    # (z, x, y) whose gradient entry is nonzero (its inverse raises
    # SplitNeeded when it is a zero divisor rather than a unit)
    v = next((v for v in (2, 0, 1) if not ring.is_zero(grad[v])), None)
    if v is None:
        return False  # gradient vanishes: singular point, not a flex
    o1, o2 = (o for o in range(3) if o != v)
    # (s, t) = (s0 S + sigma T, t0 S + tau T) moves (s0 : t0) to (1 : 0)
    s0, t0 = point[o1], point[o2]
    sigma, tau = (ring.one, ring.zero) if not ring.is_zero(t0) else (ring.zero, ring.one)
    second = [ring.zero] * 3  # only its coordinates o1 and o2 are read
    second[o1], second[o2] = sigma, tau
    c = _restrict_through(curve_poly, ring, grad, v, point, second).coeffs
    if not ring.is_unit(ring.reduce(s0 * tau - sigma * t0)):  # or raises SplitNeeded
        raise ArithmeticError("degenerate root (0 : 0) in flex probe")
    if not all(ring.is_zero(ck) for ck in c[:3]):
        return False  # contact order below 3: not actually a flex fiber
    # in a product of fields the product is a unit exactly when both are
    return ring.is_unit(ring.reduce(c[3] * (c[4] * c[4] - ring.from_int(4) * c[3] * c[5])))


def _certify_singular(partials_bivar, modulus: UniPoly) -> bool:
    """True iff the three partials share a zero above some root of the modulus."""

    def common_zero(ring: ResidueRing) -> bool:
        return reduce(gcd_uni, (_zpoly_over(ring, p) for p in partials_bivar)).degree >= 1

    return any(found for _, found in _each_factor(modulus, common_zero))


#: Random frames ``genericity_report`` tries before it gives up.
MAX_FRAMES = 6


def genericity_report(curve: PlaneCurve, prime: int, seed: int = 0) -> GenericityReport:
    """Run the three exact genericity checks over GF(prime).

    The curve must have degree 5 (rational curves are reduced mod p first).
    Random frames, drawn deterministically from the seed, are retried when
    an intersection of curve and Hessian lies on y' = 0 (the flex eliminant
    loses degree) or two of them share a fiber.
    """
    if curve.degree != 5:
        raise ValueError("genericity checks are for quintics")
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    flex_total = plucker_counts(5).flex_count
    rng = random.Random(seed)
    notes: list[str] = []
    for attempt in range(1, MAX_FRAMES + 1):
        frame = random_invertible_frame(field, rng)
        framed = reduced.composed_with_frame(frame)
        hess = _hessian_form(framed.poly)
        # F, H and the partials of F at y = 1, once per frame
        dehom = [_dehom_y(p, field) for p in (framed.poly, hess, *framed.partials())]
        # H = 0 for a cone and R = 0 when F and H share a component: singular
        flex_res = UniPoly.zero(field) if hess.is_zero() else resultant_bivar_elim(*dehom[:2], 1)
        smooth = not flex_res.is_zero()
        distinct = verified = 0
        try:
            if smooth:
                if flex_res.degree != flex_total:
                    raise _FrameRetry(
                        f"flex eliminant degree {flex_res.degree} < {flex_total}; reframe"
                    )
                # a singular point meets H at least twice: a repeated root of R
                parts = squarefree_decomposition(flex_res)
                smooth = not any(
                    _certify_singular(dehom[2:], part) for part, mult in parts if mult > 1
                )
            if smooth:
                distinct = sum(part.degree for part, _ in parts)
                verified = sum(_probe_flexes(framed.poly, dehom, part) for part, _ in parts)
            else:
                notes.append("curve is singular; flex analysis skipped")
        except _FrameRetry as exc:
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
            flex_total=flex_total,
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
