"""Plane quintics and their line geometry.

A plane curve is a homogeneous ternary form; lines are presented by charts
(an invertible coordinate frame plus slopes (a, b) selecting z' = a x' + b y'
in framed coordinates).  Restricting the curve to a chart yields a binary
quintic, whose moduli point is the value of the line-to-moduli map.  Every
restriction to a line here, the chart's and the tangent line at each flex,
is ``polys.line_restriction``: substitute x_v = a x_o1 + b x_o2 and read off
the binary form in (x_o1, x_o2).

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
conjugate flexes over extension fields are verified together.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .binary_forms import BinaryForm, BinaryQuintic
from .elimination import (
    gcd_uni,
    resultant_bivar_elim,
    squarefree_decomposition,
)
from .invariants import family_closed_forms, family_quintic, invariant_triple
from .polys import MultiPoly, PolynomialRing, UniPoly, line_restriction, powers
from .residue_rings import ResidueRing, SplitNeeded, split_modulus
from .scalars import GF, QQ, Field, PrimeField


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
        """The curve in framed coordinates: F(M . (x', y', z'))."""
        F = self.field
        args = []
        for r in range(3):
            terms = {}
            for c in range(3):
                if not F.is_zero(frame[r][c]):
                    e = [0, 0, 0]
                    e[c] = 1
                    terms[tuple(e)] = frame[r][c]
            args.append(MultiPoly(F, 3, terms))
        return PlaneCurve(self.poly.compose(args))

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
    z' = a x' + b y'.
    """
    if curve.degree != 5:
        raise ValueError("restriction to a binary quintic needs a degree-5 curve")
    F = curve.field
    if F is not chart.field:
        raise ValueError("curve and chart live over different fields")
    restrict = line_restriction(curve.composed_with_frame(chart.frame).poly.terms, 2)
    coeffs = [F.reduce(c) for c in restrict(powers(F, chart.a, 5), powers(F, chart.b, 5))]
    if all(F.is_zero(c) for c in coeffs):
        raise LineInCurveError(
            "restriction vanished identically: the line lies on the curve"
        )
    return BinaryQuintic(F, coeffs)


def hessian(curve: PlaneCurve) -> PlaneCurve:
    """Determinant of the matrix of second partials; degree 3(d - 2)."""
    if curve.degree < 3:
        raise ValueError("hessian of a curve of degree < 3 is not used here")
    return PlaneCurve(_hessian_form(curve.poly))


def _hessian_form(p: MultiPoly) -> MultiPoly:
    """The Hessian determinant as a form: zero for a cone, which no curve is."""
    return _det3([[p.derivative(r).derivative(c) for c in range(3)] for r in range(3)])


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
    """Ternary form at y = 1, as a bivariate polynomial in (u, z)."""
    terms: dict[tuple, object] = {}
    for (i, j, k), c in poly.terms.items():
        e = (i, k)
        terms[e] = field.reduce(terms[e] + c) if e in terms else c
    return MultiPoly(field, 2, terms)


def _zpoly_over(ring: ResidueRing, bivar: MultiPoly) -> UniPoly:
    """Bivariate (u, z) polynomial as a z-polynomial with residue coefficients."""
    field = ring.base
    by_z: dict[int, dict[int, object]] = {}
    for (i, k), c in bivar.terms.items():
        by_z.setdefault(k, {})[i] = c
    out = []
    for k in range(max(by_z, default=0) + 1):
        row = by_z.get(k, {})
        coeffs = [row.get(d, field.zero) for d in range(max(row, default=0) + 1)]
        out.append(ring.reduce(UniPoly(field, coeffs)))
    return UniPoly(ring, out)


def _divide_root(ring: ResidueRing, form: BinaryForm, s0, t0):
    """Divide a binary form by the linear form vanishing at (s0 : t0).

    Returns (quotient, remainder_scalar).  One of s0, t0 must be a unit;
    zero-divisor coordinates raise SplitNeeded upward.
    """
    by_t = not ring.is_zero(t0)  # then t0 is a unit, or inv raises SplitNeeded
    if by_t:
        root = ring.reduce(s0 * ring.inv(t0))
        coeffs = form.coeffs  # by t-degree
    else:
        if ring.is_zero(s0):
            raise ArithmeticError("degenerate root (0 : 0) in flex probe")
        root = ring.reduce(t0 * ring.inv(s0))
        coeffs = tuple(reversed(form.coeffs))
    q = []
    acc = None
    for c in coeffs[:-1]:
        acc = c if acc is None else ring.reduce(c + root * acc)
        q.append(acc)
    rem = ring.reduce(coeffs[-1] + root * q[-1])
    if by_t:
        return BinaryForm(ring, q), rem
    return BinaryForm(ring, tuple(reversed(q))), rem


def _probe_flexes(curve_poly: MultiPoly, hess_poly: MultiPoly, modulus: UniPoly) -> int:
    """Contact-order check at every root of the flex modulus simultaneously.

    Returns the verified degree: conjugate flexes count with the degree of
    their residue factor.  Splits the modulus on demand.
    """
    ring = ResidueRing(modulus)
    try:
        return modulus.degree if _probe_single(ring, curve_poly, hess_poly) else 0
    except SplitNeeded as split:
        return sum(
            _probe_flexes(curve_poly, hess_poly, part)
            for part in split_modulus(ring, split.factor)
        )


def _probe_single(ring: ResidueRing, curve_poly: MultiPoly, hess_poly: MultiPoly) -> bool:
    field = ring.base
    u = ring.generator()
    dz = _zpoly_over(ring, _dehom_y(curve_poly, field))
    hz = _zpoly_over(ring, _dehom_y(hess_poly, field))
    g = gcd_uni(dz, hz)
    if g.degree != 1:
        raise _FrameRetry(f"flex fiber gcd has degree {g.degree}, expected 1; reframe")
    z0 = ring.reduce(-g.coeffs[0])
    point = (u, ring.one, z0)
    grad = [
        curve_poly.derivative(v).map_coefficients(ring, ring.from_base).eval(point)
        for v in range(3)
    ]
    # the tangent line g . x = 0 solved for x_v, the first coordinate of
    # (z, x, y) whose gradient entry is nonzero; its inverse raises
    # SplitNeeded when it is a zero divisor rather than a unit
    v = next((v for v in (2, 0, 1) if not ring.is_zero(grad[v])), None)
    if v is None:
        return False  # gradient vanishes: singular point, not a flex
    o1, o2 = (o for o in range(3) if o != v)
    pivot = ring.reduce(-ring.inv(grad[v]))
    a, b = (powers(ring, ring.reduce(grad[o] * pivot), 5) for o in (o1, o2))
    restrict = line_restriction(curve_poly.terms, v)
    current = BinaryForm(ring, [ring.reduce(c) for c in restrict(a, b)])
    s0, t0 = point[o1], point[o2]
    for _ in range(3):
        current, rem = _divide_root(ring, current, s0, t0)
        if not ring.is_zero(rem):
            return False  # contact order below 3: not actually a flex fiber
    # current = Q0 s^2 + Q1 s t + Q2 t^2; exact contact 3 and a separable
    # remaining pair keep the flex honest (no hyperflex, no flex-bitangent);
    # in a product of fields the product is a unit exactly when both are
    q0, q1, q2 = current.coeffs
    value = current.eval(s0, t0)
    disc = q1 * q1 - ring.from_int(4) * q0 * q2
    return ring.is_unit(ring.reduce(value * disc))


def _certify_singular(partials_bivar, modulus: UniPoly) -> bool:
    """True iff the three partials share a zero above some root of the modulus."""
    ring = ResidueRing(modulus)
    try:
        zx, zy, zz = (_zpoly_over(ring, p) for p in partials_bivar)
        return gcd_uni(gcd_uni(zx, zy), zz).degree >= 1
    except SplitNeeded as split:
        return any(
            _certify_singular(partials_bivar, part)
            for part in split_modulus(ring, split.factor)
        )


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
        # H = 0 for a cone and R = 0 when F and H share a component: singular
        flex_res = UniPoly.zero(field) if hess.is_zero() else resultant_bivar_elim(
            _dehom_y(framed.poly, field), _dehom_y(hess, field), 1
        )
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
                partials = [_dehom_y(p, field) for p in framed.partials()]
                smooth = not any(
                    _certify_singular(partials, part) for part, mult in parts if mult > 1
                )
            if smooth:
                distinct = sum(part.degree for part, _ in parts)
                verified = sum(_probe_flexes(framed.poly, hess, part) for part, _ in parts)
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
