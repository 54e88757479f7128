"""Plane quintics and their line geometry.

A plane curve is a homogeneous ternary form; lines are presented by charts
(an invertible coordinate frame plus slopes (a, b) selecting z' = a x' + b y'
in framed coordinates).  Restricting the curve to a chart yields a binary
quintic, whose moduli point is the value of the line-to-moduli map.

``genericity_report`` decides, exactly over GF(p), the three conditions the
degree-420 count rests on: the curve is smooth, it has 45 distinct
inflection points, and at each of them the tangent meets the curve with
contact order exactly 3 and is tangent nowhere else.  All flexes are
handled at once by computing in GF(p)[u] modulo the squarefree flex
polynomial (splitting it only when a zero divisor forces a case split), so
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
from .invariants import (
    UnstableQuinticError,
    WPPoint,
    family_quintic,
    invariants,
    moduli_point,
)
from .polys import MultiPoly, PolynomialRing, UniPoly
from .residue_rings import (
    ResidueRing,
    SplitNeeded,
    residue_poly_gcd,
    residue_poly_trim,
    split_modulus,
)
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
    def from_records(cls, records: Sequence, field: Field = QQ) -> "PlaneCurve":
        """Build from [i, j, k, coefficient] records; must be homogeneous.

        Exponents are non-negative ints; coefficients are ints, Fractions or
        rational strings like "3/4".  Anything else (a float, a bool, a
        record of another shape) raises ValueError: a curve is never read
        inexactly.
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
                value = field.from_fraction(Fraction(c))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad coefficient in record {rec!r}: {exc}") from None
            e = (i, j, k)
            terms[e] = field.add(terms.get(e, field.zero), value)
        return cls(MultiPoly(field, 3, terms))

    def to_records(self) -> list[list]:
        return [[i, j, k, str(c)] for (i, j, k), c in self.poly.sorted_terms()]

    def reduce_mod(self, target: PrimeField) -> "PlaneCurve":
        """Reduction of a rational curve modulo p."""
        if self.field is target:
            return self
        if self.field is not QQ:
            raise ValueError("can only reduce a rational curve")
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


def fermat_quintic(field: Field = QQ) -> PlaneCurve:
    one = field.one
    return PlaneCurve(
        MultiPoly(field, 3, {(5, 0, 0): one, (0, 5, 0): one, (0, 0, 5): one})
    )


def frame_determinant(frame: Sequence[Sequence], field: Field):
    m = frame
    t1 = field.mul(m[0][0], field.sub(field.mul(m[1][1], m[2][2]), field.mul(m[1][2], m[2][1])))
    t2 = field.mul(m[0][1], field.sub(field.mul(m[1][0], m[2][2]), field.mul(m[1][2], m[2][0])))
    t3 = field.mul(m[0][2], field.sub(field.mul(m[1][0], m[2][1]), field.mul(m[1][1], m[2][0])))
    return field.add(field.sub(t1, t2), t3)


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

    @classmethod
    def identity(cls, field: Field, a, b) -> "LineChart":
        one, zero = field.one, field.zero
        return cls(field, ((one, zero, zero), (zero, one, zero), (zero, zero, one)), a, b)

    @classmethod
    def for_line(cls, field: Field, dual: Sequence, frame: Sequence[Sequence]) -> "LineChart":
        """Chart presenting the line {u x + v y + w z = 0} in a given frame.

        The framed dual vector is M^T (u, v, w); its z'-component must be
        nonzero for the line to be a graph z' = a x' + b y' in this frame.
        """
        u, v, w = dual
        framed = [
            field.add(field.add(field.mul(frame[0][c], u), field.mul(frame[1][c], v)), field.mul(frame[2][c], w))
            for c in range(3)
        ]
        if field.is_zero(framed[2]):
            raise ValueError("line is vertical in this frame; choose another frame")
        ninv = field.neg(field.inv(framed[2]))
        return cls(field, frame, field.mul(framed[0], ninv), field.mul(framed[1], ninv))

    def parametrisation(self) -> tuple[BinaryForm, BinaryForm, BinaryForm]:
        """Ambient coordinates of the line point at (s : t), as binary forms."""
        F = self.field
        lins = []
        for r in range(3):
            cs = F.add(self.frame[r][0], F.mul(self.frame[r][2], self.a))
            ct = F.add(self.frame[r][1], F.mul(self.frame[r][2], self.b))
            lins.append(BinaryForm(F, [cs, ct]))
        return tuple(lins)


def _restrict_form(ring: Ring, poly: MultiPoly, coords) -> BinaryForm:
    """F(l1, l2, l3) for a ternary form F and three order-1 binary forms over ``ring``.

    The coefficients of F are embedded with ``ring.from_base``; the result
    has the order of F and may be the zero form.
    """
    d = sum(next(iter(poly.terms)))
    pows = []
    for lin in coords:
        row = [BinaryForm(ring, [ring.one])]
        for _ in range(d):
            row.append(row[-1] * lin)
        pows.append(row)
    acc = BinaryForm.zero(ring, d)
    for (i, j, k), c in poly.terms.items():
        acc = acc + (pows[0][i] * pows[1][j] * pows[2][k]).scale(ring.from_base(c))
    return acc


def restrict_to_line(curve: PlaneCurve, chart: LineChart) -> BinaryQuintic:
    """The binary quintic cut on the chart's line by a degree-5 curve."""
    if curve.degree != 5:
        raise ValueError("restriction to a binary quintic needs a degree-5 curve")
    if curve.field is not chart.field:
        raise ValueError("curve and chart live over different fields")
    acc = _restrict_form(curve.field, curve.poly, chart.parametrisation())
    if acc.is_zero():
        raise LineInCurveError(
            "restriction vanished identically: the line lies on the curve"
        )
    return BinaryQuintic(curve.field, acc.coeffs)


def phi(curve: PlaneCurve, chart: LineChart) -> WPPoint:
    """Moduli point of the 5 intersection points of the chart's line with the curve."""
    f = restrict_to_line(curve, chart)
    try:
        return moduli_point(f)
    except UnstableQuinticError as exc:
        raise UnstableQuinticError(
            "inflectional line: the restriction is unstable, the map is undefined here"
        ) from exc


def hessian(curve: PlaneCurve) -> PlaneCurve:
    """Determinant of the matrix of second partials; degree 3(d - 2)."""
    if curve.degree < 3:
        raise ValueError("hessian of a curve of degree < 3 is not used here")
    p = curve.poly
    h = [[p.derivative(r).derivative(c) for c in range(3)] for r in range(3)]
    det = (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )
    return PlaneCurve(det)


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
    l, m, n = ring.variable(0), ring.variable(1), ring.variable(2)
    iv = invariants(family_quintic(ring))
    sigma1 = l + m + n
    sigma2 = m * n + n * l + l * m
    prod3 = l * m * n
    expected_i4 = sigma2 * sigma2 - (prod3 * sigma1).scale(Fraction(4))
    expected_i8 = prod3 * prod3 * sigma2
    expected_i12 = (prod3 * prod3) * (prod3 * prod3)
    if iv.i4 != expected_i4 or iv.i8 != expected_i8 or iv.i12 != expected_i12:
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
        terms[e] = field.add(terms.get(e, field.zero), c) if e in terms else c
    return MultiPoly(field, 2, terms)


def _restrict_y0(poly: MultiPoly, field: Field) -> UniPoly:
    """Ternary form on the line y = 0 at x = 1, univariate in z."""
    coeffs: dict[int, object] = {}
    for (i, j, k), c in poly.terms.items():
        if j == 0:
            coeffs[k] = field.add(coeffs.get(k, field.zero), c) if k in coeffs else c
    n = max(coeffs, default=0)
    return UniPoly(field, [coeffs.get(k, field.zero) for k in range(n + 1)])


def _zpoly_over(ring: ResidueRing, bivar: MultiPoly) -> list:
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
    return residue_poly_trim(out, ring)


def _eval_ternary(ring: ResidueRing, poly: MultiPoly, point) -> object:
    """Evaluate a GF(p) ternary form at a point with residue-ring coordinates."""
    if poly.is_zero():
        return ring.zero
    x, y, z = point
    maxdeg = max(sum(e) for e in poly.terms)
    xp, yp, zp = [ring.one], [ring.one], [ring.one]
    for _ in range(maxdeg):
        xp.append(ring.mul(xp[-1], x))
        yp.append(ring.mul(yp[-1], y))
        zp.append(ring.mul(zp[-1], z))
    acc = ring.zero
    for (i, j, k), c in poly.terms.items():
        term = ring.mul(ring.from_base(c), xp[i])
        term = ring.mul(term, yp[j])
        term = ring.mul(term, zp[k])
        acc = ring.add(acc, term)
    return acc


def _divide_root(ring: ResidueRing, form: BinaryForm, s0, t0):
    """Divide a binary form by the linear form vanishing at (s0 : t0).

    Returns (quotient, remainder_scalar).  One of s0, t0 must be a unit;
    zero-divisor coordinates raise SplitNeeded upward.
    """
    if ring.is_unit(t0):
        root = ring.mul(s0, ring.inv(t0))
        coeffs = form.coeffs  # by t-degree
    else:
        if not ring.is_unit(s0):
            raise ArithmeticError("degenerate root (0 : 0) in flex probe")
        root = ring.mul(t0, ring.inv(s0))
        coeffs = tuple(reversed(form.coeffs))
    q = []
    acc = None
    for c in coeffs[:-1]:
        acc = c if acc is None else ring.add(c, ring.mul(root, acc))
        q.append(acc)
    rem = ring.add(coeffs[-1], ring.mul(root, q[-1]))
    if ring.is_unit(t0):
        return BinaryForm(ring, q), rem
    return BinaryForm(ring, tuple(reversed(q))), rem


def _probe_flexes(curve_poly: MultiPoly, hess_poly: MultiPoly, modulus: UniPoly):
    """Contact-order check at every root of the flex modulus simultaneously.

    Returns (verified_degree, failed_degree): conjugate flexes count with
    the degree of their residue factor.  Splits the modulus on demand.
    """
    field = modulus.field
    try:
        ring = ResidueRing(modulus)
        ok = _probe_single(ring, curve_poly, hess_poly)
        return (modulus.degree, 0) if ok else (0, modulus.degree)
    except SplitNeeded as split:
        h1, h2 = split_modulus(ResidueRing(modulus), split.factor)
        v1, f1 = _probe_flexes(curve_poly, hess_poly, h1)
        v2, f2 = _probe_flexes(curve_poly, hess_poly, h2)
        return v1 + v2, f1 + f2


def _probe_single(ring: ResidueRing, curve_poly: MultiPoly, hess_poly: MultiPoly) -> bool:
    field = ring.base
    u = ring.generator()
    dz = _zpoly_over(ring, _dehom_y(curve_poly, field))
    hz = _zpoly_over(ring, _dehom_y(hess_poly, field))
    g = residue_poly_gcd(dz, hz, ring)
    if len(g) - 1 != 1:
        raise _FrameRetry(
            f"flex fiber gcd has degree {len(g) - 1}, expected 1; reframe"
        )
    z0 = ring.neg(g[0])
    gx = _eval_ternary(ring, curve_poly.derivative(0), (u, ring.one, z0))
    gy = _eval_ternary(ring, curve_poly.derivative(1), (u, ring.one, z0))
    gz = _eval_ternary(ring, curve_poly.derivative(2), (u, ring.one, z0))
    # tangent-line parametrisation with a unit pivot in the gradient
    if ring.is_unit(gz):
        coords = (
            BinaryForm(ring, [gz, ring.zero]),
            BinaryForm(ring, [ring.zero, gz]),
            BinaryForm(ring, [ring.neg(gx), ring.neg(gy)]),
        )
        s0, t0 = u, ring.one
    elif ring.is_unit(gx):
        coords = (
            BinaryForm(ring, [ring.neg(gy), ring.neg(gz)]),
            BinaryForm(ring, [gx, ring.zero]),
            BinaryForm(ring, [ring.zero, gx]),
        )
        s0, t0 = ring.one, z0
    elif ring.is_unit(gy):
        coords = (
            BinaryForm(ring, [gy, ring.zero]),
            BinaryForm(ring, [ring.neg(gx), ring.neg(gz)]),
            BinaryForm(ring, [ring.zero, gy]),
        )
        s0, t0 = u, z0
    else:
        return False  # gradient vanishes: singular point, not a flex
    current = _restrict_form(ring, curve_poly, coords)
    for _ in range(3):
        current, rem = _divide_root(ring, current, s0, t0)
        if not ring.is_zero(rem):
            return False  # contact order below 3: not actually a flex fiber
    # current = Q0 s^2 + Q1 s t + Q2 t^2; exact contact 3 and a separable
    # remaining pair keep the flex honest (no hyperflex, no flex-bitangent)
    q0, q1, q2 = current.coeffs
    value = current.eval(s0, t0)
    disc = ring.sub(ring.mul(q1, q1), ring.mul(ring.from_int(4), ring.mul(q0, q2)))
    return ring.is_unit(value) and ring.is_unit(disc)


def _certify_singular(ring: ResidueRing, partials_bivar) -> bool:
    """True iff the three partials share a zero above some root of the modulus."""
    try:
        zpolys = [_zpoly_over(ring, p) for p in partials_bivar]
        g = residue_poly_gcd(zpolys[0], zpolys[1], ring)
        g = residue_poly_gcd(g, zpolys[2], ring)
        return len(g) - 1 >= 1
    except SplitNeeded as split:
        h1, h2 = split_modulus(ring, split.factor)
        return _certify_singular(ResidueRing(h1), partials_bivar) or _certify_singular(
            ResidueRing(h2), partials_bivar
        )


def _smooth_in_frame(framed: PlaneCurve) -> bool:
    """Exact smoothness decision; raises _FrameRetry on frame degeneracies."""
    field = framed.field
    px, py, pz = framed.partials()
    # the line y' = 0 first: a common zero there is a certified singular point
    bx, by, bz = (_restrict_y0(p, field) for p in (px, py, pz))
    if bx.is_zero() or by.is_zero() or bz.is_zero():
        raise _FrameRetry("a partial vanishes on the infinity line; reframe")
    if gcd_uni(gcd_uni(bx, by), bz).degree > 0:
        return False
    if all(
        field.is_zero(p.terms.get((0, 0, framed.degree - 1), field.zero))
        for p in (px, py, pz)
    ):
        return False  # gradient vanishes at (0 : 0 : 1)
    # affine chart y' = 1: candidates from two eliminations, then exact checks
    bivs = [_dehom_y(p, field) for p in (px, py, pz)]
    for b in bivs[:2]:
        if b.degree_in(1) < 1:
            raise _FrameRetry("partial independent of z in this frame; reframe")
    r1 = resultant_bivar_elim(bivs[0], bivs[1], 1)
    if bivs[2].degree_in(1) < 1:
        raise _FrameRetry("partial independent of z in this frame; reframe")
    r2 = resultant_bivar_elim(bivs[0], bivs[2], 1)
    if r1.is_zero() or r2.is_zero():
        raise _FrameRetry("partials share a component in this frame; reframe")
    g = gcd_uni(r1, r2)
    if g.degree == 0:
        return True
    for part, _ in squarefree_decomposition(g):
        if _certify_singular(ResidueRing(part), bivs):
            return False
    return True


def genericity_report(
    curve: PlaneCurve, prime: int, seed: int = 0, max_frames: int = 6
) -> GenericityReport:
    """Run the three exact genericity checks over GF(prime).

    The curve must have degree 5 (rational curves are reduced mod p first).
    Random frames, drawn deterministically from the seed, are retried when
    a frame happens to be degenerate for one of the eliminations.
    """
    if curve.degree != 5:
        raise ValueError("genericity checks are for quintics")
    field = GF(prime)
    if isinstance(curve.field, PrimeField):
        if curve.field is not field:
            raise ValueError("curve is over a different prime field")
        reduced = curve
    else:
        reduced = curve.reduce_mod(field)
    flex_total = plucker_counts(5).flex_count
    rng = random.Random(seed)
    notes: list[str] = []
    for attempt in range(1, max_frames + 1):
        frame = random_invertible_frame(field, rng)
        framed = reduced.composed_with_frame(frame)
        try:
            smooth = _smooth_in_frame(framed)
            if not smooth:
                # flex analysis presumes a smooth curve (the node would sit
                # inside the curve-hessian cycle and wreck the bookkeeping)
                notes.append("curve is singular; flex analysis skipped")
                return GenericityReport(
                    prime=prime,
                    seed=seed,
                    smooth=False,
                    flex_cycle_ok=False,
                    distinct_flex_count=0,
                    flexes_verified=0,
                    flex_total=flex_total,
                    frames_tried=attempt,
                    notes=notes,
                )
            hess = hessian(framed)
            flex_res = resultant_bivar_elim(
                _dehom_y(framed.poly, field), _dehom_y(hess.poly, field), 1
            )
            cycle_ok = flex_res.degree == flex_total
            if not cycle_ok:
                raise _FrameRetry(
                    f"flex eliminant degree {flex_res.degree} < {flex_total}; reframe"
                )
            parts = squarefree_decomposition(flex_res)
            distinct = sum(part.degree for part, _ in parts)
            verified = 0
            failed = 0
            for part, _ in parts:
                v, f = _probe_flexes(framed.poly, hess.poly, part)
                verified += v
                failed += f
            return GenericityReport(
                prime=prime,
                seed=seed,
                smooth=smooth,
                flex_cycle_ok=cycle_ok,
                distinct_flex_count=distinct,
                flexes_verified=verified,
                flex_total=flex_total,
                frames_tried=attempt,
                notes=notes,
            )
        except _FrameRetry as exc:
            notes.append(f"frame {attempt}: {exc}")
            continue
    raise RuntimeError(
        f"no usable frame in {max_frames} attempts: " + "; ".join(notes)
    )


def load_curve(path, field: Field = QQ) -> PlaneCurve:
    """Read a curve file: a JSON list of (i, j, k, coefficient) records."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    return PlaneCurve.from_records(records, field)
