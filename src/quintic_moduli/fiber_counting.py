"""Fiber counting for the line-to-moduli map over a prime field.

This is the package's independent check of the headline count: pick a
random target in the weighted moduli plane, write the condition "the line
(a, b) maps to the target" as two polynomial equations in the chart
coordinates, eliminate one variable, and read the fiber size off the
squarefree structure of the eliminant.

Restricting the curve along the chart z' = a x' + b y' makes each
invariant a polynomial in (a, b) whose degree is the invariant's weight:
5d/2 for coefficient-degree d, so 10, 20, 30 for I4, I8, I12.  (The top
graded pieces of the restriction coefficients are all proportional, being
the z'-power alone, and every invariant kills that quintuple-line
direction; one consistency check is that the restriction discriminant
I4^2 - 128 I8 then has chart degree 20, the degree of the dual curve.)
For a target (c1 : c2 : c3) with c1 != 0 the fiber system is

    G1 = c2 * I4^2 - c1^2 * I8     (degree 20)
    G2 = c3 * I4^3 - c1^3 * I12    (degree 30)

and the eliminant R(a) has degree 20 * 30 = 600.  Every one of the 45
inflectional lines of a generic quintic is a common zero (all invariants
vanish there); each absorbs the same multiplicity, and the
multiplicity-1 part of R is the actual fiber.  A successful run reports

    {(420, 1), (45, 4)}        with 600 = 420 + 45 * 4,

reproducing the degree 420; the per-flex multiplicity 4 is measured by the
squarefree decomposition, never assumed.  Degenerate draws (degree drops,
profile deviations) are retried with fresh random data and every cause is
recorded.

Characteristic 0 is replaced by reduction mod p; agreement across at least
two primes is the intended usage, and any disagreement is an error to
surface, never to average away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .binary_forms import BinaryQuintic
from .elimination import resultant_bivar_elim, squarefree_decomposition
from .invariants import WPPoint, invariant_triple
from .plane_curves import PlaneCurve, random_invertible_frame
from .polys import MultiPoly, interpolate_bivariate
from .scalars import GF, PrimeField

#: Chart degrees of the fiber system and its Bezout number.
FIBER_SYSTEM_DEGREES = (20, 30)
ELIMINANT_DEGREE = FIBER_SYSTEM_DEGREES[0] * FIBER_SYSTEM_DEGREES[1]
#: The count this module reproduces, and the flex part accounting for the
#: rest of the Bezout number: 600 = 420 + 45 * 4.
EXPECTED_FIBER_DEGREE = 420
EXPECTED_FLEX_PART = (45, 4)


class FiberRetryError(Exception):
    """A single draw failed a genericity gate; carries the cause."""


class FiberCountError(RuntimeError):
    """All retries failed; ``causes`` lists every recorded failure."""

    def __init__(self, causes: list[str]):
        super().__init__("fiber count failed: " + "; ".join(causes))
        self.causes = causes


@dataclass(frozen=True)
class FiberReport:
    """Echo of one successful fiber computation."""

    prime: int
    seed: int
    frame: tuple
    target: tuple
    resultant_degree: int
    multiplicity_profile: tuple  # ((degree, multiplicity), ...) sorted
    fiber_degree: int
    flex_part: tuple | None  # (degree, multiplicity) of the non-reduced part
    retries: int
    causes: tuple

    def __post_init__(self):
        total = sum(d * m for d, m in self.multiplicity_profile)
        if total != self.resultant_degree:
            raise ValueError("multiplicity profile does not account for the degree")


def _restriction_coefficients(framed_poly: MultiPoly, field: PrimeField):
    """Closure computing the 6 restriction coefficients at numeric (a, b).

    For each monomial x^i y^j z^k of the framed curve, substituting
    z = a x + b y contributes C(k, r) a^r b^(k-r) to the coefficient of
    x^(i+r) y^(j+k-r); coefficients are indexed by y-degree.
    """
    p = field.p
    entries = []
    for (i, j, k), c in framed_poly.terms.items():
        for r in range(k + 1):
            entries.append((j + k - r, comb(k, r) * c % p, r, k - r))

    def evaluate(a: int, b: int) -> list[int]:
        ap = [1]
        bp = [1]
        for _ in range(5):
            ap.append(ap[-1] * a % p)
            bp.append(bp[-1] * b % p)
        coeffs = [0] * 6
        for idx, c, ra, rb in entries:
            coeffs[idx] += c * ap[ra] * bp[rb]
        return [c % p for c in coeffs]

    return evaluate


def build_fiber_system(
    curve: PlaneCurve, target: WPPoint, frame
) -> tuple[MultiPoly, MultiPoly]:
    """The two chart equations (G1, G2) cutting out the fiber over ``target``.

    The curve must be a quintic over a prime field; the target must have
    c1 != 0.  Degrees are gated at exactly (20, 30): a drop means the chart
    frame is non-generic and the caller should redraw it.  Computed by
    evaluating the restriction invariants on a grid and interpolating.
    """
    field = curve.field
    if not isinstance(field, PrimeField):
        raise ValueError("fiber counting runs over a prime field")
    if curve.degree != 5:
        raise ValueError("fiber counting needs a quintic")
    c1, c2, c3 = target.coords()
    if field.is_zero(c1):
        raise ValueError("target must have nonzero first coordinate")
    framed = curve.composed_with_frame(frame)
    restrict = _restriction_coefficients(framed.poly, field)
    c1sq = field.mul(c1, c1)
    c1cu = field.mul(c1sq, c1)
    n = FIBER_SYSTEM_DEGREES[1] + 1  # grid side: one more than the top degree
    grid1 = []
    grid2 = []
    for a in range(n):
        row1 = []
        row2 = []
        for b in range(n):
            coeffs = restrict(a, b)
            if all(c == 0 for c in coeffs):
                raise FiberRetryError("a grid line lies on the curve (degenerate frame)")
            i4, i8, i12 = invariant_triple(BinaryQuintic(field, coeffs))
            g1 = field.sub(field.mul(c2, field.mul(i4, i4)), field.mul(c1sq, i8))
            g2 = field.sub(
                field.mul(c3, field.mul(i4, field.mul(i4, i4))), field.mul(c1cu, i12)
            )
            row1.append(g1)
            row2.append(g2)
        grid1.append(row1)
        grid2.append(row2)
    xs = [field.from_int(v) for v in range(n)]
    g1_poly = interpolate_bivariate(xs, xs, grid1, field)
    g2_poly = interpolate_bivariate(xs, xs, grid2, field)
    if (g1_poly.total_degree, g2_poly.total_degree) != FIBER_SYSTEM_DEGREES:
        raise FiberRetryError(
            f"fiber system degrees ({g1_poly.total_degree}, {g2_poly.total_degree})"
            f" dropped below {FIBER_SYSTEM_DEGREES}: non-generic chart"
        )
    return g1_poly, g2_poly


def _draw_target(field: PrimeField, rng: random.Random) -> WPPoint:
    """Random target with c1 != 0 and off the repeated-root divisor."""
    while True:
        c1 = field.from_int(1 + rng.randrange(field.p - 1))
        c2 = field.from_int(rng.randrange(field.p))
        c3 = field.from_int(rng.randrange(field.p))
        disc = field.sub(field.mul(c1, c1), field.mul(field.from_int(128), c2))
        if not field.is_zero(disc):
            return WPPoint(field, c1, c2, c3)


def count_fiber(
    curve: PlaneCurve,
    prime: int,
    seed: int,
    max_retries: int = 8,
    target: WPPoint | None = None,
) -> FiberReport:
    """Count the fiber of the line-to-moduli map over one target.

    Draws target and chart frame deterministically from the seed (an
    explicit target may be supplied instead and is then kept across
    retries).  Precondition: the curve passes the genericity checks; see
    :func:`quintic_moduli.plane_curves.genericity_report`.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    field = GF(prime)
    reduced = curve if curve.field is field else curve.reduce_mod(field)
    rng = random.Random(seed)
    causes: list[str] = []
    fixed_target = target is not None
    for attempt in range(max_retries + 1):
        drawn = target if fixed_target else _draw_target(field, rng)
        frame = random_invertible_frame(field, rng)
        try:
            g1, g2 = build_fiber_system(reduced, drawn, frame)
            eliminant = resultant_bivar_elim(g1, g2, 1)
            if eliminant.degree != ELIMINANT_DEGREE:
                raise FiberRetryError(
                    f"eliminant degree {eliminant.degree} != {ELIMINANT_DEGREE}"
                )
            parts = squarefree_decomposition(eliminant)
            profile = tuple(sorted((int(part.degree), mult) for part, mult in parts))
            expected = tuple(sorted([(EXPECTED_FIBER_DEGREE, 1), EXPECTED_FLEX_PART]))
            if profile != expected:
                raise FiberRetryError(f"multiplicity profile {profile} deviates")
            fiber_degree = next(d for d, m in profile if m == 1)
            flex_part = next((d, m) for d, m in profile if m != 1)
            return FiberReport(
                prime=prime,
                seed=seed,
                frame=frame,
                target=drawn.coords(),
                resultant_degree=int(eliminant.degree),
                multiplicity_profile=profile,
                fiber_degree=fiber_degree,
                flex_part=flex_part,
                retries=attempt,
                causes=tuple(causes),
            )
        except FiberRetryError as exc:
            causes.append(f"attempt {attempt}: {exc}")
            continue
    raise FiberCountError(causes)


def fiber_histogram(
    curve: PlaneCurve,
    prime: int,
    n_targets: int,
    seed: int,
    max_retries: int = 8,
) -> list:
    """Fiber degrees over independent random targets, failures annotated.

    Returns a list with one entry per target: either a FiberReport or the
    FiberCountError recording why that target could not be counted.  Invalid
    arguments (such as ``max_retries < 0``) raise ValueError instead.
    """
    out = []
    for k in range(n_targets):
        try:
            out.append(count_fiber(curve, prime, seed * 100003 + k, max_retries=max_retries))
        except FiberCountError as exc:
            out.append(exc)
    return out
