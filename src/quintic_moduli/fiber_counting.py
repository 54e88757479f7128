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
The restriction is ``polys.line_restriction``, the package's one expansion
of a line into a ternary form.  For a target (c1 : c2 : c3) with c1 != 0
the fiber system is

    G1 = c2 * I4^2 - c1^2 * I8     (degree 20)
    G2 = c3 * I4^3 - c1^3 * I12    (degree 30)

and the eliminant R(a) has degree 20 * 30 = 600.  Both are built exactly,
once per attempt: the framed quintic is restricted once at the power
tables of a and b in GF(p)[a, b] in Kronecker form (``polys._KroneckerRing``:
one int per polynomial, a^i b^j in slot 33 i + j; von zur Gathen & Gerhard,
*Modern Computer Algebra*, section 8.4), and the unchanged
``invariant_triple`` runs over that ring.  A covariant of coefficient
degree d and order o has chart degree at most (5d + o)/2, so the largest
product of the chain, q * q, has degree 32 and the stride 33 aliases
none; the slot width comes from a bound on |slot| derived from the
chain's transvectant weights.

Every one of the 45 inflectional lines of a generic quintic is a common
zero (all invariants vanish there); each absorbs the same multiplicity,
and the multiplicity-1 part of R is the actual fiber.  A successful run
reports

    {(420, 1), (45, 4)}        with 600 = 420 + 45 * 4,

reproducing the degree 420; the per-flex multiplicity 4 is measured by the
squarefree decomposition, never assumed.  Degenerate draws (degree drops,
profile deviations) are retried with fresh random data and every cause is
recorded.  The retries stop early once a fresh draw reproduces the cause of
an earlier attempt word for word: a failure that recurs across independent
frames (and targets) is a property of the curve, not of the draw, so
further draws would only repeat it.  Fermat, for instance, measures
((15, 30), (150, 1)) at every draw and is declined after two attempts.

Characteristic 0 is replaced by reduction mod p; agreement across at least
two primes is the intended usage, and any disagreement is an error to
surface, never to average away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .binary_forms import BinaryQuintic, _transvectant_table
from .elimination import resultant_bivar_elim, squarefree_decomposition
from .invariants import WPPoint, invariant_triple
from .plane_curves import PlaneCurve, random_invertible_frame
from .polys import MultiPoly, _KroneckerRing, line_restriction
from .scalars import GF, PrimeField, Ring

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
    """The count was declined; ``causes`` holds one entry per attempt made."""

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


#: The transvectants of ``invariants._chain`` that ``invariant_triple``
#: runs, as ((d, o) of g, (d, o) of h, k) for covariants of coefficient
#: degree d and order o: i = (f, f)_4, j = (i, f)_2, q = (j, j)_2 and the
#: chain values (i, i)_2, (q, i)_2, (q, q)_2.
_CHAIN = (
    ((1, 5), (1, 5), 4),
    ((2, 2), (1, 5), 2),
    ((3, 3), (3, 3), 2),
    ((2, 2), (2, 2), 2),
    ((6, 2), (2, 2), 2),
    ((6, 2), (6, 2), 2),
)


def _chart_degree(d: int, o: int) -> int:
    """The (a, b)-degree bound of the coefficients of a covariant of
    coefficient degree d and order o, on the chart z = a x + b y.

    On the line c z = a x + b y the restriction f = F(c x, c y, a x + b y)
    has coefficients homogeneous of degree 5 in (a, b, c), so a covariant C
    of f has coefficients of degree 5d.  f is H(c x, a x + b y) for H(u, v)
    = F(u, (c v - a u) / b, v), and C, of weight (5d - o) / 2, satisfies
    C(H o A) = det(A)**weight C(H) o A, here with det A = b c.  So
    c**weight divides C(f), and at c = 1 its degree in (a, b) is at most
    5d - weight = (5d + o) / 2.
    """
    return (5 * d + o) // 2


def _monomials(degree: int) -> int:
    """Number of monomials a**i b**j with i + j <= degree."""
    return (degree + 1) * (degree + 2) // 2


#: The largest (a, b)-degree of a product in the chain, q * q, is 32, so a
#: Kronecker stride of 33 in b keeps every product un-aliased.
_STRIDE = 1 + max(_chart_degree(*g) + _chart_degree(*h) for g, h, _ in _CHAIN)

#: C with C (p - 1)**3 bounding every |slot| the chain reduces: a
#: transvectant's output sums |w| products per row, each slot of a product
#: at most one term per monomial of the smaller factor, each term below
#: (p - 1)**2.  The chain multiplies by no scaling (its factorial scalings
#: are in the normalisation's constants), so the third factor p - 1 is
#: slack; the bound stays as it is, and with it the slot width.  The other
#: reductions (the restriction, the normalisation, G1 and G2) stay far
#: below it.
_CHAIN_WEIGHT = max(
    max(sum(abs(w) for _, _, w in row) for row in _transvectant_table(g[1], h[1], k)[0])
    * min(_monomials(_chart_degree(*g)), _monomials(_chart_degree(*h)))
    for g, h, k in _CHAIN
)


def _restriction_coefficients(framed_poly: MultiPoly, ring: Ring):
    """Closure computing the 6 restriction coefficients from power tables.

    ``polys.line_restriction`` on the chart z = a x + b y, its table built
    once per frame; each coefficient (indexed by y-degree) is reduced once
    in ``ring``.
    """
    restrict = line_restriction(framed_poly.terms, 2)

    def evaluate(ap: list, bp: list) -> list:
        return [ring.reduce(c) for c in restrict(ap, bp)]

    return evaluate


def build_fiber_system(
    curve: PlaneCurve, target: WPPoint, frame
) -> tuple[MultiPoly, MultiPoly]:
    """The two chart equations (G1, G2) cutting out the fiber over ``target``.

    The curve must be a quintic over a prime field; the target must have
    c1 != 0.  The framed quintic is restricted once, at the power tables
    of a and b in a ``_KroneckerRing`` of stride ``_STRIDE`` and bound
    ``_CHAIN_WEIGHT * (p - 1)**3``, and ``invariant_triple`` runs there, so
    I4, I8, I12 and then G1 and G2 are exact polynomials in (a, b).
    Degrees are gated at exactly (20, 30): a drop means the chart frame is
    non-generic and the caller should redraw it.
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
    p = field.p
    ring = _KroneckerRing(p, _STRIDE, _CHAIN_WEIGHT * (p - 1) ** 3)
    restrict = _restriction_coefficients(framed.poly, ring)
    # a**r and b**r are the single slots r * _STRIDE and r
    w = ring.width
    powers_a, powers_b = ([1 << w * step * r for r in range(6)] for step in (_STRIDE, 1))
    i4, i8, i12 = invariant_triple(BinaryQuintic(ring, restrict(powers_a, powers_b)))
    c1sq = field.reduce(c1 * c1)
    i4sq = ring.reduce(i4 * i4)
    g1 = ring.reduce(c2 * i4sq - c1sq * i8)
    g2 = ring.reduce(c3 * ring.reduce(i4sq * i4) - field.reduce(c1sq * c1) * i12)
    g1_poly, g2_poly = (MultiPoly(field, 2, ring.terms(g)) for g in (g1, g2))
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
        disc = field.reduce(c1 * c1 - 128 * c2)
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

    A failed attempt is retried with a fresh draw, at most ``max_retries``
    times.  When a retry fails with exactly the cause of an earlier attempt,
    the count stops there and raises FiberCountError: independent draws that
    reproduce one failure point at the curve (or the fixed target), not at
    the draw.  Causes that differ between draws, such as a deviating profile
    that depends on the frame, keep the retries going.  ``causes`` holds one
    entry per attempt made.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    rng = random.Random(seed)
    causes: list[str] = []
    first_attempt: dict[str, int] = {}  # retry cause -> first attempt raising it
    fixed_target = target is not None
    for attempt in range(max_retries + 1):
        drawn = target if fixed_target else _draw_target(field, rng)
        frame = random_invertible_frame(field, rng)
        try:
            g1, g2 = build_fiber_system(reduced, drawn, frame)
            eliminant = resultant_bivar_elim(g1, g2)
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
            cause = str(exc)
            if cause in first_attempt:
                causes.append(
                    f"attempt {attempt}: {cause} (as at attempt {first_attempt[cause]}:"
                    " a property of the curve, not of the draw)"
                )
                break
            first_attempt[cause] = attempt
            causes.append(f"attempt {attempt}: {cause}")
    raise FiberCountError(causes)

