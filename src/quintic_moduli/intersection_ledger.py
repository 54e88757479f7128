"""Exact intersection theory on the triple blow-up of the dual plane.

For a general quintic, the line-to-moduli map is undefined exactly at the
45 cusps of the degree-20 dual curve (the inflectional lines).  Blowing
each cusp up three times yields a surface on which the map is a morphism.
Its intersection pairing lives on Dtilde and the exceptional curves
E1^(i), E2^(i), E3^(i) of each cusp i = 1..45, but the module never
builds that 136-dimensional basis: every cusp carries the same 4x4 block
``LOCAL_PAIRING`` on (Dtilde, E1, E2, E3), and divisors over different
cusps are disjoint.  A class that has the same coefficients over every
cusp, such as the discriminant pullback, is therefore the 4-vector

    (d, a, b, c)  =  d Dtilde + sum over the cusps of (a E1 + b E2 + c E3),

and its square is d^2 Dtilde^2 plus 45 times the rest of the block's
quadratic form -- exactly the full pairing, not an approximation.  From
the block:

  * Dtilde^2 = 130 (= 20^2 minus the drop 2^2 + 1^2 + 1^2 per cusp),
  * per cusp E1^2 = -3, E2^2 = -2, E3^2 = -1, and E3 meets E1, E2 and
    Dtilde transversally; every other pairing vanishes,
  * the discriminant curve in the weighted plane WP(1, 2, 3) is a degree-2
    section, so it has self-intersection 4/6 = 2/3 (cross-checked against
    the boundary of the moduli space of 5-pointed rational curves),
  * the projection formula forces pullback multiplicities (2/3, 1, 2) on
    (E1, E2, E3), giving pullback self-intersection 280 and degree
    280 / (2/3) = 420.

The completely independent count "two per bitangent, four per flex" gives
the same 420 from the Plücker counts of a smooth quintic (``plucker_counts``:
120 bitangents, 45 flexes).  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .linalg import solve

#: Multiplicity of the strict transform of the dual curve in the pullback of
#: the discriminant: the map is unramified over a general point of the dual
#: curve, so this coefficient is exactly 1 (an input assumption here).
STRICT_TRANSFORM_COEFFICIENT = Fraction(1)

#: Cusps of the dual curve of a general quintic (its 45 inflectional lines).
N_CUSPS = 45

#: Intersection numbers on (Dtilde, E1, E2, E3) of one cusp: E3 meets E1, E2
#: and Dtilde transversally, E1.E2 = 0.  Every cusp has this block; divisors
#: over different cusps are disjoint.  Dtilde^2 is global (see
#: solve_pullback_multiplicities for its bookkeeping).
LOCAL_PAIRING = (
    (Fraction(130), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-3), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(0), Fraction(-2), Fraction(1)),
    (Fraction(1), Fraction(1), Fraction(1), Fraction(-1)),
)

#: The discriminant is a section of degree DISCRIMINANT_DEGREE on the
#: weighted projective plane with these weights.
WPS_WEIGHTS = (1, 2, 3)
DISCRIMINANT_DEGREE = 2


def self_intersection(per_cusp: tuple[Fraction, ...]) -> Fraction:
    """Square of d Dtilde + sum over the cusps of (a E1 + b E2 + c E3).

    ``per_cusp`` is the 4-vector (d, a, b, c).  Dtilde^2 is counted once;
    the rest of the block's quadratic form once per cusp.
    """
    v = tuple(Fraction(x) for x in per_cusp)
    if len(v) != 4:
        raise ValueError("per-cusp class must be (d, a, b, c)")
    local = sum(
        LOCAL_PAIRING[k][l] * v[k] * v[l] for k in range(4) for l in range(4) if k or l
    )
    return LOCAL_PAIRING[0][0] * v[0] * v[0] + N_CUSPS * local


def solve_pullback_multiplicities() -> tuple[Fraction, Fraction, Fraction]:
    """Multiplicities (a, b, c) of (E1, E2, E3) in the discriminant pullback.

    The pullback class is Dtilde + a E1 + b E2 + c E3 per cusp (coefficient
    1 on Dtilde is an input assumption, see STRICT_TRANSFORM_COEFFICIENT).
    Pushing forward against each contracted E-divisor kills its pairing, and
    E3 maps isomorphically onto the discriminant, whose self-intersection is
    ``wps_section_self_intersection()``; this yields one linear equation per
    exceptional divisor, read from rows 1-3 of ``LOCAL_PAIRING``.

    The stored Dtilde^2 = 130 is first recomputed from the independent
    bookkeeping 20^2 - 45*(2^2 + 1^2 + 1^2): the dual curve has degree 20
    and passes through each cusp with multiplicity 2, then once through
    each of the next two infinitely-near points.
    """
    drop = sum(m * m for m in (2, 1, 1))
    if Fraction(20 * 20 - N_CUSPS * drop) != LOCAL_PAIRING[0][0]:
        raise ArithmeticError("blow-up bookkeeping for Dtilde^2 failed")
    delta_sq = wps_section_self_intersection()
    rows = [list(LOCAL_PAIRING[k][1:]) for k in (1, 2, 3)]
    rhs = [
        (delta_sq if k == 3 else Fraction(0)) - STRICT_TRANSFORM_COEFFICIENT * LOCAL_PAIRING[k][0]
        for k in (1, 2, 3)
    ]
    try:
        a, b, c = solve(rows, rhs)
    except ValueError as exc:
        raise ArithmeticError(f"projection-formula system is singular: {exc}") from exc
    return a, b, c


def wps_section_self_intersection() -> Fraction:
    """Self-intersection k^2 / (w1 w2 w3) of the discriminant, a degree-k
    section of the weighted projective plane with weights (w1, w2, w3)."""
    w1, w2, w3 = WPS_WEIGHTS
    return Fraction(DISCRIMINANT_DEGREE**2, w1 * w2 * w3)


def m05_boundary_matrix() -> list[list[int]]:
    """Pairing of the ten boundary (-1)-curves of the 5-pointed moduli space.

    Boundary classes are indexed by 2-element subsets of the 5 markings;
    two distinct classes meet exactly when the subsets are disjoint.
    """
    labels = list(combinations(range(5), 2))
    mat = []
    for s in labels:
        row = []
        for t in labels:
            if s == t:
                row.append(-1)
            elif not set(s) & set(t):
                row.append(1)
            else:
                row.append(0)
        mat.append(row)
    return mat


def m05_cross_check() -> Fraction:
    """Discriminant self-intersection via the 5-pointed moduli space.

    The boundary divisor is the sum of the ten (-1)-curves, its pullback of
    the discriminant is twice that, and forgetting the marking order has
    degree 120: (2*boundary)^2 / 120 = 4 * 20 / 120 = 2/3.
    """
    mat = m05_boundary_matrix()
    boundary_sq = Fraction(sum(sum(row) for row in mat))
    if boundary_sq != 20:
        raise ArithmeticError("boundary self-intersection bookkeeping failed")
    return Fraction(4) * boundary_sq / Fraction(120)


def _pullback() -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
    """The pullback multiplicities and the pullback's square."""
    a, b, c = solve_pullback_multiplicities()
    return (a, b, c), self_intersection((STRICT_TRANSFORM_COEFFICIENT, a, b, c))


def degree_via_ledger() -> Fraction:
    """Mapping degree (pullback of discriminant)^2 / discriminant^2 = 420."""
    return _pullback()[1] / wps_section_self_intersection()


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


def combinatorial_degree(bitangents: int, flexes: int) -> int:
    """Preimage count of a maximally degenerate 5-point configuration.

    A three-component stable curve is hit twice per bitangent (the two
    tangency components can be swapped) and four times per flex (either
    outer component can carry the line, with its two markings swappable).
    """
    if bitangents < 0 or flexes < 0:
        raise ValueError("counts must be nonnegative")
    return 2 * bitangents + 4 * flexes


def derivation_table() -> list[dict]:
    """The full exact derivation, one record per quantity."""
    (a, b, c), pb_sq = _pullback()
    counts = plucker_counts(5)
    delta_wp = wps_section_self_intersection()
    delta_m05 = m05_cross_check()
    degree = pb_sq / delta_wp
    rows = [
        {
            "quantity": "delta_sq_weighted_plane",
            "value": delta_wp,
            "note": "discriminant is a degree-2 section of WP(1,2,3): 2^2/(1*2*3)",
        },
        {
            "quantity": "delta_sq_m05_route",
            "value": delta_m05,
            "note": "via the ten boundary (-1)-curves of the 5-pointed moduli space",
        },
        {
            "quantity": "dtilde_sq",
            "value": LOCAL_PAIRING[0][0],
            "note": "strict transform of the degree-20 dual curve after 45 triple blow-ups",
        },
        {
            "quantity": "exceptional_self_intersections",
            "value": tuple(LOCAL_PAIRING[k][k] for k in (1, 2, 3)),
            "note": "(E1^2, E2^2, E3^2) per cusp",
        },
        {
            "quantity": "pullback_multiplicities",
            "value": (a, b, c),
            "note": "solved from the projection formula; Dtilde coefficient fixed at 1",
        },
        {
            "quantity": "pullback_sq",
            "value": pb_sq,
            "note": "self-intersection of the discriminant pullback",
        },
        {
            "quantity": "degree",
            "value": degree,
            "note": "pullback_sq / delta_sq",
        },
        {
            "quantity": "combinatorial_degree",
            "value": Fraction(combinatorial_degree(counts.bitangent_count, counts.flex_count)),
            "note": "2 per bitangent (120) + 4 per flex (45), independent route",
        },
    ]
    return rows
