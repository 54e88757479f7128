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

Every flex line of the curve is a common zero (it meets the curve with
contact at least 3 at its flex, so its restriction has a triple root and
every invariant vanishes there), so R(a) is divisible by the flex lines.
In the attempt's frame, ``flex_lines`` gives one polynomial L_h per
squarefree part h of the flex eliminant Res_z(F, H): the product of (a -
a(u)) over the flexes above the roots u of h, a(u) the chart slope of the
tangent there.  Each multiplicity mu_h is measured, never assumed:
the number of times L_h divides R exactly.  So R is divided exactly by the
product of the L_h^mu_h, and the attempt is accepted when the remainder is
0, the quotient Q is squarefree, and Q is coprime to every L_h; no Yun
decomposition of R is made.  The multiplicity-1 part Q is the actual
fiber.  A generic quintic reports

    {(420, 1), (45, 4)}        with 600 = 420 + 45 * 4,

reproducing the degree 420, and Fermat, whose 15 flexes are hyperflexes,
is answered in one attempt: {(150, 1), (15, 30)}.  No profile is expected:
a curve whose flexes have contact 4, or several kinds of flex, reports one
(deg L_h, mu_h) per part.  Degenerate draws (degree drops, a G1 without
the constant b^20 lead the eliminant needs, a degenerate frame for the
flex lines, a failed division) raise the certificate's
``plane_curves.FrameRetryError``, are retried with fresh random data, and
every cause is recorded.  The retries stop early once a fresh draw
reproduces the cause of an earlier attempt word for word: a failure
that recurs across independent frames (and targets) is a property of the
curve, not of the draw, so further draws would only repeat it.  A singular
curve, for instance, is declined after two attempts.

Characteristic 0 is replaced by reduction mod p; agreement across at least
two primes is the intended usage, and any disagreement is an error to
surface, never to average away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from operator import mul

from .binary_forms import BinaryQuintic, _transvectant_table
from .elimination import gcd_uni, resultant_bivar_elim
from .invariants import WPPoint, invariant_triple
from .plane_curves import (
    _DIRECTIONS,
    FrameRetryError,
    PlaneCurve,
    _flex_frame,
    _flex_point,
    _taylor_sum,
    random_invertible_frame,
)
from .polys import (
    MultiPoly,
    UniPoly,
    _KroneckerRing,
    _pack,
    _unpack,
    line_restriction,
)
from .residue_rings import ResidueRing
from .scalars import GF, PrimeField, Ring

#: Chart degrees of the fiber system and its Bezout number.
FIBER_SYSTEM_DEGREES = (20, 30)
ELIMINANT_DEGREE = FIBER_SYSTEM_DEGREES[0] * FIBER_SYSTEM_DEGREES[1]


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
    # (degree, multiplicity) of the one flex-line part; with several parts,
    # a tuple of those pairs in the order of the flexes' multiplicity in R
    flex_part: tuple
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


def build_fiber_system(framed: PlaneCurve, target: WPPoint) -> tuple[MultiPoly, MultiPoly]:
    """The two chart equations (G1, G2) cutting out the fiber over ``target``,
    in the frame the curve has been put in.

    ``framed`` is a quintic over a prime field already in framed
    coordinates (``PlaneCurve.composed_with_frame``): ``count_fiber``
    frames the curve once per attempt, for the fiber system and the flex
    lines.  The target must have c1 != 0.  The framed quintic is restricted
    once, at the power tables of a and b in a ``_KroneckerRing`` of stride
    ``_STRIDE`` and bound ``_CHAIN_WEIGHT * (p - 1)**3``, and
    ``invariant_triple`` runs there, so I4, I8, I12 and then G1 and G2 are
    exact polynomials in (a, b).  A degree below (20, 30), or a G1 without
    the constant b^20 lead the eliminant needs (its coefficient is c2 I4^2 -
    c1^2 I8 on the frame's line y' = 0), raises ``FrameRetryError``.
    """
    field = framed.field
    if not isinstance(field, PrimeField):
        raise ValueError("fiber counting runs over a prime field")
    if framed.degree != 5:
        raise ValueError("fiber counting needs a quintic")
    c1, c2, c3 = target.coords()
    if field.is_zero(c1):
        raise ValueError("target must have nonzero first coordinate")
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
        raise FrameRetryError(
            f"fiber system degrees ({g1_poly.total_degree}, {g2_poly.total_degree})"
            f" dropped below {FIBER_SYSTEM_DEGREES}: non-generic chart"
        )
    if (0, FIBER_SYSTEM_DEGREES[0]) not in g1_poly.terms:
        raise FrameRetryError(
            "G1 has no b^20 term (c2 I4^2 = c1^2 I8 on the frame's line y' = 0); reframe"
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


def _characteristic_polynomial(ring: ResidueRing, a: int) -> UniPoly:
    """prod (T - a(u)) over the n roots u of the ring's modulus h, for a
    canonical packed class a: the characteristic polynomial of
    multiplication by a.

    Its power sums t_k = Tr(a**k), k = 1..n, are traces, and Tr(y) = sum_j
    y_j P_j for the power sums P_j of the roots of h.  Those are the
    coefficients of h'/h = sum_j P_j u**(-j-1), so the quotient of h'
    u**(2n - 1) by h holds P_0..P_(2n-2) in reverse: one
    ``ResidueRing.divmod_packed``.  The traces take about 2 sqrt(n)
    products in the ring, not n (baby steps, giant steps): for k = g m + b,
    Tr(a**k) = sum_l (a**b)_l v_l with v_l = Tr(u**l a**(g m)) = sum_j
    (a**(g m))_j P_(l+j), and one product of a**(g m) with the reversed P_j
    gives the v_l, in reverse, in its slots n - 1..2n - 2 (each at most n
    products below 2p**2, within the ring's slot bound).  Newton's
    identities k e_k = sum_{i=1..k} (-1)**(i - 1) e_(k-i) t_i then give the
    elementary symmetric functions e_k of the a(u), and the polynomial is
    sum_k (-1)**k e_k T**(n - k).  Dividing by k <= n needs p > n.
    """
    p, n, w = ring.base.p, ring.degree, ring.width
    if p <= n:
        raise ValueError(f"Newton's identities need p > {n}, got GF({p})")
    slopes = ring.pack(ring.modulus.derivative())
    reversed_sums = ring.divmod_packed(slopes << w * (2 * n - 1))[0]
    settle, low = ring.reduce_packed, (1 << w * n) - 1
    steps = isqrt(n) + 1  # steps**2 > n: the exponents 0..n are g steps + b
    babies = [1, a]
    while len(babies) < steps:
        babies.append(settle(babies[-1] * a))
    giant = settle(babies[-1] * a)
    babies = [_unpack(x, n, w) for x in babies]
    traces, y = [], 1
    for g in range(steps):
        if g:
            y = giant if g == 1 else settle(y * giant)
        v = _unpack(y * reversed_sums >> w * (n - 1) & low, n, w)[::-1]
        traces += (sum(map(mul, x, v)) for x in babies)
    # signed[i - 1] = (-1)**(i - 1) t_i
    signed = [t % p if i % 2 else -t % p for i, t in enumerate(traces[1 : n + 1], 1)]
    # k e_k = sum_{i=1..k} (-1)**(i - 1) t_i e_(k-i), the e_(k-i) newest first
    elementary = [1]
    for k in range(1, n + 1):
        elementary.insert(0, sum(map(mul, signed, elementary)) * pow(k, -1, p) % p)
    # elementary is e_n, ..., e_1, e_0: T**j has coefficient (-1)**(n - j) e_(n-j)
    return UniPoly(ring.base, [e if (n - j) % 2 == 0 else -e % p for j, e in enumerate(elementary)])


def flex_lines(framed: PlaneCurve) -> list[UniPoly]:
    """The flex-line polynomials L_h of a framed quintic over GF(p), one per
    squarefree part h of R = Res_z(F, H) at y = 1, in the order of h's
    multiplicity in R.

    The frame is set up, and R decomposed, as the genericity certificate
    does it (``plane_curves._flex_frame``).  The tangent at the flex P =
    (u, 1, z0) over a root u of h, z0 = -s0/s1 (``plane_curves._flex_point``), is
    the chart line z = a x + b y with a(u) = -F_x(P) / F_z(P), and L_h =
    prod (T - a(u)) over the roots of h, the characteristic polynomial of
    a(u) in GF(p)[u]/(h) (``_characteristic_polynomial``).  Each flex line
    meets the curve with contact at least 3, so its restriction has a
    triple root and every invariant vanishes there: the roots of L_h lie in
    every fiber of the line-to-moduli map, in this frame's chart.

    The frame is degenerate, and ``FrameRetryError`` raised with the cause,
    where the certificate finds it so (``_flex_frame``, ``_flex_point``),
    when R vanishes (H = 0, or F and H share a component: the curve is
    singular, so every frame repeats the cause), and when F_z is a zero
    divisor mod h (a flex tangent passes through (0 : 0 : 1) and has no
    chart slope).
    """
    tables, _, parts, shape = _flex_frame(framed)
    if not parts:
        raise FrameRetryError("flex eliminant vanishes (H = 0, or F and H share a component)")
    lines = []
    for part, _ in parts:
        ring, zs = _flex_point(shape, part)
        f_x, f_z = (_taylor_sum(ring, tables[0][d], zs) for d in _DIRECTIONS[1:3])
        try:
            inverse = ring.inv(ring.unpack(f_z))
        except ZeroDivisionError:
            raise FrameRetryError(
                "a flex tangent passes through (0 : 0 : 1) (F_z vanishes there); reframe"
            ) from None
        slope = ring.reduce_packed(f_x * ring.pack(-inverse))
        lines.append(_characteristic_polynomial(ring, slope))
    return lines


def _divide_by_flex_lines(eliminant: UniPoly, lines: list[UniPoly]):
    """(Q, [(deg L_h, mu_h), ...]): the eliminant divided exactly by the
    product of the flex-line parts L_h**mu_h, each multiplicity measured.

    In one ``ResidueRing(L_h)`` the quotient is divided by L_h, packed
    (``ResidueRing.divmod_packed``), as long as the remainder is 0: mu_h is
    the number of exact divisions.  The first nonzero remainder is the
    quotient mod L_h, so gcd(L_h, remainder) = 1 is exactly the quotient
    being coprime to L_h, and so is the final Q, which divides it.  The
    remainders being 0 is the exact division by the product, and a root two
    parts shared would have been divided off by the first of them.  Q must
    be squarefree: one gcd with its derivative.  L_h itself need not be:
    flex lines that share their slope a meet in one root of L_h, as
    Fermat's five concurrent flex tangents do when the frame puts their
    common point on y = 0.  (deg L_h, mu_h) counts flex lines, each of
    multiplicity mu_h.  Every failure raises ``FrameRetryError`` with its
    cause.
    """
    field = eliminant.field
    p = field.p
    quotient, parts = eliminant.coeffs, []
    for line in lines:
        ring = ResidueRing(line)
        packed, mu = _pack(quotient, ring.width), 0
        while not (divided := ring.divmod_packed(packed))[1]:
            packed, mu = divided[0], mu + 1
        if not mu:
            raise FrameRetryError(
                f"flex-line part of degree {line.degree} does not divide the eliminant"
            )
        if gcd_uni(line, ring.unpack(divided[1])).degree:
            raise FrameRetryError(
                f"the reduced part is not coprime to the flex-line part of degree {line.degree}"
            )
        parts.append((line.degree, mu))
        length = len(quotient) - mu * line.degree
        quotient = [c % p for c in _unpack(packed, length, ring.width)]
    reduced = UniPoly(field, quotient)
    if gcd_uni(reduced, reduced.derivative()).degree:
        raise FrameRetryError(f"reduced part of degree {reduced.degree} is not squarefree")
    return reduced, parts


#: Attempts ``count_fiber`` makes before it declines: the first and 8 retries.
MAX_ATTEMPTS = 9


def count_fiber(
    curve: PlaneCurve, prime: int, seed: int, target: WPPoint | None = None
) -> FiberReport:
    """Count the fiber of the line-to-moduli map over one target.

    Draws target and chart frame deterministically from the seed (an
    explicit target over GF(prime) may be supplied instead and is then kept
    across retries).  Precondition: the curve passes the genericity checks; see
    :func:`quintic_moduli.plane_curves.genericity_report`.  Each attempt
    frames the curve once, builds the fiber system and the flex lines
    (``flex_lines``) in that frame, and divides the eliminant by the flex
    lines (``_divide_by_flex_lines``); the quotient's degree is the
    fiber's.

    A failed attempt (``FrameRetryError``) is retried with a fresh draw, up
    to ``MAX_ATTEMPTS`` in all.  When a retry fails with exactly the cause
    of an earlier attempt, the count stops there and raises FiberCountError:
    independent draws that reproduce one failure point at the curve (or the
    fixed target), not at the draw.  Causes that differ between draws, such
    as a degenerate frame, keep the retries going.  ``causes`` holds one
    entry per attempt made.
    """
    field = GF(prime)
    if target is not None and target.field is not field:
        raise ValueError(f"target lies over {target.field!r}, not GF({prime})")
    reduced = curve.reduce_mod(field)
    rng = random.Random(seed)
    causes: list[str] = []
    first_attempt: dict[str, int] = {}  # retry cause -> first attempt raising it
    fixed_target = target is not None
    for attempt in range(MAX_ATTEMPTS):
        drawn = target if fixed_target else _draw_target(field, rng)
        frame = random_invertible_frame(field, rng)
        try:
            framed = reduced.composed_with_frame(frame)
            g1, g2 = build_fiber_system(framed, drawn)
            lines = flex_lines(framed)
            eliminant = resultant_bivar_elim(g1, g2)
            if eliminant.degree != ELIMINANT_DEGREE:
                raise FrameRetryError(
                    f"eliminant degree {eliminant.degree} != {ELIMINANT_DEGREE}"
                )
            quotient, parts = _divide_by_flex_lines(eliminant, lines)
            fiber_degree = quotient.degree
            return FiberReport(
                prime=prime,
                seed=seed,
                frame=frame,
                target=drawn.coords(),
                resultant_degree=int(eliminant.degree),
                multiplicity_profile=tuple(sorted([(fiber_degree, 1), *parts])),
                fiber_degree=fiber_degree,
                flex_part=parts[0] if len(parts) == 1 else tuple(parts),
                retries=attempt,
                causes=tuple(causes),
            )
        except FrameRetryError as exc:
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
