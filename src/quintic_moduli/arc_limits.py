"""Limits of the moduli map along arcs approaching an inflectional line.

Present the quintic near a flex as x0^3 (x0 - x1) x1 + x2 f4(x0, x1, x2)
with f4(0, 1, 0) = 1, and move a line z = alpha(t) x + beta(t) y toward
the flex line z = 0.  The limiting 5-point configuration depends only on
the leading exponents (n, m) and leading coefficients (alpha0, beta0) of
the two series:

    beta != 0 and m <= n                    -> one double point, j = 0
    alpha != 0 and (beta == 0 or m >= 2n)   -> one double point, j = 1728
    n < m < 2n and 2m > 3n                  -> j = 1728
    n < m < 2n and 2m < 3n                  -> j = 0
    2m == 3n (both leading coeffs nonzero)  -> j = 1728 * 4 alpha0^3
                                                / (4 alpha0^3 - 27 beta0^2),
                                               or two double points when
                                               that denominator vanishes

In the balanced case the rescaled limit equation is u^3 - alpha0 u -
beta0 = 0 (substitute x = t^k u into the family and keep the lowest
order), so the four surviving points are its roots plus a doubled point
at infinity and the j above is the classical one of a depressed cubic
with p = -alpha0, q = -beta0.  Note the minus sign in the denominator:
the degenerate two-double-point locus is 4 alpha0^3 = 27 beta0^2.

The symbolic path implements this table directly.  The numeric oracle
never looks at the table: it evaluates the family exactly at small
rational t > 0 (the restriction table of the normal form, built once, at
the homogeneous power tables of alpha(t) and beta(t)), isolates the five
complex roots by fixed-point Durand-Kerner iteration on a precision ladder
(stages at 2 x 64, 2 x 128 and 2 x 256 bits, then the full solve at 2 x
the working precision, with a cold solve at 4 x as its fallback),
renormalises the configuration into a spread-out chart, merges the one
genuinely colliding pair, takes the cross-ratio j, and extrapolates
t -> 0 from a geometric schedule.
Agreement of the two paths is the module's main test surface.

The numeric oracle has one number type: an int, or a complex pair of
ints, scaled by 2**BITS.  Fixed point has an absolute floor of 2**-BITS,
so each value is formed balanced around 1: the roots in the chart x =
2**e y that puts their geometric mean near 1 (e read off the
coefficients' bit lengths), the points as unit pairs (a : b), |a|^2 +
|b|^2 = 1.  j and the Aitken values keep the floor, about 1e-242: a
relative error of 1e-200 near 1e-40, none that matters near the
divergence threshold 1e9.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .invariants import ConfigClass, OneDouble, TwoDoubles
from .polys import MultiPoly, line_restriction
from .scalars import QQ

J_HARMONIC = Fraction(1728)


def _lead(coeffs: Sequence[Fraction]):
    for k, c in enumerate(coeffs):
        if c != 0:
            return k, c
    return None


class ArcSpec:
    """A pair of truncated power series (alpha(t), beta(t)) with alpha(0) = beta(0) = 0.

    ``truncation=None`` declares the coefficient lists exact (polynomial
    arcs); a finite truncation means "known below this order only" and must
    exceed max(3n, 2m) so the limit classification is decidable.  An
    empty or all-zero list with finite truncation is rejected as undecidable.
    """

    __slots__ = ("alpha", "beta", "truncation")

    def __init__(self, alpha: Sequence, beta: Sequence, truncation: int | None = None):
        alpha = tuple(Fraction(c) for c in alpha)
        beta = tuple(Fraction(c) for c in beta)
        if alpha and alpha[0] != 0 or beta and beta[0] != 0:
            raise ValueError("arcs must satisfy alpha(0) = beta(0) = 0")
        if truncation is not None:
            if truncation < 1:
                raise ValueError(f"truncation must be at least 1, not {truncation}")
            if len(alpha) > truncation or len(beta) > truncation:
                raise ValueError("more coefficients supplied than the declared truncation")
            la, lb = _lead(alpha), _lead(beta)
            if la is None or lb is None:
                raise ValueError(
                    "truncation insufficient: a series vanishes to its declared "
                    "order; pass truncation=None for exactly-zero series"
                )
            needed = max(3 * la[0], 2 * lb[0])
            if truncation <= needed:
                raise ValueError(
                    f"truncation {truncation} insufficient: need more than {needed} "
                    "known orders to classify this arc"
                )
        self.alpha = alpha
        self.beta = beta
        self.truncation = truncation

    @property
    def alpha_lead(self):
        """(exponent, coefficient) of the lowest alpha term, or None."""
        return _lead(self.alpha)

    @property
    def beta_lead(self):
        return _lead(self.beta)

    def __repr__(self):
        return f"ArcSpec(alpha={list(self.alpha)}, beta={list(self.beta)}, truncation={self.truncation})"


def classify_arc(arc: ArcSpec) -> tuple[str, ConfigClass]:
    """The case-table branch of the arc (for reporting) and its limit class."""
    la, lb = arc.alpha_lead, arc.beta_lead
    if la is None and lb is None:
        raise ValueError("both series vanish: the arc does not leave the flex line")
    if lb is not None and (la is None or lb[0] <= la[0]):
        return "beta-dominant-j0", OneDouble(Fraction(0))
    if la is not None and (lb is None or lb[0] >= 2 * la[0]):
        return "alpha-dominant-j1728", OneDouble(J_HARMONIC)
    # remaining: n < m < 2n with both leads present
    n, alpha0 = la
    m, beta0 = lb
    if 2 * m > 3 * n:
        return "intermediate-j1728", OneDouble(J_HARMONIC)
    if 2 * m < 3 * n:
        return "intermediate-j0", OneDouble(Fraction(0))
    # balanced case: limit cubic u^3 - alpha0 u - beta0, doubled point at infinity
    disc = 4 * alpha0**3 - 27 * beta0**2
    if disc == 0:
        return "balanced-degenerate", TwoDoubles()
    return "balanced", OneDouble(J_HARMONIC * 4 * alpha0**3 / disc)


def arc_limit(arc: ArcSpec) -> ConfigClass:
    """Limit configuration class of the moduli point along the arc."""
    return classify_arc(arc)[1]


def exceptional_coordinate(arc: ArcSpec) -> Fraction:
    """Where a balanced arc (2m = 3n) hits the last exceptional divisor:
    alpha0**3 / beta0**2, finite and nonzero, as both leads exist.

    Two arcs with equal coordinates have equal limits.
    """
    la, lb = arc.alpha_lead, arc.beta_lead
    if la is None or lb is None or 2 * lb[0] != 3 * la[0]:
        raise ValueError("exceptional coordinate is defined only for balanced arcs")
    return la[1] ** 3 / lb[1] ** 2


class FlexNormalForm:
    """The quartic f4 presenting the curve as x0^3 (x0-x1) x1 + x2 f4 = 0.

    Normalised by f4(0, 1, 0) = 1 (smoothness at the flex point).
    ``family`` is ``polys.line_restriction`` of that quintic, its
    denominators cleared, to the moving line x2 = alpha x0 + beta x1.
    """

    __slots__ = ("quartic", "family")

    def __init__(self, quartic: MultiPoly):
        if quartic.arity != 3 or quartic.field is not QQ:
            raise ValueError("the flex quartic is a rational ternary form")
        if any(sum(e) != 4 for e in quartic.terms):
            raise ValueError("f4 must be homogeneous of degree 4")
        if quartic.terms.get((0, 4, 0)) != Fraction(1):
            raise ValueError("normalisation requires f4(0, 1, 0) = 1")
        self.quartic = quartic
        form = {(4, 1, 0): Fraction(1), (3, 2, 0): Fraction(-1)}
        form.update(((i, j, k + 1), c) for (i, j, k), c in quartic.terms.items())
        cleared, _ = QQ.clear_denominators(list(form.values()))
        self.family = line_restriction(dict(zip(form, cleared)), 2)

    @classmethod
    def default(cls) -> "FlexNormalForm":
        """A fixed sample quartic exercising genuine x2-dependence."""
        terms = {
            (0, 4, 0): Fraction(1),
            (3, 0, 1): Fraction(1),
            (0, 0, 4): Fraction(1),
            (1, 1, 2): Fraction(1),
        }
        return cls(MultiPoly(QQ, 3, terms))


@dataclass(frozen=True)
class NumericLimit:
    """Extrapolated limit of the numeric oracle."""

    j: complex | None  # None when the sequence diverges (two double points)
    error: float  # estimated extrapolation error (absolute)
    diverged: bool
    points_used: int
    points_skipped: int


def default_schedule():
    """Strictly decreasing geometric t-schedule: 12 points from 0.08, ratio 0.22."""
    out = []
    t = 0.08
    for _ in range(12):
        out.append(t)
        t *= 0.22
    return out


#: Working precision of the numeric oracle in bits (120 decimal digits); its
#: values are ints, or complex pairs of ints, scaled by 2**BITS (ONE is 1).
ORACLE_PREC = 402
BITS = 2 * ORACLE_PREC
ONE = 1 << BITS
#: A t is skipped unless its second-closest root pair is this many times
#: farther apart than the closest (the colliding) pair.
AMBIGUITY_RATIO = 3.0
#: |j| above this at the last three points, and growing, reads as divergence.
DIVERGENCE_THRESHOLD = 1e9
#: Most points (used plus skipped) the schedule grows to.
MAX_POINTS = 20
#: The extrapolation error, relative to 1 + |j|, the schedule stops at.
TARGET_ERROR = 1e-8


class NoConvergence(ArithmeticError):
    """A root solve that did not converge from its start at its precision."""


def arc_limit_numeric(normal_form: FlexNormalForm, arc: ArcSpec) -> NumericLimit:
    """Floating-point limit of j along the arc, without the case table.

    For each t of a geometric schedule the five intersection points of the
    moving line with the curve are isolated in fixed-point complex
    arithmetic (see the module docstring), the configuration is moved to a
    balanced chart, the single colliding pair is merged, and j of the
    remaining quadruple is computed; the t -> 0 limit is extrapolated from
    those values.  The schedule starts as ``default_schedule()``, read as
    exact fractions, and is extended by the same ratio until the
    extrapolation's own error estimate clears ``TARGET_ERROR`` relative to
    1 + |j| (or ``MAX_POINTS`` is reached).  A t whose root clustering is
    ambiguous, or whose quadruple degenerates exactly, is skipped.

    The roots move continuously along the schedule, so each root solve
    (``_solve_roots``, a precision ladder of Durand-Kerner solves) is
    warm-started from the previous t's roots, rescaled to the new balanced
    chart; the first t and a t where the number of finite roots changes
    start cold.

    Raises ValueError if fewer than 4 points survive the skips, and
    ``NoConvergence`` if a root solve fails even cold at 2 * BITS bits, as
    on alpha = t**36, beta = t, whose roots at small t span more orders of
    magnitude than that fixed point holds.
    """
    schedule = [Fraction(t) for t in default_schedule()]
    ratio = schedule[-1] / schedule[-2]
    js = []
    skipped = 0
    roots = None

    def sample(t):
        nonlocal skipped, roots
        jt, roots = _j_at_parameter(normal_form, arc, t, roots)
        if jt is None:
            skipped += 1
        else:
            js.append(jt)

    for t in schedule:
        sample(t)
    while True:
        if len(js) < 4:
            raise ValueError(
                "root clustering was ambiguous at almost every scheduled t"
            )
        tail = [_abs(v) for v in js[-3:]]
        if all(v > DIVERGENCE_THRESHOLD * ONE for v in tail) and tail[0] < tail[-1]:
            return NumericLimit(
                j=None,
                error=float("inf"),
                diverged=True,
                points_used=len(js),
                points_skipped=skipped,
            )
        estimate, err = _extrapolate(js)
        j, error = complex(estimate[0] / ONE, estimate[1] / ONE), err / ONE
        if error < TARGET_ERROR * (1 + abs(j)) or len(js) + skipped >= MAX_POINTS:
            return NumericLimit(
                j=j,
                error=error,
                diverged=False,
                points_used=len(js),
                points_skipped=skipped,
            )
        t = schedule[-1] * ratio
        schedule.append(t)
        sample(t)


def _family_coefficients(normal_form: FlexNormalForm, arc: ArcSpec, t: Fraction):
    """Descending coefficient list of the restricted quintic at parameter t,
    as ints: the exact coefficients times d * Da**5 * Db**5, where d clears
    the quintic's denominators and alpha(t) = A / Da, beta(t) = B / Db.

    The family's table is evaluated at the homogeneous power tables
    A^r Da^(5-r) and B^r Db^(5-r); coeffs[k] multiplies x0^(5-k) x1^k.
    """
    alpha = beta = Fraction(0)
    for c in reversed(arc.alpha):
        alpha = alpha * t + c
    for c in reversed(arc.beta):
        beta = beta * t + c
    return normal_form.family(_homogeneous_powers(alpha), _homogeneous_powers(beta))


def _homogeneous_powers(q: Fraction) -> list[int]:
    """[A^r D^(5-r) for r = 0 .. 5] for q = A / D in lowest terms."""
    out = [q.denominator**5]
    for _ in range(5):
        out.append(out[-1] // q.denominator * q.numerator)
    return out


def _j_at_parameter(normal_form, arc, t, prev_roots=None):
    """j of the merged configuration at t (None if the clustering is
    ambiguous or the quadruple degenerate), and the finite roots, which seed
    the next t, as (e, roots): roots of the chart x = 2**e y, fixed at BITS."""
    coeffs = _family_coefficients(normal_form, arc, t)
    # projective roots as pairs (a : b); exact-zero top coefficients are
    # roots at infinity of the x-chart
    lead_zeros = 0
    while lead_zeros < 5 and coeffs[lead_zeros] == 0:
        lead_zeros += 1
    poly = coeffs[lead_zeros:]
    deg = len(poly) - 1
    e, ys = 0, []
    if deg:
        # balance extreme coefficient magnitudes before root finding:
        # x = 2**e y puts the geometric mean of the roots near 1
        tail = next(c for c in reversed(poly) if c)
        e = round((tail.bit_length() - poly[0].bit_length()) / deg)
        # the monic polynomial in y: coefficients c_k / c_0 * 2**(-e k)
        monic = [(_shift(c, BITS - e * k) // poly[0], 0) for k, c in enumerate(poly[1:], 1)]
        start = None
        if prev_roots is not None and len(prev_roots[1]) == deg:
            # continuation: the previous t's roots are close, so the
            # simultaneous iteration converges in a few quadratic steps
            start = _rescaled(prev_roots[1], prev_roots[0] - e)
        ys = _solve_roots(monic, start)
    # (2**e y : 1), scaled so that neither part exceeds max(|y|, 1)
    b = _shift(ONE, -max(e, 0))
    points = [_unit((a, (b, 0))) for a in _rescaled(ys, min(e, 0))]
    points.extend([((ONE, 0), (0, 0))] * lead_zeros)
    points = _spread_chart(points)
    # the colliding pair is the unique closest one
    dists = []
    for i in range(5):
        for j in range(i + 1, 5):
            dists.append((_chordal(points[i], points[j]), i, j))
    dists.sort(key=lambda d: d[0])
    if dists[0][0] > 0 and dists[1][0] / dists[0][0] < AMBIGUITY_RATIO:
        return None, (e, ys)
    _, i, j = dists[0]
    merged = _midpoint(points[i], points[j])
    quad = [p for k, p in enumerate(points) if k not in (i, j)] + [merged]
    return _j_of_quadruple(quad), (e, ys)


#: Working precisions (bits) of the ladder stages that run before a root
#: solve's full-precision one.
LADDER_PRECS = (64, 128, 256)
#: Most Durand-Kerner sweeps a root solve may take.
MAX_SWEEPS = 1000


def _solve_roots(monic, start):
    """The roots ``_durand_kerner`` finds at BITS bits, reached on a precision ladder.

    Each stage p of ``LADDER_PRECS`` runs at 2 * p bits from the previous
    stage's roots (the first from ``start``, or cold) and is skipped if it
    does not converge; then the direct solve at BITS bits runs, and a cold
    one at 2 * BITS bits if that does not converge either.
    """
    roots = start
    for p in LADDER_PRECS:
        try:
            roots = _durand_kerner(monic, 2 * p, p, roots)
        except NoConvergence:
            pass
    try:
        return _durand_kerner(monic, BITS, ORACLE_PREC, roots)
    except NoConvergence:
        return _durand_kerner(monic, 2 * BITS, ORACLE_PREC)


def _shift(x, n):
    """x * 2**n, rounded down."""
    return x << n if n >= 0 else x >> -n


def _rescaled(pairs, n):
    return [(_shift(r, n), _shift(i, n)) for r, i in pairs]


def _durand_kerner(monic, bits, prec, init=None):
    """All roots of the monic polynomial whose lower coefficients, descending,
    are ``monic``.

    Gauss-Seidel Durand-Kerner (Weierstrass) iteration in fixed point at
    ``bits``: every real and imaginary part is a Python int scaled by
    2**bits, so a sweep costs big-int multiplies and one complex division
    per root.  A root is frozen once its correction falls below eps =
    2**(1 - prec) (an absolute test), and the solve ends when all are.
    ``init`` gives the starting roots; without them they are the classical
    (0.4 + 0.9i)^k.  The coefficients, the starts and the roots returned
    are fixed pairs at BITS.

    A real or imaginary part below eps becomes exactly 0, and the roots are
    sorted by (|im|, re).  Raises ``NoConvergence`` after ``MAX_SWEEPS``
    sweeps, when a product of root differences underflows to 0 (two
    estimates closer than 2**-bits), or when a correction reaches 2**bits
    (the estimates diverge, and fixed point has no exponent to absorb
    them), so that the caller can retry from another start or at more bits.
    """
    deg = len(monic)
    one = 1 << bits
    monic = _rescaled(monic, bits - BITS)
    if init is None:
        starts = [(0.4 + 0.9j) ** k for k in range(deg)]
        init = [(Fraction(z.real) * ONE // 1, Fraction(z.imag) * ONE // 1) for z in starts]
    xr, xi = map(list, zip(*_rescaled(init, bits - BITS)))
    tol = 1 << (bits + 1 - prec)  # eps at precision prec
    tol2 = tol * tol
    active = list(range(deg))
    for _ in range(MAX_SWEEPS):
        unfrozen = []
        for i in active:
            pr, pi = xr[i], xi[i]
            fr, fi = one, 0
            for cr, ci in monic:  # Horner
                fr, fi = ((fr * pr - fi * pi) >> bits) + cr, ((fr * pi + fi * pr) >> bits) + ci
            dr, di = one, 0
            for j in range(deg):
                if j != i:
                    ur, ui = pr - xr[j], pi - xi[j]
                    dr, di = (dr * ur - di * ui) >> bits, (dr * ui + di * ur) >> bits
            den = dr * dr + di * di
            if not den:
                raise NoConvergence("a product of root differences underflowed")
            qr = ((fr * dr + fi * di) << bits) // den
            qi = ((fi * dr - fr * di) << bits) // den
            q2 = qr * qr + qi * qi
            if q2 >> (4 * bits):  # a step of 2**bits: the ints would grow without bound
                raise NoConvergence("a root estimate diverged")
            xr[i], xi[i] = pr - qr, pi - qi
            if q2 >= tol2:
                unfrozen.append(i)
        active = unfrozen
        if not active:
            break
    else:
        raise NoConvergence(f"no convergence in {MAX_SWEEPS} sweeps")
    roots = []
    for r, i in zip(xr, xi):
        if r * r + i * i < tol2:
            r = i = 0
        elif abs(i) < tol:
            i = 0
        elif abs(r) < tol:
            r = 0
        roots.append((r, i))
    roots.sort(key=lambda z: (abs(z[1]), z[0]))
    return _rescaled(roots, BITS - bits)


def _mul(z, w, shift=BITS):
    """z * w / 2**shift: at BITS from factors at BITS, and exact for shift 0."""
    (zr, zi), (wr, wi) = z, w
    return (zr * wr - zi * wi) >> shift, (zr * wi + zi * wr) >> shift


def _sub(z, w):
    return z[0] - w[0], z[1] - w[1]


def _div(z, w):
    """z / w rounded down: its scale is z's over w's."""
    (zr, zi), (wr, wi) = z, w
    n = wr * wr + wi * wi
    return (zr * wr + zi * wi) // n, (zi * wr - zr * wi) // n


def _abs(z):
    return isqrt(z[0] * z[0] + z[1] * z[1])


def _unit(p):
    """p scaled to |a|^2 + |b|^2 = 1 (p at any common scale, the result at BITS)."""
    norm = isqrt(sum(x * x for z in p for x in z))
    return tuple(((re << BITS) // norm, (im << BITS) // norm) for re, im in p)


def _det(p, q):
    return _sub(_mul(p[0], q[1]), _mul(q[0], p[1]))


def _chordal(p, q):
    # pairs are unit-normalised, so the determinant is the chordal distance
    return _abs(_det(p, q))


def _midpoint(p, q):
    (a, b), (c, d) = p, q
    # the phase of a conj(c) + b conj(d), which aligns q with p
    re = a[0] * c[0] + a[1] * c[1] + b[0] * d[0] + b[1] * d[1]
    im = a[1] * c[0] - a[0] * c[1] + b[1] * d[0] - b[0] * d[1]
    phase = _unit(((re, im),))[0] if re or im else (ONE, 0)
    (cr, ci), (dr, di) = _mul(phase, c), _mul(phase, d)
    return _unit(((a[0] + cr, a[1] + ci), (b[0] + dr, b[1] + di)))


def _spread_chart(points):
    """Send the best triple to (0, 1, inf) so only a true collision stays close.

    The triple is chosen (cheaply, in double precision) to maximise the
    second-smallest pairwise distance of the mapped configuration, then the
    smallest: exactly one pair may collide, so the smallest distance alone
    ties between valid charts.  Scores are rounded and the points visited
    in a canonical order (conjugates by the sign of the imaginary part), so
    float noise cannot pick among tied charts differently from one t to the
    next.  The chosen map is then applied in fixed point.
    """
    fl = [tuple(complex(z[0] / ONE, z[1] / ONE) for z in p) for p in points]

    def det(p, q):
        return p[0] * q[1] - q[0] * p[1]

    def affine(r):
        z = fl[r][0] * fl[r][1].conjugate()
        return (z.real, z.imag)

    order = sorted(range(5), key=affine)
    dets = [[det(p, q) for q in fl] for p in fl]
    best = None
    # (k, j, i) maps each point to (i, j, k)'s image with a and b swapped,
    # z -> 1/z, so its score is bitwise the same; of two twins the one met
    # first, with i before k, is the only one that can win
    for n, i in enumerate(order):
        for j in order:
            for k in order[n + 1:]:
                if j == i or j == k:
                    continue
                c1 = dets[j][k]
                c2 = dets[j][i]
                mapped = []
                for row in dets:
                    a = row[i] * c1
                    b = row[k] * c2
                    norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
                    if norm == 0:
                        break
                    mapped.append((a / norm, b / norm))
                else:
                    dists = sorted(
                        abs(det(mapped[r], mapped[s]))
                        for r in range(5)
                        for s in range(r + 1, 5)
                    )
                    score = (round(dists[1], 9), round(dists[0], 9))
                    if best is None or score > best[0]:
                        best = (score, i, j, k)
    if best is None:
        return points
    _, i, j, k = best
    c1 = _det(points[j], points[k])
    c2 = _det(points[j], points[i])
    return [_unit((_mul(_det(p, points[i]), c1), _mul(_det(p, points[k]), c2))) for p in points]


def _j_of_quadruple(quad):
    """j of four unit pairs, or None when two coincide to the fixed-point
    floor (cross-ratio 0, 1 or infinity): a second collision, so the t is
    skipped like an ambiguous one."""
    p1, p2, p3, p4 = quad
    # j as a homogeneous expression in the cross-ratio pair (num : den)
    num = _mul(_det(p1, p3), _det(p2, p4))
    den = _mul(_det(p1, p4), _det(p2, p3))
    nn, nd, dd = _mul(num, num), _mul(num, den), _mul(den, den)
    s = (nn[0] - nd[0] + dd[0], nn[1] - nd[1] + dd[1])
    trip = _mul(nd, _sub(num, den))
    if trip == (0, 0):
        return None
    # 256 s**3 / trip**2 from the exact products: scale 2**(3 * BITS) over 2**(2 * BITS)
    return _div(_mul(_mul(s, s, 0), (256 * s[0], 256 * s[1]), 0), _mul(trip, trip, 0))


def _extrapolate(values):
    """Iterated Aitken acceleration of two or more fixed pairs, with a
    last-correction error estimate (a fixed int)."""
    seq = list(values)
    last = seq[-1]
    err = _abs(_sub(seq[-1], seq[-2]))
    while len(seq) >= 3:
        nxt = []
        for k in range(len(seq) - 2):
            d1 = _sub(seq[k + 1], seq[k])
            d2 = _sub(seq[k + 2], seq[k + 1])
            den = _sub(d2, d1)
            if den == (0, 0):
                nxt.append(seq[k + 2])
            else:
                nxt.append(_sub(seq[k + 2], _div(_mul(d2, d2, 0), den)))
        err = _abs(_sub(nxt[-1], last))
        last = nxt[-1]
        seq = nxt
    return last, err

