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
never looks at the table: it evaluates the family at small t > 0, isolates
the five complex roots by fixed-point Durand-Kerner iteration on Python
ints on a precision ladder (stages at 2 x 64, 2 x 128 and 2 x 256 bits
while below the mpmath working precision, then the full solve at 2 x the
working precision, with a cold solve at 4 x as its fallback), renormalises
the configuration into a spread-out chart, merges the one genuinely
colliding pair, takes the cross-ratio j, and extrapolates t -> 0 from a
geometric schedule.  Agreement of the two paths is the module's
main test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .invariants import ConfigClass, OneDouble, TwoDoubles
from .polys import MultiPoly
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
    all-zero list with finite truncation is rejected as undecidable.
    """

    __slots__ = ("alpha", "beta", "truncation")

    def __init__(self, alpha: Sequence, beta: Sequence, truncation: int | None = None):
        alpha = tuple(Fraction(c) for c in alpha)
        beta = tuple(Fraction(c) for c in beta)
        if alpha and alpha[0] != 0 or beta and beta[0] != 0:
            raise ValueError("arcs must satisfy alpha(0) = beta(0) = 0")
        if truncation is not None:
            if len(alpha) > truncation or len(beta) > truncation:
                raise ValueError("more coefficients supplied than the declared truncation")
            la, lb = _lead(alpha), _lead(beta)
            if la is None or lb is None:
                if (la is None and alpha) or (lb is None and beta) or not (alpha and beta):
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


@dataclass(frozen=True)
class ProjectivePair:
    """A point (a : b) of the projective line over the rationals."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("(0 : 0) is not a projective point")

    def __eq__(self, other):
        if not isinstance(other, ProjectivePair):
            return NotImplemented
        return self.a * other.b == other.a * self.b

    def __hash__(self):
        raise TypeError("ProjectivePair is unhashable (projective equality)")


def exceptional_coordinate(arc: ArcSpec) -> ProjectivePair:
    """Where a balanced arc (2m = 3n) hits the last exceptional divisor.

    Two arcs with equal coordinates (alpha0^3 : beta0^2) have equal limits.
    """
    la, lb = arc.alpha_lead, arc.beta_lead
    if la is None or lb is None or 2 * lb[0] != 3 * la[0]:
        raise ValueError("exceptional coordinate is defined only for balanced arcs")
    return ProjectivePair(la[1] ** 3, lb[1] ** 2)


class FlexNormalForm:
    """The quartic f4 presenting the curve as x0^3 (x0-x1) x1 + x2 f4 = 0.

    Normalised by f4(0, 1, 0) = 1 (smoothness at the flex point).
    """

    __slots__ = ("quartic",)

    def __init__(self, quartic: MultiPoly):
        if quartic.arity != 3 or quartic.field is not QQ:
            raise ValueError("the flex quartic is a rational ternary form")
        if any(sum(e) != 4 for e in quartic.terms):
            raise ValueError("f4 must be homogeneous of degree 4")
        if quartic.terms.get((0, 4, 0)) != Fraction(1):
            raise ValueError("normalisation requires f4(0, 1, 0) = 1")
        self.quartic = quartic

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


#: Working precision of the numeric oracle, in decimal digits.
ORACLE_DPS = 120
#: A t is skipped unless its second-closest root pair is this many times
#: farther apart than the closest (the colliding) pair.
AMBIGUITY_RATIO = 3.0
#: |j| above this at the last three points, and growing, reads as divergence.
DIVERGENCE_THRESHOLD = 1e9
#: Most points (used plus skipped) the schedule grows to.
MAX_POINTS = 20


def arc_limit_numeric(
    normal_form: FlexNormalForm,
    arc: ArcSpec,
    target_error: float = 1e-8,
) -> NumericLimit:
    """Floating-point limit of j along the arc, without the case table.

    For each t of a geometric schedule the five intersection points of the
    moving line with the curve are isolated in arbitrary-precision complex
    arithmetic, the configuration is moved to a balanced chart, the single
    colliding pair is merged, and j of the remaining quadruple is computed;
    the t -> 0 limit is extrapolated from those values.  The schedule
    starts as ``default_schedule()`` and is extended by the same ratio
    until the extrapolation's own error estimate clears ``target_error``
    (or ``MAX_POINTS`` is reached).  A t whose root clustering is ambiguous
    is skipped; if fewer than 4 points survive, a ValueError is raised.

    Roots are isolated by ``_durand_kerner``, mpmath's own Durand-Kerner
    iteration run in fixed point on Python ints.  The roots move
    continuously along the schedule, so each root solve is warm-started
    from the previous t's roots (rescaled to the new balanced chart); the
    first t and a t where the number of finite roots changes start from
    mpmath's cold starts.  From there the solve climbs a precision ladder
    (``_solve_roots``): stages at working precision p = 64, 128 and 256
    bits (those below prec, the oracle's working precision), each
    iterating at 2 * p bits from the previous stage's roots and skipped if
    it does not converge, then the full solve at 2 * prec bits with its
    eps stopping test.  If that does not converge, a cold solve at
    4 * prec bits decides.
    """
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        schedule = [mp.mpf(t) for t in default_schedule()]
        ratio = schedule[-1] / schedule[-2]
        js = []
        skipped = 0
        roots = None

        def sample(t):
            nonlocal skipped, roots
            jt, roots = _j_at_parameter(mp, normal_form, arc, t, roots)
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
            tail = [abs(v) for v in js[-3:]]
            if all(v > DIVERGENCE_THRESHOLD for v in tail) and tail[0] < tail[-1]:
                return NumericLimit(
                    j=None,
                    error=float("inf"),
                    diverged=True,
                    points_used=len(js),
                    points_skipped=skipped,
                )
            estimate, err = _extrapolate(mp, js)
            good_enough = err < target_error * (1 + abs(estimate))
            if good_enough or len(js) + skipped >= MAX_POINTS:
                return NumericLimit(
                    j=complex(estimate),
                    error=float(err),
                    diverged=False,
                    points_used=len(js),
                    points_skipped=skipped,
                )
            t = schedule[-1] * ratio
            schedule.append(t)
            sample(t)


def _family_coefficients(mp, normal_form: FlexNormalForm, arc: ArcSpec, t):
    """Descending coefficient list of the restricted quintic at parameter t."""
    alpha = mp.mpf(0)
    for c in reversed(arc.alpha):
        alpha = alpha * t + mp.mpf(c.numerator) / c.denominator
    beta = mp.mpf(0)
    for c in reversed(arc.beta):
        beta = beta * t + mp.mpf(c.numerator) / c.denominator
    # coeffs[k] multiplies x0^(5-k) x1^k;  x0^3 (x0 - x1) x1 = x0^4 x1 - x0^3 x1^2
    coeffs = [mp.mpf(0)] * 6
    coeffs[1] += 1
    coeffs[2] -= 1
    ap = [mp.mpf(1)]
    bp = [mp.mpf(1)]
    for _ in range(5):
        ap.append(ap[-1] * alpha)
        bp.append(bp[-1] * beta)
    for (i, j, k), c in normal_form.quartic.terms.items():
        cf = mp.mpf(c.numerator) / c.denominator
        for r in range(k + 2):  # (alpha x0 + beta x1)^(k+1)
            coeffs[j + k + 1 - r] += cf * comb(k + 1, r) * ap[r] * bp[k + 1 - r]
    return coeffs  # descending in x = x0/x1


def _j_at_parameter(mp, normal_form, arc, t, prev_roots=None):
    """j of the merged configuration at t (None if the clustering is
    ambiguous), and the finite roots in the x-chart, which seed the next t."""
    coeffs = _family_coefficients(mp, normal_form, arc, t)
    # projective roots as pairs (a : b); exact-zero top coefficients are
    # roots at infinity of the x-chart
    lead_zeros = 0
    while lead_zeros < 5 and coeffs[lead_zeros] == 0:
        lead_zeros += 1
    poly = coeffs[lead_zeros:]
    if len(poly) > 1:
        # balance extreme coefficient magnitudes before root finding:
        # x = sigma * y puts the geometric mean of the roots near 1
        deg = len(poly) - 1
        tail = next((c for c in reversed(poly) if c != 0), None)
        sigma = (abs(tail) / abs(poly[0])) ** (mp.mpf(1) / deg)
        if sigma == 0 or mp.isinf(sigma):
            sigma = mp.mpf(1)
        scaled = [c * sigma ** (deg - k) for k, c in enumerate(poly)]
        start = None
        if prev_roots is not None and len(prev_roots) == deg:
            # continuation: the previous t's roots are close, so the
            # simultaneous iteration converges in a few quadratic steps
            start = [r / sigma for r in prev_roots]
        roots = [r * sigma for r in _solve_roots(mp, scaled, start)]
    else:
        roots = []
    points = [(mp.mpc(r), mp.mpc(1)) for r in roots]
    points.extend([(mp.mpc(1), mp.mpc(0))] * lead_zeros)
    if len(points) != 5:
        return None, roots
    points = [_unit(mp, p) for p in points]
    points = _spread_chart(mp, points)
    # the colliding pair is the unique closest one
    dists = []
    for i in range(5):
        for j in range(i + 1, 5):
            dists.append((_chordal(mp, points[i], points[j]), i, j))
    dists.sort(key=lambda d: d[0])
    if dists[0][0] > 0 and dists[1][0] / dists[0][0] < AMBIGUITY_RATIO:
        return None, roots
    _, i, j = dists[0]
    merged = _midpoint(mp, points[i], points[j])
    quad = [p for k, p in enumerate(points) if k not in (i, j)] + [merged]
    return _j_of_quadruple(mp, quad), roots


#: Working precisions (bits) of the ladder stages that run before a root
#: solve's full-precision one; only those below the working precision run.
LADDER_PRECS = (64, 128, 256)
#: Most Durand-Kerner sweeps a root solve may take.
MAX_SWEEPS = 1000


def _solve_roots(mp, coeffs, start):
    """The roots ``_durand_kerner`` finds at 2 * prec bits, reached on a precision ladder.

    Each stage of ``LADDER_PRECS`` below the working precision prec runs at
    twice its precision from the previous stage's roots, the first from
    ``start`` (or the cold starts); a stage that does not converge is
    skipped.  The last solve runs at 2 * prec bits, so its stopping test is
    the one a direct solve would use; if it does not converge either, a cold
    solve at 4 * prec bits decides.
    """
    prec = mp.mp.prec
    roots = start
    for p in LADDER_PRECS:
        if p >= prec:
            break
        with mp.workprec(p):
            try:
                roots = _durand_kerner(mp, coeffs, 2 * p, roots)
            except mp.mp.NoConvergence:
                pass
    try:
        return _durand_kerner(mp, coeffs, 2 * prec, roots)
    except mp.mp.NoConvergence:
        return _durand_kerner(mp, coeffs, 4 * prec)


def _durand_kerner(mp, coeffs, bits, init=None):
    """All roots of the polynomial with descending ``coeffs``, as mpmath's root finder.

    Gauss-Seidel Durand-Kerner (Weierstrass) iteration in fixed point: the
    polynomial is made monic at ``bits`` precision, and every real and
    imaginary part becomes a Python int scaled by 2**bits, so a sweep costs
    big-int multiplies and one complex division per root.  A root is frozen
    once its correction falls below ``mp.mp.eps`` (mpmath's absolute
    test), and the solve ends when all are.  ``init`` gives the starting
    roots; without it they are mpmath's (0.4 + 0.9i)^k.

    As in mpmath, a real or imaginary part below eps becomes exactly
    0 and the roots are sorted by (|im|, re); they are returned rounded to
    the working precision.  Raises ``mp.mp.NoConvergence`` after
    ``MAX_SWEEPS`` sweeps, when a product of root differences underflows to
    0 (two estimates closer than 2**-bits), or when a correction reaches
    2**bits (the estimates diverge, and fixed point has no exponent to
    absorb them), so that the caller can retry from another start or at
    more bits.
    """
    to_fixed = mp.libmp.to_fixed
    deg = len(coeffs) - 1
    with mp.workprec(bits):
        lead = coeffs[0]
        monic = [mp.mpc(c) / lead for c in coeffs[1:]]
    if init is None:
        init = [(0.4 + 0.9j) ** k for k in range(deg)]

    def fixed(z):
        z = mp.convert(z)  # no rounding to the working precision
        return to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)

    cs = [fixed(c) for c in monic]
    xr, xi = map(list, zip(*map(fixed, init)))
    one = 1 << bits
    tol = 1 << (bits + 1 - mp.mp.prec)  # eps at the working precision
    tol2 = tol * tol
    active = list(range(deg))
    for _ in range(MAX_SWEEPS):
        unfrozen = []
        for i in active:
            pr, pi = xr[i], xi[i]
            fr, fi = one, 0
            for cr, ci in cs:  # Horner
                fr, fi = ((fr * pr - fi * pi) >> bits) + cr, ((fr * pi + fi * pr) >> bits) + ci
            dr, di = one, 0
            for j in range(deg):
                if j != i:
                    ur, ui = pr - xr[j], pi - xi[j]
                    dr, di = (dr * ur - di * ui) >> bits, (dr * ui + di * ur) >> bits
            den = dr * dr + di * di
            if not den:
                raise mp.mp.NoConvergence("a product of root differences underflowed")
            qr = ((fr * dr + fi * di) << bits) // den
            qi = ((fi * dr - fr * di) << bits) // den
            q2 = qr * qr + qi * qi
            if q2 >> (4 * bits):  # a step of 2**bits: the ints would grow without bound
                raise mp.mp.NoConvergence("a root estimate diverged")
            xr[i], xi[i] = pr - qr, pi - qi
            if q2 >= tol2:
                unfrozen.append(i)
        active = unfrozen
        if not active:
            break
    else:
        raise mp.mp.NoConvergence(f"no convergence in {MAX_SWEEPS} sweeps")
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
    return [mp.mpc(mp.mpf((r, -bits)), mp.mpf((i, -bits))) for r, i in roots]


def _unit(mp, p):
    a, b = p
    norm = mp.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
    return (a / norm, b / norm)


def _det(p, q):
    return p[0] * q[1] - q[0] * p[1]


def _chordal(mp, p, q):
    # pairs are unit-normalised, so the determinant is the chordal distance
    return abs(_det(p, q))


def _midpoint(mp, p, q):
    phase = p[0] * mp.conj(q[0]) + p[1] * mp.conj(q[1])
    if phase != 0:
        phase = phase / abs(phase)
    else:
        phase = mp.mpc(1)
    m = (p[0] + phase * q[0], p[1] + phase * q[1])
    return _unit(mp, m)


def _spread_chart(mp, points):
    """Send the best triple to (0, 1, inf) so only a true collision stays close.

    The triple is chosen (cheaply, in double precision) to maximise the
    second-smallest pairwise distance of the mapped configuration, then the
    smallest: exactly one pair may collide, so the smallest distance alone
    ties between valid charts.  Scores are rounded and the points visited
    in a canonical order (conjugates by the sign of the imaginary part), so
    float noise cannot pick among tied charts differently from one t to the
    next.  The chosen map is then applied at working precision.
    """
    fl = [(complex(a), complex(b)) for a, b in points]

    def affine(r):
        z = fl[r][0] * fl[r][1].conjugate()
        return (z.real, z.imag)

    order = sorted(range(5), key=affine)
    dets = [[_det(p, q) for q in fl] for p in fl]
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
                        abs(_det(mapped[r], mapped[s]))
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
    out = []
    for p in points:
        a = _det(p, points[i]) * c1
        b = _det(p, points[k]) * c2
        out.append(_unit(mp, (a, b)))
    return out


def _j_of_quadruple(mp, quad):
    p1, p2, p3, p4 = quad
    num = _det(p1, p3) * _det(p2, p4)
    den = _det(p1, p4) * _det(p2, p3)
    # j as a homogeneous expression in the cross-ratio pair (num : den)
    s = num * num - num * den + den * den
    trip = num * den * (num - den)
    if trip == 0:
        return mp.mpf("inf")
    return 256 * s**3 / trip**2


def _extrapolate(mp, values):
    """Iterated Aitken acceleration with a last-correction error estimate."""
    seq = list(values)
    last = seq[-1]
    err = abs(seq[-1] - seq[-2]) if len(seq) > 1 else mp.mpf("inf")
    while len(seq) >= 3:
        nxt = []
        for k in range(len(seq) - 2):
            d1 = seq[k + 1] - seq[k]
            d2 = seq[k + 2] - seq[k + 1]
            den = d2 - d1
            if abs(den) == 0:
                nxt.append(seq[k + 2])
            else:
                nxt.append(seq[k + 2] - d2 * d2 / den)
        err = abs(nxt[-1] - last)
        last = nxt[-1]
        seq = nxt
    return last, err
