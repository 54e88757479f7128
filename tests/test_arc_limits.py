import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from quintic_moduli.arc_limits import (
    ArcSpec,
    FlexNormalForm,
    ProjectivePair,
    arc_limit,
    arc_limit_numeric,
    classify_arc,
    default_schedule,
    exceptional_coordinate,
)
from quintic_moduli.invariants import OneDouble, TwoDoubles
from quintic_moduli.polys import MultiPoly
from quintic_moduli.scalars import QQ, Field

from conftest import compose, j_from_cross_ratio, make_arc_suite, to_fixed


def _normal_form(terms: dict) -> FlexNormalForm:
    """The flex normal form with quartic sum of c x^i y^j z^k over ``terms``."""
    return FlexNormalForm(MultiPoly(QQ, 3, {e: Fraction(c) for e, c in terms.items()}))


def compose_series(outer: Sequence[Fraction], inner: Sequence[Fraction], order: int):
    """Coefficients of outer(inner(t)) below the given order (reparametrisation
    t -> inner(t); ``inner`` must vanish at 0)."""
    outer = [Fraction(c) for c in outer]
    inner = [Fraction(c) for c in inner]
    if inner and inner[0] != 0:
        raise ValueError("inner series must vanish at 0")
    out = [Fraction(0)] * order
    power = [Fraction(0)] * order  # inner^k, truncated
    if order > 0:
        power[0] = Fraction(1)
    for k, c in enumerate(outer):
        if k > 0:
            new = [Fraction(0)] * order
            for i, a in enumerate(power):
                if a == 0:
                    continue
                for j, b in enumerate(inner):
                    if i + j >= order:
                        break
                    new[i + j] += a * b
            power = new
        if c != 0:
            for i, a in enumerate(power):
                out[i] += c * a
    return out


def stretch_series(coeffs: Sequence[Fraction], k: int):
    """Base change t -> t^k on a coefficient list."""
    out = [Fraction(0)] * ((len(coeffs) - 1) * k + 1 if coeffs else 0)
    for i, c in enumerate(coeffs):
        if c != 0:
            out[i * k] = Fraction(c)
    return out


def test_case_table_worked_examples():
    assert arc_limit(ArcSpec([0, 1], [0, 1])) == OneDouble(Fraction(0))
    assert arc_limit(ArcSpec([0, 1], [])) == OneDouble(Fraction(1728))
    assert arc_limit(ArcSpec([0, 1], [0, 0, 5])) == OneDouble(Fraction(1728))  # m = 2n
    # balanced with nonvanishing 4 a0^3 - 27 b0^2
    assert arc_limit(ArcSpec([0, 0, 1], [0, 0, 0, 1])) == OneDouble(
        Fraction(1728 * 4, 4 - 27)
    )
    # the degenerate two-double-point locus
    assert arc_limit(ArcSpec([0, 0, 3], [0, 0, 0, 2])) == TwoDoubles()
    assert arc_limit(ArcSpec([0, 0, -3], [0, 0, 0, 2])) == OneDouble(Fraction(864))
    # intermediate slopes: n < m < 2n split along 2m vs 3n
    assert arc_limit(ArcSpec([0, 0, 0, 1], [0, 0, 0, 0, 1])) == OneDouble(Fraction(0))
    assert arc_limit(
        ArcSpec([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 1])
    ) == OneDouble(Fraction(1728))


def test_case_boundaries_consistent_with_neighbours():
    # m = n sits in the beta-dominant regime
    assert arc_limit(ArcSpec([0, 9], [0, 1])) == OneDouble(Fraction(0))
    # m = 2n sits in the alpha-dominant regime and matches 2m > 3n
    assert arc_limit(ArcSpec([0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1])) == OneDouble(
        Fraction(1728)
    )


def test_both_series_zero_rejected():
    with pytest.raises(ValueError):
        arc_limit(ArcSpec([], []))


def test_truncation_invariants():
    ArcSpec([0, 1], [0, 1], truncation=6)  # fine: max(3, 2) < 6
    with pytest.raises(ValueError):
        ArcSpec([0, 1], [0, 1], truncation=3)  # needs more than max(3n, 2m)
    with pytest.raises(ValueError):
        ArcSpec([0, 0, 0, 0], [0, 1], truncation=6)  # alpha vanishes to order
    with pytest.raises(ValueError, match="vanishes to its declared order"):
        ArcSpec([0, 1], [], truncation=6)  # beta exactly empty, yet truncated
    with pytest.raises(ValueError):
        ArcSpec([0, 1, 2, 3], [0, 1], truncation=2)  # more terms than declared
    with pytest.raises(ValueError):
        ArcSpec([1, 1], [0, 1])  # alpha(0) != 0


def test_reparametrisation_invariance():
    rng = random.Random(20)
    arcs = make_arc_suite(24, seed=77)
    for arc in arcs:
        while True:
            c1 = Fraction(rng.randint(-4, 4))
            if c1:
                break
        unit = [Fraction(0), c1] + [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        la, lb = arc.alpha_lead, arc.beta_lead
        order = max(3 * (la[0] if la else 1), 2 * (lb[0] if lb else 1)) + 2
        alpha = compose_series(arc.alpha, unit, order)
        beta = compose_series(arc.beta, unit, order)
        composed = ArcSpec(alpha, beta, truncation=None)
        assert arc_limit(composed) == arc_limit(arc)


def test_base_change_invariance():
    arcs = make_arc_suite(16, seed=78)
    for arc in arcs:
        for k in (2, 3):
            stretched = ArcSpec(
                stretch_series(arc.alpha, k), stretch_series(arc.beta, k)
            )
            assert arc_limit(stretched) == arc_limit(arc)


def test_balanced_j_depends_only_on_weighted_ratio():
    rng = random.Random(21)
    base = ArcSpec([0, 0, 5], [0, 0, 0, 3])
    reference = arc_limit(base)
    ref_pair = exceptional_coordinate(base)
    for _ in range(50):
        c = Fraction(rng.randint(1, 9)) * rng.choice([1, -1])
        scaled = ArcSpec([0, 0, 5 * c**2], [0, 0, 0, 3 * c**3])
        assert arc_limit(scaled) == reference
        assert exceptional_coordinate(scaled) == ref_pair


def test_exceptional_coordinate():
    pair = exceptional_coordinate(ArcSpec([0, 0, 2], [0, 0, 0, 1]))
    assert pair == ProjectivePair(Fraction(8), Fraction(1))
    with pytest.raises(ValueError):
        exceptional_coordinate(ArcSpec([0, 1], [0, 1]))  # not balanced
    rng = random.Random(22)
    for _ in range(20):
        a0 = Fraction(rng.randint(1, 9)) * rng.choice([1, -1])
        b0 = Fraction(rng.randint(1, 9)) * rng.choice([1, -1])
        arc = ArcSpec([0, 0, a0], [0, 0, 0, b0])
        pair = exceptional_coordinate(arc)
        limit = arc_limit(arc)
        denom = 4 * pair.a - 27 * pair.b
        if denom == 0:
            assert limit == TwoDoubles()
        else:
            assert limit == OneDouble(1728 * 4 * pair.a / denom)


def test_case_labels():
    assert classify_arc(ArcSpec([0, 1], [0, 1]))[0] == "beta-dominant-j0"
    assert classify_arc(ArcSpec([0, 1], []))[0] == "alpha-dominant-j1728"
    assert classify_arc(ArcSpec([0, 0, 1], [0, 0, 0, 1]))[0] == "balanced"
    assert classify_arc(ArcSpec([0, 0, 3], [0, 0, 0, 2]))[0] == "balanced-degenerate"
    assert classify_arc(ArcSpec([0, 0, 0, 1], [0, 0, 0, 0, 1]))[0] == "intermediate-j0"


def test_numeric_oracle_spot_checks():
    nf = FlexNormalForm.default()
    num = arc_limit_numeric(nf, ArcSpec([0, 1], [0, 1]))
    assert not num.diverged and abs(num.j) < 1e-6
    num = arc_limit_numeric(nf, ArcSpec([0, 1], []))
    assert abs(num.j - 1728) < 1e-6 * 1728
    num = arc_limit_numeric(nf, ArcSpec([0, 0, 1], [0, 0, 0, 1]))
    assert abs(num.j - float(Fraction(1728 * 4, 4 - 27))) < 1e-4
    num = arc_limit_numeric(nf, ArcSpec([0, 0, 3], [0, 0, 0, 2]))
    assert num.diverged


def test_numeric_oracle_is_normal_form_independent():
    arc = ArcSpec([0, 0, 1], [0, 0, 0, 1])
    nf1 = FlexNormalForm.default()
    nf2 = _normal_form(
        {(0, 4, 0): 1, (2, 0, 2): 3, (4, 0, 0): -2, (1, 2, 1): 5}
    )
    j1 = arc_limit_numeric(nf1, arc).j
    j2 = arc_limit_numeric(nf2, arc).j
    assert abs(j1 - j2) < 1e-6 * max(1.0, abs(j1))


def test_default_schedule_is_geometric():
    sched = default_schedule()
    assert len(sched) == 12 and sched[0] == 0.08
    assert all(abs(b / a - 0.22) < 1e-12 for a, b in zip(sched, sched[1:]))


def test_flex_normal_form_validation():
    with pytest.raises(ValueError):
        _normal_form({(4, 0, 0): 1})  # f4(0, 1, 0) != 1
    with pytest.raises(ValueError):
        _normal_form({(0, 4, 0): 1, (1, 1, 1): 2})  # degree 3 term


def _random_flex_quartic(rng) -> FlexNormalForm:
    """A flex normal form with a seeded quartic: f4(0, 1, 0) = 1, the rest
    random fractions, each monomial present with probability 0.6."""
    terms = {(0, 4, 0): 1}
    for i in range(5):
        for j in range(5 - i):
            e = (i, j, 4 - i - j)
            if e != (0, 4, 0) and rng.random() < 0.6:
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return _normal_form(terms)


def _exact_family(normal_form: FlexNormalForm, alpha: Fraction, beta: Fraction):
    """Coefficients of x0^(5-k) x1^k in x0^3 (x0 - x1) x1 + x2 f4 at x2 =
    alpha x0 + beta x1, by composing the quintic with that substitution."""
    x0, x1 = MultiPoly.variable(QQ, 2, 0), MultiPoly.variable(QQ, 2, 1)
    x2 = x0.scale(alpha) + x1.scale(beta)
    head = MultiPoly(QQ, 3, {(4, 1, 0): Fraction(1), (3, 2, 0): Fraction(-1)})
    quintic = head + normal_form.quartic * MultiPoly.variable(QQ, 3, 2)
    composed = compose(quintic, [x0, x1, x2])
    return [composed.terms.get((5 - k, k), Fraction(0)) for k in range(6)]


def test_family_coefficients_are_the_exact_family_times_one_denominator():
    from quintic_moduli.arc_limits import _family_coefficients

    rng = random.Random(61)
    schedule = [Fraction(t) for t in default_schedule()]
    for normal_form in [FlexNormalForm.default()] + [_random_flex_quartic(rng) for _ in range(4)]:
        _, d = QQ.clear_denominators(list(normal_form.quartic.terms.values()))
        for _ in range(6):
            alpha = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))]
            beta = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))]
            arc = ArcSpec(alpha, beta)
            for t in rng.sample(schedule, 3):
                a = sum(c * t**n for n, c in enumerate(arc.alpha))
                b = sum(c * t**n for n, c in enumerate(arc.beta))
                scale = d * Fraction(a).denominator ** 5 * Fraction(b).denominator ** 5
                got = _family_coefficients(normal_form, arc, t)
                assert all(type(c) is int for c in got)
                assert got == [scale * c for c in _exact_family(normal_form, a, b)]


def test_numeric_oracle_triple_collision_arc():
    # three roots shrink onto 0 as an equilateral triangle: the
    # cluster-preserving chart must not make every t look ambiguous
    arc = ArcSpec([0, 0, -5, -2, 3], [0, 0, 3, 0, 1])
    num = arc_limit_numeric(FlexNormalForm.default(), arc)
    assert not num.diverged and abs(num.j) < 1e-6


def test_spread_chart_keeps_the_colliding_pair_close():
    import mpmath as mp

    from quintic_moduli.arc_limits import ONE, _chordal, _spread_chart, _unit

    with mp.workdps(50):
        finite = [(mp.mpc(x), mp.mpc(1)) for x in (0, mp.mpf("1e-4"), 1, -1)]
        points = [_unit((to_fixed(a), to_fixed(b))) for a, b in finite + [(mp.mpc(1), mp.mpc(0))]]
    chart = _spread_chart(points)
    dists = sorted(
        (_chordal(chart[i], chart[j]) / ONE, i, j)
        for i in range(5)
        for j in range(i + 1, 5)
    )
    # the pair stays the closest and the others spread: the chosen chart's
    # second-smallest distance is about 1/sqrt(2) (a max-min chart gets 0.32)
    assert dists[0][1:] == (0, 1)
    assert dists[1][0] > 0.7


def test_numeric_oracle_picks_one_of_two_conjugate_charts():
    """Tied conjugate charts are resolved the same way at every t, so the
    imaginary part of j_t (nonzero at finite t) never flips sign."""
    from quintic_moduli.arc_limits import _j_at_parameter

    nf = FlexNormalForm.default()
    arc = ArcSpec([0, 1], [0, 1])
    signs = set()
    roots = None
    for t in default_schedule():
        jt, roots = _j_at_parameter(nf, arc, Fraction(t), roots)
        if jt is not None:
            signs.add((jt[1] > 0) - (jt[1] < 0))
    assert len(signs) == 1


def test_numeric_oracle_readme_arc_precision():
    num = arc_limit_numeric(FlexNormalForm.default(), ArcSpec([0, 0, 1], [0, 0, 0, 1]))
    exact = -6912 / 23
    assert abs(num.j - exact) <= 1e-10 * abs(num.j)


@pytest.mark.parametrize(
    "alpha, beta", [([0, 0, 1], [0, 0, 0, 1]), ([0, 0, 3], [0, 0, 0, 2])]
)
def test_numeric_oracle_cold_fallback(monkeypatch, alpha, beta):
    """Every warm-started root solve failing gives the cold-start answer,
    which the cold solve at 4 * prec bits computes."""
    from quintic_moduli import arc_limits

    nf = FlexNormalForm.default()
    arc = ArcSpec(alpha, beta)
    warm = arc_limit_numeric(nf, arc)
    solve = arc_limits._durand_kerner
    refused = []
    cold_bits = []

    def no_warm_start(monic, bits, prec, init=None):
        if init is not None:
            refused.append(1)
            raise arc_limits.NoConvergence("refused")
        cold_bits.append(bits // prec)
        return solve(monic, bits, prec)

    monkeypatch.setattr(arc_limits, "_durand_kerner", no_warm_start)
    cold = arc_limit_numeric(nf, arc)
    assert refused
    assert 4 in cold_bits
    assert cold.diverged == warm.diverged
    if not warm.diverged:
        assert abs(cold.j - warm.j) <= 1e-7 * abs(warm.j)


def _exhaustive_spread_chart(points):
    """The reference chart search: all 60 ordered triples, (k, j, i) scored
    as well as its twin (i, j, k).  Returns the chosen triple and the chart."""
    from quintic_moduli.arc_limits import ONE, _det, _mul, _unit

    def _float_det(p, q):
        return p[0] * q[1] - q[0] * p[1]

    fl = [tuple(complex(z[0] / ONE, z[1] / ONE) for z in p) for p in points]

    def affine(r):
        z = fl[r][0] * fl[r][1].conjugate()
        return (z.real, z.imag)

    order = sorted(range(5), key=affine)
    dets = [[_float_det(p, q) for q in fl] for p in fl]
    best = None
    for i in order:
        for j in order:
            for k in order:
                if len({i, j, k}) != 3:
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
                        abs(_float_det(mapped[r], mapped[s]))
                        for r in range(5)
                        for s in range(r + 1, 5)
                    )
                    score = (round(dists[1], 9), round(dists[0], 9))
                    if best is None or score > best[0]:
                        best = (score, i, j, k)
    if best is None:
        return None, points
    _, i, j, k = best
    c1 = _det(points[j], points[k])
    c2 = _det(points[j], points[i])
    chart = [_unit((_mul(_det(p, points[i]), c1), _mul(_det(p, points[k]), c2))) for p in points]
    return (i, j, k), chart


def _spread_chart_configurations(mp):
    """Seeded configurations and tie-heavy ones, as unit pairs."""
    from quintic_moduli.arc_limits import _unit

    inf = (mp.mpc(1), mp.mpc(0))
    configs = []
    rng = random.Random(2026)
    for _ in range(40):
        zs = [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
        if rng.random() < 0.3:  # a colliding pair
            zs[1] = zs[0] + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-6
        configs.append([(z, mp.mpc(1)) for z in zs])
    roots = [mp.expjpi(2 * mp.mpf(k) / 5) for k in range(5)]
    configs.append([(z, mp.mpc(1)) for z in roots])  # fifth roots of unity
    configs.append([(z * 2, mp.mpc(1)) for z in roots[:4]] + [inf])
    for a, b, c in [(1, 2, 0), (0.5, 1, 3), (-1, 1, 1)]:  # conjugate-symmetric
        base = [(mp.mpc(a, b), 1), (mp.mpc(a, -b), 1), (mp.mpc(c), 1)]
        configs.append(base + [(mp.mpc(-a, b), 1), (mp.mpc(-a, -b), 1)])
        configs.append(base + [(mp.mpc(c + 1e-5), 1), inf])
    configs.append([(mp.mpc(x), mp.mpc(1)) for x in (0, 1e-4, 1, -1)] + [inf])
    configs.append([(mp.mpc(x), mp.mpc(1)) for x in (-2, -1, 0, 1, 2)])
    return [[_unit((to_fixed(mp.mpc(a)), to_fixed(mp.mpc(b)))) for a, b in c] for c in configs]


def test_spread_chart_matches_the_exhaustive_search():
    """Scoring only the twin with i before k picks the triple the 60-triple
    search picks, ties included."""
    import mpmath as mp

    from quintic_moduli.arc_limits import _spread_chart

    with mp.workdps(50):
        configurations = _spread_chart_configurations(mp)
    for points in configurations:
        triple, want = _exhaustive_spread_chart(points)
        assert triple is not None
        assert _spread_chart(points) == want, triple


# Fixed-point range: j and the Aitken values carry an absolute floor of
# 2**-BITS.  Exact inputs are rounded down to fixed pairs, (re, im) -> ints.


def _fixed(re, im=0):
    from quintic_moduli.arc_limits import ONE

    return math.floor(Fraction(re) * ONE), math.floor(Fraction(im) * ONE)


def _exact(z):
    from quintic_moduli.arc_limits import ONE

    return Fraction(z[0], ONE), Fraction(z[1], ONE)


@pytest.mark.parametrize("scale", [Fraction(10**9), Fraction(1, 10**40)])
def test_extrapolate_keeps_the_floor_at_both_ends_of_the_range(scale):
    """Aitken's first pass is exact on L + c r**n; near the divergence
    threshold and near 1e-40 the estimate lands on L to within a few units
    of 2**-BITS."""
    from quintic_moduli.arc_limits import BITS, _extrapolate

    limit = (scale * Fraction(7, 6), scale * Fraction(-1, 3))
    c, r = scale / 5, Fraction(-2, 9)
    values = [_fixed(limit[0] + c * r**n, limit[1] - c * r**n) for n in range(12)]
    estimate, err = _extrapolate(values)
    floor = Fraction(16, 2**BITS)
    got = _exact(estimate)
    assert abs(got[0] - limit[0]) <= floor and abs(got[1] - limit[1]) <= floor
    assert err <= 16


class _GaussianRational:
    """a + b i with Fraction parts: the operators j_from_cross_ratio uses."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        return _GaussianRational(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _GaussianRational(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return _GaussianRational(
            self.a * other.a - self.b * other.b, self.a * other.b + self.b * other.a
        )


class _GaussianRationals(Field):
    """The field Q(i), exact."""

    one = _GaussianRational(1)

    def from_int(self, n):
        return _GaussianRational(n)

    def is_zero(self, x):
        return x.a == 0 and x.b == 0

    def reduce(self, x):
        return x

    def inv(self, x):
        norm = x.a * x.a + x.b * x.b
        return _GaussianRational(x.a / norm, -x.b / norm)


def _quadruple(lam):
    """Unit pairs of (lam : 1), (1 : 1), (0 : 1), (1 : 0): cross-ratio lam."""
    from quintic_moduli.arc_limits import ONE, _unit

    return [
        _unit((_fixed(lam.a, lam.b), (ONE, 0))),
        _unit(((ONE, 0), (ONE, 0))),
        ((0, 0), (ONE, 0)),
        ((ONE, 0), (0, 0)),
    ]


def test_j_of_quadruple_matches_the_exact_j_far_from_1():
    from quintic_moduli.arc_limits import BITS, _j_of_quadruple

    field = _GaussianRationals()
    # a cross-ratio near 0: j near 2.6e12
    lam = _GaussianRational(Fraction(1, 10**5), Fraction(1, 10**6))
    want = j_from_cross_ratio(lam, field)
    got = _exact(_j_of_quadruple(_quadruple(lam)))
    assert abs(want.a) > 1e12
    assert abs(got[0] - want.a) + abs(got[1] - want.b) <= 1e-200 * abs(want.a)
    # a cross-ratio 1e-14 from exp(i pi / 3), where j vanishes: j near 2.6e-40,
    # which keeps the absolute floor
    q = Fraction(math.isqrt(3 * 10**40 // 4 - 10**26), 10**20)
    lam = _GaussianRational(Fraction(1, 2), q)
    want = j_from_cross_ratio(lam, field)
    got = _exact(_j_of_quadruple(_quadruple(lam)))
    assert 1e-40 < abs(want.a) < 1e-39
    assert abs(got[0] - want.a) + abs(got[1] - want.b) <= Fraction(16, 2**BITS)


def test_a_degenerate_quadruple_has_no_j():
    """Two coinciding points (cross-ratio 0, 1 or infinity) give None, so
    ``_j_at_parameter`` skips that t like an ambiguous one."""
    from quintic_moduli.arc_limits import _j_of_quadruple

    p1, p2, p3, p4 = _quadruple(_GaussianRational(Fraction(2, 7), Fraction(1, 3)))
    for quad in ([p1, p1, p3, p4], [p1, p2, p1, p4], [p1, p2, p3, p3]):
        assert _j_of_quadruple(quad) is None
    assert _j_of_quadruple([p1, p2, p3, p4]) is not None
