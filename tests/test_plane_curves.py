import random
import re
from fractions import Fraction
from math import comb

import pytest

from quintic_moduli import elimination, plane_curves, polys
from quintic_moduli.binary_forms import BinaryForm, BinaryQuintic
from quintic_moduli.elimination import gcd_uni, resultant_bivar_elim, squarefree_decomposition
from quintic_moduli.intersection_ledger import plucker_counts
from quintic_moduli.invariants import (
    UnstableQuinticError,
    WPPoint,
    fermat_degree_factorization,
    invariant_triple,
    moduli_point,
)
from quintic_moduli.plane_curves import (
    _DIRECTIONS,
    FrameRetryError,
    LineChart,
    LineInCurveError,
    PlaneCurve,
    _certify_singular,
    _flex_frame,
    _taylor_tables,
    frame_determinant,
    _hessian_form,
    genericity_report,
    load_curve,
    random_invertible_frame,
    restrict_to_line,
)
from quintic_moduli.polys import MultiPoly, UniPoly, interpolate, line_restriction, powers
from quintic_moduli.scalars import GF, QQ

from conftest import (
    CURVES_DIR,
    FLEX_BITANGENT_RECORDS,
    compose,
    contact_four_hyperflex,
    dehom_y,
    evaluate,
    fermat_quintic,
    frame_with_third_column,
    hessian,
    identity_chart,
    singular_by_splitting,
)
from test_residue_rings import _report_in_frame

F = GF(10007)


def phi(curve: PlaneCurve, chart: LineChart) -> WPPoint:
    """Moduli point of the 5 intersection points of the chart's line with the curve."""
    return moduli_point(restrict_to_line(curve, chart))


def _chart_for_line(field, dual, frame):
    """Chart presenting the line {u x + v y + w z = 0} in a given frame.

    The framed dual vector is M^T (u, v, w); its z'-component must be
    nonzero for the line to be a graph z' = a x' + b y' in this frame.
    """
    u, v, w = dual
    framed = [
        field.reduce(frame[0][c] * u + frame[1][c] * v + frame[2][c] * w) for c in range(3)
    ]
    if field.is_zero(framed[2]):
        raise ValueError("line is vertical in this frame; choose another frame")
    ninv = field.inv(framed[2])
    return LineChart(field, frame, field.reduce(-framed[0] * ninv), field.reduce(-framed[1] * ninv))


def test_curve_records_roundtrip(generic_quintic):
    loaded = load_curve(CURVES_DIR / "generic.json")
    assert loaded == generic_quintic
    records = [[i, j, k, str(c)] for (i, j, k), c in loaded.poly.sorted_terms()]
    assert PlaneCurve.from_records(records) == loaded


def test_curve_validation():
    with pytest.raises(ValueError):
        PlaneCurve.from_records([[5, 0, 0, "1"], [3, 0, 0, "1"]])  # mixed degrees
    with pytest.raises(ValueError):
        PlaneCurve.from_records([])
    with pytest.raises(ValueError):
        PlaneCurve.from_records([[5, 0, 0, "1"], [5, 0, 0, "-1"]])  # cancels to zero
    with pytest.raises(ValueError):
        PlaneCurve.from_records(5)  # a curve file that is not a list


@pytest.mark.parametrize(
    "record",
    [
        [0, "5", 0, 1],  # string exponent
        [True, 4, 0, 1],  # bool exponent
        [5, 0, 0, 0.1],  # float coefficient: would be read inexactly
        [5, 0, 0, True],  # bool coefficient
        [5, 0, 0, "x/2"],  # not a rational string
        [5, 0, 0, "1/0"],
        [5, 0, 0],  # too short
        [5, 0, 0, 1, 1],  # too long
        {"i": 5, "j": 0, "k": 0, "c": 1},  # dict records are not a format
    ],
)
def test_curve_record_contract(record):
    with pytest.raises(ValueError):
        PlaneCurve.from_records([[0, 5, 0, "1"], record])


def test_fermat_restriction_closed_form():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    frame = (
        (1 / a, Fraction(0), Fraction(0)),
        (Fraction(0), 1 / b, Fraction(0)),
        (Fraction(0), Fraction(0), 1 / c),
    )
    chart = LineChart(QQ, frame, Fraction(-1), Fraction(-1))
    r = restrict_to_line(fermat_quintic(), chart)
    l, m, n = b**5 * c**5, a**5 * c**5, a**5 * b**5
    scale = 1 / (a * b * c) ** 5
    expected = [
        scale * ((l if k == 0 else 0) + (m if k == 5 else 0) - n * comb(5, k))
        for k in range(6)
    ]
    assert list(r.coeffs) == expected


def _restrict_by_parametrisation(curve: PlaneCurve, chart: LineChart) -> list:
    """Reference restriction: the ambient coordinates of the line point at
    (s : t) as order-1 binary forms, substituted into the curve."""
    F, frame, a, b = chart.field, chart.frame, chart.a, chart.b
    lins = [
        BinaryForm(F, [F.reduce(row[0] + row[2] * a), F.reduce(row[1] + row[2] * b)])
        for row in frame
    ]
    acc = [F.zero] * 6
    for (i, j, k), c in curve.poly.terms.items():
        term = BinaryForm(F, [c])
        for lin, n in zip(lins, (i, j, k)):
            for _ in range(n):
                term = term * lin
        acc = [F.reduce(a + t) for a, t in zip(acc, term.coeffs)]
    return acc


@pytest.mark.parametrize("field", [QQ, F, GF(3001)], ids=repr)
def test_restriction_matches_the_parametrised_line(generic_quintic, field):
    rng = random.Random(17)
    for n in range(12):
        curve = generic_quintic if n % 2 else fermat_quintic()
        if field is QQ:
            frame = tuple(
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
                for _ in range(3)
            )
            if frame_determinant(frame, QQ) == 0:
                continue
            a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        else:
            curve = curve.reduce_mod(field)
            frame = random_invertible_frame(field, rng)
            a, b = rng.randrange(field.p), rng.randrange(field.p)
        chart = LineChart(field, frame, a, b)
        expected = _restrict_by_parametrisation(curve, chart)
        assert list(restrict_to_line(curve, chart).coeffs) == expected


def test_phi_fermat_closed_form():
    for a, b, c in [(2, 3, 5), (1, 2, 3), (7, 2, 9)]:
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        frame = (
            (1 / a, Fraction(0), Fraction(0)),
            (Fraction(0), 1 / b, Fraction(0)),
            (Fraction(0), Fraction(0), 1 / c),
        )
        chart = LineChart(QQ, frame, Fraction(-1), Fraction(-1))
        s1 = a**5 + b**5 + c**5
        s2 = (a * b) ** 5 + (a * c) ** 5 + (b * c) ** 5
        s3 = (a * b * c) ** 5
        assert phi(fermat_quintic(), chart) == WPPoint(QQ, s1 * s1 - 4 * s2, s1 * s3, s3 * s3)


def test_line_contained_in_curve_is_an_error():
    z = MultiPoly.variable(QQ, 3, 2)
    quartic = MultiPoly(QQ, 3, {(4, 0, 0): QQ.one, (0, 4, 0): QQ.one})
    curve = PlaneCurve(z * quartic)
    with pytest.raises(LineInCurveError):
        restrict_to_line(curve, identity_chart(QQ, Fraction(0), Fraction(0)))


def _frame_through(field, P, Q, c, a, b):
    """The frame M with M (1, 0, a) = P, M (0, 1, b) = Q and M (0, 0, 1) = c:
    its chart (a, b) is the line through P and Q."""
    columns = (
        [field.reduce(P[r] - a * c[r]) for r in range(3)],
        [field.reduce(Q[r] - b * c[r]) for r in range(3)],
        c,
    )
    return tuple(tuple(column[r] for column in columns) for r in range(3))


def _framed_restriction(curve: PlaneCurve, chart: LineChart) -> list:
    """Reference restriction: the reference frame change, then
    ``line_restriction`` on z' = a x' + b y'."""
    F = chart.field
    framed = _compose_reference(curve, chart.frame)
    restrict = line_restriction(framed.terms, 2)
    return [F.reduce(c) for c in restrict(powers(F, chart.a, 5), powers(F, chart.b, 5))]


@pytest.mark.parametrize("field", [QQ, F, GF(2**31 - 1)], ids=repr)
def test_restriction_through_two_points_matches_the_framed_curve(
    monkeypatch, generic_quintic, field
):
    # charts on a line in general position (pivot z), on a line through
    # (0 : 0 : 1) (ell_z = 0, pivot x) and on y = 0 (ell_z = ell_x = 0,
    # pivot y), each in a random frame
    pivots = []
    through = plane_curves._restrict_through

    def recording(poly, ring, ell, v, P, Q):
        pivots.append(v)
        return through(poly, ring, ell, v, P, Q)

    monkeypatch.setattr(plane_curves, "_restrict_through", recording)
    rng = random.Random(31)

    def draw():
        if field is QQ:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        return field.from_int(1 + rng.randrange(field.p - 1))

    curves = (generic_quintic, PlaneCurve.from_records(FLEX_BITANGENT_RECORDS), fermat_quintic())
    for n in range(12):
        curve = curves[n % 3] if field is QQ else curves[n % 3].reduce_mod(field)
        while True:
            a, b, lam = draw(), draw(), draw()
            P, Q, c = ([draw() for _ in range(3)] for _ in range(3))
            if n % 3 == 1:
                Q[0], Q[1] = field.reduce(lam * P[0]), field.reduce(lam * P[1])
            if n % 3 == 2:
                P[1] = Q[1] = field.zero
            frame = _frame_through(field, P, Q, c, a, b)
            if not field.is_zero(frame_determinant(frame, field)):
                break
        chart = LineChart(field, frame, a, b)
        assert list(restrict_to_line(curve, chart).coeffs) == _framed_restriction(curve, chart)
    assert pivots == [2, 0, 1] * 4


@pytest.mark.parametrize("field", [QQ, F], ids=repr)
def test_a_line_in_the_curve_is_an_error_in_any_frame(field):
    # the line x + 2 y = z times a quartic, restricted to that line through
    # a frame that is not the identity
    line = MultiPoly(QQ, 3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2), (0, 0, 1): -QQ.one})
    curve = PlaneCurve(line * _form(random.Random(33), 4))
    if field is not QQ:
        curve = curve.reduce_mod(field)
    P, Q, c = ([field.from_int(x) for x in point] for point in ((1, 0, 1), (0, 1, 2), (0, 0, 1)))
    a, b = field.from_int(3), field.from_int(-2)
    chart = LineChart(field, _frame_through(field, P, Q, c, a, b), a, b)
    assert chart.frame != identity_chart(field, a, b).frame
    assert all(field.is_zero(x) for x in _framed_restriction(curve, chart))
    with pytest.raises(LineInCurveError):
        restrict_to_line(curve, chart)


def test_phi_is_frame_independent(generic_quintic):
    curve = generic_quintic.reduce_mod(F)
    rng = random.Random(10)
    dual = (F.from_int(3), F.from_int(5), F.from_int(7))
    reference = None
    checked = 0
    while checked < 50:
        frame = random_invertible_frame(F, rng)
        try:
            chart = _chart_for_line(F, dual, frame)
        except ValueError:
            continue  # line vertical in this frame
        point = phi(curve, chart)
        if reference is None:
            reference = point
        else:
            assert point == reference
        checked += 1


def test_restriction_is_linear_in_the_curve(generic_quintic):
    rng = random.Random(11)
    curve1 = generic_quintic.reduce_mod(F)
    terms = {
        (i, j, 5 - i - j): F.from_int(rng.randrange(F.p))
        for i in range(6)
        for j in range(6 - i)
    }
    curve2 = PlaneCurve(MultiPoly(F, 3, terms))
    chart = identity_chart(F, F.from_int(17), F.from_int(23))
    r1 = restrict_to_line(curve1, chart)
    r2 = restrict_to_line(curve2, chart)
    summed = PlaneCurve(curve1.poly + curve2.poly)
    r12 = restrict_to_line(summed, chart)
    assert list(r12.coeffs) == [F.reduce(x + y) for x, y in zip(r1.coeffs, r2.coeffs)]


def test_random_lines_have_stable_restrictions(generic_quintic):
    from quintic_moduli.invariants import is_stable

    curve = generic_quintic.reduce_mod(F)
    rng = random.Random(12)
    for _ in range(25):
        chart = identity_chart(
            F, F.from_int(rng.randrange(F.p)), F.from_int(rng.randrange(F.p))
        )
        assert is_stable(restrict_to_line(curve, chart))


def test_hessian_degree_and_fermat_shape():
    # H of x^5 + y^5 + z^5 is c x^3 y^3 z^3: x^3 z^3 at y = 1
    h = _hessian_form(fermat_quintic().reduce_mod(F).poly)
    assert h.arity == 2 and set(h.terms) == {(3, 3)}
    rng = random.Random(13)
    for _ in range(5):
        terms = {
            (i, j, 5 - i - j): F.from_int(rng.randrange(F.p))
            for i in range(6)
            for j in range(6 - i)
        }
        assert _hessian_form(MultiPoly(F, 3, terms)).total_degree == 9
    # a cone: five concurrent lines x^5 + y^5 = 0 through (0 : 0 : 1)
    cone = MultiPoly(F, 3, {(5, 0, 0): F.one, (0, 5, 0): F.one})
    assert _hessian_form(cone).is_zero()


def _compose_reference(curve: PlaneCurve, frame) -> MultiPoly:
    """F(M . (x', y', z')) by the sparse reference ``compose``, over any
    field: the frame change of a rational curve in these tests."""
    F = curve.field
    args = [
        MultiPoly(F, 3, {tuple(int(c == v) for v in range(3)): frame[r][c] for c in range(3)})
        for r in range(3)
    ]
    return compose(curve.poly, args)


def _hessian_reference(poly: MultiPoly) -> MultiPoly:
    """The cofactor expansion ``_det3`` of the second partials, with the
    sparse ``MultiPoly`` products that the packed Hessian replaced."""
    return plane_curves._det3(
        [[poly.derivative(r).derivative(c) for c in range(3)] for r in range(3)]
    )


def _random_form(rng, field, d: int) -> MultiPoly:
    """A form of degree d with about a third of its coefficients zero and
    one term of coefficient p - 1."""
    p = field.p
    terms = {
        (i, j, d - i - j): rng.randrange(p) if rng.random() < 0.7 else 0
        for i in range(d + 1)
        for j in range(d + 1 - i)
    }
    terms[(d, 0, 0)] = p - 1
    return MultiPoly(field, 3, terms)


def _frames(rng, field):
    """A random frame, frames with zero entries, the identity, and singular
    frames (rank 2, rank 1, zero)."""
    p = field.p
    r = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    sparse = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(3)] for _ in range(3)]
    rank2 = [r[0], r[1], [(r[0][c] + 2 * r[1][c]) % p for c in range(3)]]
    rank1 = [r[0], [2 * x % p for x in r[0]], [0, 0, 0]]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    top = [[p - 1] * 3] * 3
    return [r, sparse, [[0, r[0][1], 0], [r[1][0], 0, 0], [0, 0, r[2][2]]], identity, top,
            rank2, rank1, [[0] * 3] * 3]


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_packed_frame_change_matches_compose(p):
    field = GF(p)
    rng = random.Random(p)
    for d in range(1, 7):
        curve = PlaneCurve(_random_form(rng, field, d))
        for frame in _frames(rng, field):
            frame = tuple(tuple(field.from_int(x) for x in row) for row in frame)
            expected = _compose_reference(curve, frame)
            if expected.is_zero():  # a singular frame can collapse the curve
                with pytest.raises(ValueError, match="zero polynomial"):
                    curve.composed_with_frame(frame)
                continue
            framed = curve.composed_with_frame(frame)
            assert framed.poly == expected and framed.degree == d, (d, frame)


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_packed_hessian_matches_the_cofactor_expansion(p):
    # forms of degree 2..6 (a conic's Hessian is a constant), framed by
    # frames with zero entries and singular frames, and cones
    field = GF(p)
    rng = random.Random(p + 1)
    for d in range(2, 7):
        curve = PlaneCurve(_random_form(rng, field, d))
        forms = [curve.poly]
        for frame in _frames(rng, field):
            framed = _compose_reference(curve, frame)
            if not framed.is_zero():
                forms.append(framed)
        # a cone: a binary form in x and y alone, through (0 : 0 : 1)
        forms.append(MultiPoly(field, 3, {e: c for e, c in curve.poly.terms.items() if not e[2]}))
        for form in forms:
            reference = _hessian_reference(form)
            assert _hessian_form(form) == dehom_y(reference), d
            assert reference.is_zero() or reference.total_degree == 3 * (d - 2)
        assert _hessian_form(forms[-1]).is_zero()
    assert _hessian_form(MultiPoly(field, 3, {(1, 0, 0): 1, (0, 0, 1): 2})).is_zero()


def test_hessian_rejects_QQ():
    with pytest.raises(ValueError, match="prime field"):
        _hessian_form(fermat_quintic().poly)


def test_frame_change_rejects_QQ(generic_quintic):
    identity = tuple(tuple(Fraction(int(r == c)) for c in range(3)) for r in range(3))
    with pytest.raises(ValueError, match="prime field"):
        generic_quintic.composed_with_frame(identity)


# the frame change reads 128-bit slots at 10007 and 384 at 2**61 - 1, the
# Hessian 64 and 256: at 2**61 - 1 the Hessian's bias plus bound just
# passes 2**192
@pytest.mark.parametrize("p, widths", [(10007, [128, 64]), (2**61 - 1, [384, 256])])
def test_frame_change_and_hessian_slots_stay_within_their_bounds(monkeypatch, p, widths):
    # every coefficient and frame entry p - 1, the largest slots either makes
    rings = []

    class RecordingRing(polys._KroneckerRing):
        def __init__(self, p, stride, bound):
            super().__init__(p, stride, bound)
            self.bound, self.largest = bound, 0
            rings.append(self)

        def _slots(self, x):
            slots = super()._slots(x)
            self.largest = max(self.largest, *(abs(c - self.bias) for c in slots))
            return slots

    monkeypatch.setattr(plane_curves, "_KroneckerRing", RecordingRing)
    field = GF(p)
    top = MultiPoly(field, 3, {(i, j, 5 - i - j): p - 1 for i in range(6) for j in range(6 - i)})
    frame = ((p - 1,) * 3,) * 3
    assert PlaneCurve(top).composed_with_frame(frame).poly == _compose_reference(PlaneCurve(top), frame)
    assert _hessian_form(top) == dehom_y(_hessian_reference(top))
    assert [ring.width for ring in rings] == widths
    assert all(0 < ring.largest <= ring.bound for ring in rings)


def test_packed_frame_change_of_a_reduced_curve_is_the_reduced_QQ_change(generic_quintic):
    # the reference frame change over QQ, reduced mod p, is what the packed
    # path gives on the reduced curve and frame
    rng = random.Random(29)
    frame = tuple(
        tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3))
        for _ in range(3)
    )
    framed = PlaneCurve(_compose_reference(generic_quintic, frame))
    for p in (10007, 2**31 - 1):
        field = GF(p)
        reduced_frame = tuple(tuple(field.from_fraction(x) for x in row) for row in frame)
        packed = generic_quintic.reduce_mod(field).composed_with_frame(reduced_frame)
        assert packed == framed.reduce_mod(field)


def test_plucker_counts():
    assert plucker_counts(5) == (20, 45, 120)
    assert plucker_counts(4) == (12, 24, 28)
    d = 5
    assert plucker_counts(5).bitangent_count == d * (d - 2) * (d - 3) * (d + 3) // 2 == 120
    with pytest.raises(ValueError):
        plucker_counts(3)


def test_flex_cycle_has_degree_45(generic_quintic):
    curve = generic_quintic.reduce_mod(F)
    flex_res = resultant_bivar_elim(dehom_y(curve.poly), _hessian_form(curve.poly))
    assert flex_res.degree == 45


def test_genericity_fixture_is_generic(generic_quintic):
    for prime in (10007, 3001):
        report = genericity_report(generic_quintic, prime, seed=1)
        assert report.smooth
        assert report.flex_cycle_ok
        assert report.distinct_flex_count == 45
        assert report.flexes_verified == 45
        assert report.generic


def test_genericity_flags_fermat():
    report = genericity_report(fermat_quintic(), 10007, seed=1)
    assert report.smooth
    assert report.flex_cycle_ok  # the cycle still has total degree 45
    assert report.distinct_flex_count == 15  # each flex triples
    assert report.flexes_verified == 0  # contact order is 5, not 3
    assert not report.generic


def test_genericity_flags_nodal_curve():
    # force a singular point at (0:0:1): kill z^5, x z^4 and y z^4
    rng = random.Random(14)
    while True:
        terms = {}
        for i in range(6):
            for j in range(6 - i):
                k = 5 - i - j
                if (i, j, k) in ((0, 0, 5), (1, 0, 4), (0, 1, 4)):
                    continue
                coeff = rng.randint(-9, 9)
                if coeff:
                    terms[(i, j, k)] = Fraction(coeff)
        if terms:
            nodal = PlaneCurve(MultiPoly(QQ, 3, terms))
            if nodal.degree == 5:
                break
    report = genericity_report(nodal, 10007, seed=2)
    assert not report.smooth
    assert not report.generic


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def _form(rng: random.Random, degree: int) -> MultiPoly:
    """Seeded ternary form of the given degree with every coefficient nonzero."""
    terms = {
        (i, j, degree - i - j): _coefficient(rng)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    }
    return MultiPoly(QQ, 3, terms)


def _singular_at_vertex(rng: random.Random, tangent_cone: dict, cubic_has_x3: bool):
    """z^3 Q(x, y) + z^2 C + z D + E, the given Q and seeded C, D, E in (x, y):
    the point (0 : 0 : 1) has multiplicity 2 and tangent cone Q."""
    terms = dict(tangent_cone)
    for degree in (3, 4, 5):
        for i in range(degree + 1):
            if degree == 3 and i == 3 and not cubic_has_x3:
                continue
            terms[(i, degree - i, 5 - degree)] = _coefficient(rng)
    return MultiPoly(QQ, 3, terms)


def _singular_quintic(kind: str) -> PlaneCurve:
    rng = random.Random(kind)
    one = Fraction(1)
    if kind == "cusp":  # tangent cone y^2, x^3 z^2 present: y^2 = x^3 locally
        return PlaneCurve(_singular_at_vertex(rng, {(0, 2, 3): one}, True))
    if kind == "tacnode":  # tangent cone y^2, no x^3 z^2: y^2 = x^4 locally
        return PlaneCurve(_singular_at_vertex(rng, {(0, 2, 3): one}, False))
    if kind == "affine-node":  # node of tangent cone x y, moved to (1 : 2 : 1)
        nodal = PlaneCurve(_singular_at_vertex(rng, {(1, 1, 3): one}, True))
        zero = Fraction(0)
        frame = ((one, zero, -one), (zero, one, -2 * one), (zero, zero, one))
        return PlaneCurve(_compose_reference(nodal, frame))
    factors = {
        "conic-cubic": (2, 3),
        "line-quartic": (1, 4),
        "five-lines": (1, 1, 1, 1, 1),
    }
    if kind in factors:
        poly = MultiPoly(QQ, 3, {(0, 0, 0): one})
        for degree in factors[kind]:
            poly = poly * _form(rng, degree)
        return PlaneCurve(poly)
    if kind == "line-squared-cubic":  # non-reduced
        line = _form(rng, 1)
        return PlaneCurve(line * line * _form(rng, 3))
    if kind == "concurrent-lines":  # a cone over (0 : 0 : 1): zero Hessian
        poly = MultiPoly(QQ, 3, {(0, 0, 0): one})
        for _ in range(5):
            line = {(1, 0, 0): _coefficient(rng), (0, 1, 0): _coefficient(rng)}
            poly = poly * MultiPoly(QQ, 3, line)
        return PlaneCurve(poly)
    raise ValueError(kind)


SINGULAR_KINDS = (
    "cusp",
    "tacnode",
    "affine-node",
    "conic-cubic",
    "line-quartic",
    "line-squared-cubic",
    "five-lines",
    "concurrent-lines",
)


@pytest.mark.parametrize("prime", [3001, 10007])
@pytest.mark.parametrize("kind", SINGULAR_KINDS)
def test_genericity_flags_singular_curves(kind, prime):
    report = genericity_report(_singular_quintic(kind), prime)
    assert not report.smooth and not report.flex_cycle_ok and not report.generic
    assert (report.distinct_flex_count, report.flexes_verified) == (0, 0)
    assert report.frames_tried == 1
    assert report.notes == ["curve is singular; flex analysis skipped"]


def test_phi_rejects_inflectional_lines(generic_quintic):
    curve = generic_quintic.reduce_mod(F)
    h = hessian(curve.poly)
    flex_res = resultant_bivar_elim(dehom_y(curve.poly), dehom_y(h))
    u0 = next(x for x in range(F.p) if flex_res.eval(x) == 0)

    # lift to the flex point: common z-root of curve and hessian above u0
    def fiber_poly(poly, u):
        out = {}
        for (i, j, k), c in poly.terms.items():
            val = F.reduce(c * F.pow(F.from_int(u), i))  # y = 1
            out[k] = F.reduce(out[k] + val) if k in out else val
        n = max(out)
        return UniPoly(F, [out.get(k, F.zero) for k in range(n + 1)])

    g = gcd_uni(fiber_poly(curve.poly, u0), fiber_poly(h, u0))
    assert g.degree == 1
    z0 = F.reduce(-F.reduce(g.coeffs[0] * F.inv(g.coeffs[1])))
    point = (F.from_int(u0), F.one, z0)
    dual = tuple(
        evaluate(curve.poly.derivative(v), point) for v in range(3)
    )
    rng = random.Random(15)
    while True:
        frame = random_invertible_frame(F, rng)
        try:
            chart = _chart_for_line(F, dual, frame)
            break
        except ValueError:
            continue
    with pytest.raises(UnstableQuinticError):
        phi(curve, chart)


def test_pencil_through_random_point_has_no_unstable_lines(generic_quintic):
    # lines through Q, parametrised by a moving second point R0 + s R1;
    # an unstable restriction would be a common root of the three invariant
    # charts, whose gcd must therefore be constant
    curve = generic_quintic.reduce_mod(F)
    rng = random.Random(16)
    q = tuple(F.from_int(rng.randrange(F.p)) for _ in range(3))
    r0 = tuple(F.from_int(rng.randrange(F.p)) for _ in range(3))
    r1 = tuple(F.from_int(rng.randrange(F.p)) for _ in range(3))

    def restriction_at(s):
        rs = tuple(F.reduce(a + F.reduce(F.from_int(s) * b)) for a, b in zip(r0, r1))
        lins = [BinaryForm(F, [q[i], rs[i]]) for i in range(3)]
        pows = []
        for lin in lins:
            row = [BinaryForm(F, [F.one])]
            for _ in range(5):
                row.append(row[-1] * lin)
            pows.append(row)
        acc = [F.zero] * 6
        for (i, j, k), c in curve.poly.terms.items():
            term = (pows[0][i] * pows[1][j] * pows[2][k]).coeffs
            acc = [F.reduce(a + F.reduce(c * t)) for a, t in zip(acc, term)]
        return BinaryQuintic(F, acc)

    samples4, samples8, samples12 = [], [], []
    for s in range(61):
        i4, i8, i12 = invariant_triple(restriction_at(s))
        samples4.append(i4)
        samples8.append(i8)
        samples12.append(i12)
    p4 = interpolate(samples4, F)
    p8 = interpolate(samples8, F)
    p12 = interpolate(samples12, F)
    assert gcd_uni(gcd_uni(p4, p8), p12).degree == 0


def test_fermat_degree_factorization():
    assert fermat_degree_factorization() == 150


#: bivariate eliminations in one frame of a report: R, then, for each
#: repeated part of R, one Res_z(F, F_x + lambda F_z) per lambda the
#: singular check takes before its gcd is 1: one where no singular point
#: lies above the part (Fermat's hyperflexes, a contact-4 hyperflex), all
#: six at a singular point.  A line component makes R = 0, which is singular
#: with no check
ELIMINATIONS_PER_FRAME = {
    "generic": 1,
    "fermat": 2,
    "contact-4 hyperflex": 2,
    "cusp": 7,
    "tacnode": 7,
    "affine-node": 7,
    "conic-cubic": 7,
    "line-quartic": 1,
    "five-lines": 1,
}


def test_genericity_runs_one_elimination_per_frame(generic_quintic, monkeypatch):
    # smoothness is read off the flex eliminant's repeated factors, so the
    # flex eliminant is the only bivariate elimination a frame of the
    # generic curve makes; a frame retried for R's degree costs R alone
    calls = []

    def counting(f, g, **options):
        calls.append(options)
        return resultant_bivar_elim(f, g, **options)

    monkeypatch.setattr(plane_curves, "resultant_bivar_elim", counting)
    curves = {
        "generic": generic_quintic,
        "fermat": fermat_quintic(),
        "contact-4 hyperflex": contact_four_hyperflex(0),
    }
    singular = ("cusp", "tacnode", "affine-node", "conic-cubic", "line-quartic", "five-lines")
    curves.update((kind, _singular_quintic(kind)) for kind in singular)
    retried = 0
    for name, curve in curves.items():
        for prime, seed in [(2503, 11), *((p, s) for p in (2503, 3001, 5003, 10007) for s in range(3))]:
            calls.clear()
            report = genericity_report(curve, prime, seed=seed)
            retried += report.frames_tried - 1
            assert len(calls) == report.frames_tried - 1 + ELIMINATIONS_PER_FRAME[name], (name, prime, seed)
    assert retried > 0  # at seed 11 the first frame is degenerate for the cusp


def _singular_check_inputs(curve: PlaneCurve, field, frame):
    """(F, F_x and F_z at y = 1, R) in the frame, as ``genericity_report``
    computes them."""
    framed = curve.reduce_mod(field).composed_with_frame(frame).poly
    tables = _taylor_tables(framed)
    at_y1 = [MultiPoly(field, 2, tables[0][d]) for d in _DIRECTIONS[:3]]
    return at_y1, resultant_bivar_elim(at_y1[0], _hessian_form(framed), subresultant=True)[0]


def _repeated_parts(eliminant: UniPoly) -> list:
    return [part for part, mult in squarefree_decomposition(eliminant) if mult > 1]


def test_the_singular_check_needs_a_sixth_lambda():
    # f = z (z - 1) ... (z - 4) + u z with g1 = -z and g2 = 1: at u = 0,
    # g1 + lambda g2 has the root z = lambda, a root of f exactly for lambda
    # = 0..4, so the first five resultants vanish there and only the sixth
    # shows that f, g1 and g2 share no zero above u = 0
    field = GF(2503)
    f = MultiPoly.constant(field, 2, field.one)
    for i in range(5):
        f = f * MultiPoly(field, 2, {(0, 1): field.one, (0, 0): field.from_int(-i)})
    f = f + MultiPoly(field, 2, {(1, 1): field.one})
    g1 = MultiPoly(field, 2, {(0, 1): field.from_int(-1)})
    g2 = MultiPoly.constant(field, 2, field.one)
    values = [resultant_bivar_elim(f, g1 + g2.scale(lam)).eval(0) for lam in range(6)]
    assert values[:5] == [0] * 5 and values[5] != 0
    u = UniPoly.x(field)
    assert not _certify_singular((f, g1, g2), u)
    assert not singular_by_splitting((f, g1, g2), u)


def _node_with_z_free_polar(seed: int, lam: int) -> PlaneCurve:
    """A(x, y) + B(y, z - lam x), A and B seeded binary quintics, with a node
    at (0 : 1 : 0): A has no x y^4 term, B(y, w) no y^4 w term, and their
    y^5 coefficients cancel.  F_x + lam F_z = A_x is free of z."""
    rng = random.Random(seed)
    x, y, z = (MultiPoly.variable(QQ, 3, v) for v in range(3))
    top = _coefficient(rng)
    poly = MultiPoly.zero(QQ, 3)
    for var, low in ((x, top), (z - x.scale(Fraction(lam)), -top)):
        coeffs = [low, Fraction(0), *(_coefficient(rng) for _ in range(4))]
        power = MultiPoly.constant(QQ, 3, QQ.one)
        for k, c in enumerate(coeffs):  # c var^k y^(5 - k)
            poly = poly + MultiPoly(QQ, 3, {(0, 5 - k, 0): c}) * power
            power = power * var
    return PlaneCurve(poly)


def test_a_z_free_polar_makes_the_singular_check_redraw(monkeypatch):
    # in the identity frame the node is at u = z = 0, one repeated part u of
    # R with multiplicity 6, and at lambda = 3 the polar F_x + 3 F_z has no
    # z, which resultant_bivar_elim refuses: the check redraws the frame,
    # and the next frame finds the node
    field, lam = GF(2503), 3
    curve = _node_with_z_free_polar(0, lam)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    at_y1, eliminant = _singular_check_inputs(curve, field, identity)
    assert eliminant.degree == 45
    parts = squarefree_decomposition(eliminant)
    assert [(part, mult) for part, mult in parts if mult > 1] == [(UniPoly.x(field), 6)]
    polar = at_y1[1] + at_y1[2].scale(lam)
    assert polar.degree_in(1) == 0 and polar.total_degree == 4
    with pytest.raises(ValueError, match="eliminated variable"):
        resultant_bivar_elim(at_y1[0], polar)
    cause = "F_x + 3 F_z is free of z; reframe"
    with pytest.raises(FrameRetryError, match=re.escape(cause)):
        _certify_singular(at_y1, UniPoly.x(field))
    assert singular_by_splitting(at_y1, UniPoly.x(field))
    report = _report_in_frame(monkeypatch, curve, field.p, 0, identity)
    assert not report.smooth and report.frames_tried == 2
    assert report.notes == [f"frame 1: {cause}", "curve is singular; flex analysis skipped"]


def _fiber(poly: MultiPoly, field, x: int) -> UniPoly:
    """A ternary form over GF(p) at (x, 1, z), as a polynomial in z."""
    coeffs = [0] * (poly.total_degree + 1)
    for (i, _, k), c in poly.terms.items():
        coeffs[k] = (coeffs[k] + c * pow(x, i, field.p)) % field.p
    return UniPoly(field, coeffs)


@pytest.mark.parametrize("prime", [2503, 3001])
def test_the_singular_check_agrees_with_dynamic_evaluation(prime):
    # on the repeated part of R, one per curve and frame, in ten seeded
    # frames, against the gcd of F, F_x and F_z over the tests' splitting
    # ring
    field = GF(prime)
    curves = [fermat_quintic(), contact_four_hyperflex(0), contact_four_hyperflex(2)]
    curves += [_singular_quintic(kind) for kind in ("cusp", "tacnode", "affine-node", "conic-cubic")]
    compared, singular = 0, 0
    for curve in curves:
        reduced = curve.reduce_mod(field)
        for seed in range(10):
            frame = random_invertible_frame(field, random.Random(seed))
            at_y1, eliminant = _singular_check_inputs(reduced, field, frame)
            if eliminant.degree != 45:
                continue
            for part in _repeated_parts(eliminant):
                found = _certify_singular(at_y1, part)
                assert found == singular_by_splitting(at_y1, part)
                compared += 1
                singular += found
    assert (compared, singular) == (70, 40)


def _tangent_through(poly: MultiPoly, field, point) -> tuple:
    """A point (x : 1 : z) of the curve over GF(p), other than ``point``,
    whose tangent line passes through ``point``."""
    polar = MultiPoly.zero(field, 3)
    for v in range(3):
        polar = polar + poly.derivative(v).scale(point[v])
    for x in range(field.p):
        common = gcd_uni(_fiber(poly, field, x), _fiber(polar, field, x))
        for z in range(field.p) if common.degree >= 1 else ():
            if common.eval(z) == 0 and (x, 1, z) != point:
                return (x, 1, z)
    raise AssertionError("no rational point's tangent passes through the point")


@pytest.mark.parametrize(
    "name, prime, point, singular",
    [
        ("cusp", 2503, (0, 0, 1), True),
        ("cusp", 3001, (0, 0, 1), True),
        ("fermat", 2503, (1, 2502, 0), False),
        ("contact-4 hyperflex", 3001, (0, 0, 1), False),
    ],
)
def test_the_singular_check_where_the_lead_of_f_vanishes_on_a_repeated_fiber(
    monkeypatch, name, prime, point, singular
):
    # the frame puts framed (0 : 0 : 1) at a curve point whose tangent runs
    # through the cusp, a Fermat hyperflex or the contact-4 hyperflex, so
    # F's z-lead a u + b would vanish at the root of R that point gives: the
    # frame is redrawn before its Hessian is built, and the next frame gives
    # the verdict
    curve = {
        "cusp": _singular_quintic("cusp"),
        "fermat": fermat_quintic(),
        "contact-4 hyperflex": contact_four_hyperflex(0),
    }[name]
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    frame = frame_with_third_column(field, _tangent_through(reduced.poly, field, point))
    framed = reduced.composed_with_frame(frame)
    assert (0, 0, 5) not in framed.poly.terms
    cause = "frame puts (0 : 0 : 1) on the curve; reframe"
    with pytest.raises(FrameRetryError, match=re.escape(cause)):
        _flex_frame(framed)
    report = _report_in_frame(monkeypatch, curve, prime, 0, frame)
    assert (report.frames_tried, report.notes[0]) == (2, f"frame 1: {cause}")
    assert report.smooth is not singular


@pytest.mark.parametrize("prime", [2503, 10007, 2**31 - 1])
def test_certificate_frames_pass_the_traced_benchmark_gates(generic_quintic, monkeypatch, prime):
    # mirrors the traced CI gates on the certificate: per frame, one
    # _resultant_modp call per sample of R (46), one _eval_slices call per
    # input and one interpolate call inside resultant_bivar_elim, while
    # genericity_report interpolates s0 and s1 itself, on all 46 of R's
    # nodes; on the generic curve c0 and c2 vanish at every flex, so the
    # probe makes one gcd_uni call, for the roots where c3 (c4^2 - 4 c3 c5)
    # vanishes, and no tangent restriction
    counts = {"resultant": 0, "slices": 0, "gcd": 0}
    inside, outside = [], []

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(elimination, "_resultant_modp", "resultant")
    counting(elimination, "_eval_slices", "slices")
    counting(plane_curves, "gcd_uni", "gcd")
    for module, sizes in ((elimination, inside), (plane_curves, outside)):
        monkeypatch.setattr(
            module, "interpolate", lambda values, field, sizes=sizes: sizes.append(len(values))
            or interpolate(values, field)
        )

    def no_restriction(*args):
        raise AssertionError("the flex probe restricts no tangent line")

    monkeypatch.setattr(plane_curves, "_restrict_through", no_restriction)
    for seed in range(3):
        for key in counts:
            counts[key] = 0
        inside.clear()
        outside.clear()
        report = genericity_report(generic_quintic, prime, seed=seed)
        assert report.generic and report.frames_tried == 1
        assert counts == {"resultant": 46, "slices": 2, "gcd": 1}
        assert inside == [46] and outside == [46, 46]
