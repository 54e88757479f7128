import importlib
import random
import re

import pytest

from quintic_moduli import PlaneCurve, fiber_counting
from quintic_moduli.binary_forms import BinaryQuintic
from quintic_moduli.elimination import gcd_uni, resultant_bivar_elim, squarefree_decomposition
from quintic_moduli.fiber_counting import (
    ELIMINANT_DEGREE,
    FIBER_SYSTEM_DEGREES,
    FiberCountError,
    FiberRetryError,
    build_fiber_system,
    count_fiber,
    flex_lines,
)
from quintic_moduli.invariants import WPPoint, invariant_triple
from quintic_moduli.plane_curves import (
    _hessian_form,
    genericity_report,
    load_curve,
    random_invertible_frame,
)
from quintic_moduli.polys import (
    MultiPoly,
    UniPoly,
    _KroneckerRing,
    interpolate,
    interpolate_bivariate,
    line_restriction,
    powers,
)
from quintic_moduli.residue_rings import ResidueRing
from quintic_moduli.scalars import GF, is_prime

from conftest import (
    ACCEPTANCE_PRIMES,
    CURVES_DIR,
    contact_four_hyperflex,
    evaluate,
    fermat_quintic,
    frame_with_third_column,
)
from test_plane_curves import _singular_quintic

F = GF(10007)
#: The count the oracle reproduces on a generic quintic, and the flex part
#: accounting for the rest of the Bezout number: 600 = 420 + 45 * 4.
EXPECTED_FIBER_DEGREE = 420
EXPECTED_FLEX_PART = (45, 4)


@pytest.fixture(scope="module")
def fixture_mod_p(generic_quintic):
    return generic_quintic.reduce_mod(F)


@pytest.fixture(scope="module")
def sample_system(fixture_mod_p):
    rng = random.Random(100)
    frame = random_invertible_frame(F, rng)
    target = WPPoint(F, F.from_int(7), F.from_int(31), F.from_int(59))
    g1, g2 = build_fiber_system(fixture_mod_p.composed_with_frame(frame), target)
    return frame, target, g1, g2


def test_fiber_system_degrees(sample_system):
    _, _, g1, g2 = sample_system
    assert (g1.total_degree, g2.total_degree) == FIBER_SYSTEM_DEGREES == (20, 30)


def _system_at(restrict, target, a, b):
    """(G1, G2) at one chart point over GF(p), through ``invariant_triple``
    on the restriction by ``line_restriction`` there."""
    p = target.field.p
    c1, c2, c3 = target.coords()
    ap, bp = powers(target.field, a, 5), powers(target.field, b, 5)
    i4, i8, i12 = invariant_triple(
        BinaryQuintic(target.field, [c % p for c in restrict(ap, bp)])
    )
    return (c2 * i4**2 - c1**2 * i8) % p, (c3 * i4**3 - c1**3 * i12) % p


def _lattice_system(framed_poly, target):
    """The lattice reference: G1 and G2 at the 496 chart points a + b <= 30,
    interpolated by ``interpolate_bivariate``."""
    restrict = line_restriction(framed_poly.terms, 2)
    n = FIBER_SYSTEM_DEGREES[1]
    values = [[_system_at(restrict, target, a, b) for b in range(n + 1 - a)] for a in range(n + 1)]
    return tuple(
        interpolate_bivariate([[v[k] for v in row] for row in values], target.field)
        for k in (0, 1)
    )


def test_fiber_system_matches_tensor_grid_interpolation(fixture_mod_p, sample_system):
    # reference: G1, G2 on the full 31 x 31 grid, interpolated in b along
    # each row and then in a coefficient by coefficient
    frame, target, g1, g2 = sample_system
    framed = fixture_mod_p.composed_with_frame(frame)
    restrict = line_restriction(framed.poly.terms, 2)
    side = range(FIBER_SYSTEM_DEGREES[1] + 1)
    grids = ([], [])
    for a in side:
        rows = ([], [])
        for b in side:
            for row, value in zip(rows, _system_at(restrict, target, a, b)):
                row.append(value)
        for grid, row in zip(grids, rows):
            grid.append(interpolate(row, F))
    for grid, system in zip(grids, (g1, g2)):
        terms = {}
        for k in side:
            column = [row.coeffs[k] if k < len(row.coeffs) else 0 for row in grid]
            for d, c in enumerate(interpolate(column, F).coeffs):
                if c:
                    terms[(d, k)] = c
        assert system == MultiPoly(F, 2, terms)


def _chain_bound(p: int) -> int:
    return fiber_counting._CHAIN_WEIGHT * (p - 1) ** 3


def _chart_ring(p: int) -> _KroneckerRing:
    """The ring ``build_fiber_system`` runs the chain in."""
    return _KroneckerRing(p, fiber_counting._STRIDE, _chain_bound(p))


# the chain's slots are 64 bits up to 10007 and grow to 128 at 2**31 - 1
@pytest.mark.parametrize(
    "prime, width", [(2503, 64), (3001, 64), (5003, 64), (10007, 64), (2**31 - 1, 128)]
)
def test_fiber_system_matches_the_lattice_reference(generic_quintic, prime, width):
    field = GF(prime)
    curve = generic_quintic.reduce_mod(field)
    assert _chart_ring(prime).width == width
    rng = random.Random(prime)
    for _ in range(2):
        target = fiber_counting._draw_target(field, rng)
        frame = random_invertible_frame(field, rng)
        expected = _lattice_system(curve.composed_with_frame(frame).poly, target)
        assert build_fiber_system(curve.composed_with_frame(frame), target) == expected


#: The largest prime whose chain bound fits 64-bit slots, and the next prime.
SLOT_EDGE_PRIMES = (23719, 23741)


@pytest.mark.parametrize("prime, width", zip(SLOT_EDGE_PRIMES, (64, 128)))
def test_chain_at_the_slot_edge(monkeypatch, prime, width):
    # a framed quintic whose coefficients are all p - 1, in the least slot
    # that holds bias + bound: the chain matches the lattice reference, and
    # no slot it reduces or reads passes the derived bound
    assert [q for q in range(SLOT_EDGE_PRIMES[0], SLOT_EDGE_PRIMES[1] + 1) if is_prime(q)] == list(
        SLOT_EDGE_PRIMES
    )
    largest = []

    class RecordingRing(_KroneckerRing):
        def _slots(self, x):
            slots = super()._slots(x)
            largest.append(max(abs(c - self.bias) for c in slots))
            return slots

    ring = RecordingRing(prime, fiber_counting._STRIDE, _chain_bound(prime))
    top = ring.bias + _chain_bound(prime)
    assert ring.width == width and top < 1 << width and top >= 1 << width - 64
    field = GF(prime)
    poly = MultiPoly(field, 3, {(i, j, 5 - i - j): prime - 1 for i in range(6) for j in range(6 - i)})
    target = WPPoint(field, field.from_int(7), field.from_int(31), field.from_int(59))
    monkeypatch.setattr(fiber_counting, "_KroneckerRing", RecordingRing)
    system = build_fiber_system(PlaneCurve(poly), target)  # in the identity frame
    assert system == _lattice_system(poly, target)
    assert 0 < max(largest) <= _chain_bound(prime) <= ring.bias


def test_chain_table_matches_the_invariant_chain(monkeypatch, fixture_mod_p, sample_system):
    # the stride and the slot bound are derived from _CHAIN: it must list the
    # transvectants invariant_triple runs (the unscaled kernel
    # _transvectant_sums), in order, and on this generic draw each operand's
    # coefficients reach their chart degree bound exactly, which pins the
    # coefficient degrees d of _CHAIN too
    calls = []
    ring = _chart_ring(F.p)

    def degree(form):
        return max(i + j for c in form.coeffs for i, j in ring.terms(c))

    def recording(g, h, k):
        calls.append(((g.order, degree(g)), (h.order, degree(h)), k))
        return sums(g, h, k)

    # the package exports the function invariants, which hides the module
    chain_module = importlib.import_module("quintic_moduli.invariants")
    sums = chain_module._transvectant_sums
    monkeypatch.setattr(chain_module, "_transvectant_sums", recording)
    frame, target, g1, g2 = sample_system
    assert build_fiber_system(fixture_mod_p.composed_with_frame(frame), target) == (g1, g2)
    assert [(g[0], h[0], k) for g, h, k in calls] == [
        (g[1], h[1], k) for g, h, k in fiber_counting._CHAIN
    ]
    for (g, h, k), (dg, dh, _) in zip(calls, fiber_counting._CHAIN):
        assert g[1] == fiber_counting._chart_degree(*dg)
        assert h[1] == fiber_counting._chart_degree(*dh)
    assert max(g[1] + h[1] for g, h, _ in calls) < fiber_counting._STRIDE


def test_fiber_system_rejects_zero_first_coordinate(fixture_mod_p):
    rng = random.Random(101)
    frame = random_invertible_frame(F, rng)
    target = WPPoint(F, F.zero, F.one, F.one)
    with pytest.raises(ValueError):
        build_fiber_system(fixture_mod_p.composed_with_frame(frame), target)


def test_inflectional_lines_are_common_zeros(fixture_mod_p, sample_system):
    # find a rational inflectional line and express it in the chart of the
    # sample system: both fiber equations must vanish there
    frame, _, g1, g2 = sample_system
    curve = fixture_mod_p
    h = _hessian_form(curve.poly)

    def dehom(poly):
        terms = {}
        for (i, j, k), c in poly.terms.items():
            e = (i, k)
            terms[e] = F.reduce(terms.get(e, F.zero) + c)
        return MultiPoly(F, 2, terms)

    flex_res = resultant_bivar_elim(dehom(curve.poly), dehom(h))
    u0 = next(x for x in range(F.p) if flex_res.eval(x) == 0)

    def fiber_poly(poly, u):
        out = {}
        for (i, j, k), c in poly.terms.items():
            val = F.reduce(c * F.pow(F.from_int(u), i))
            out[k] = F.reduce(out[k] + val) if k in out else val
        return UniPoly(F, [out.get(k, F.zero) for k in range(max(out) + 1)])

    g = gcd_uni(fiber_poly(curve.poly, u0), fiber_poly(h, u0))
    assert g.degree == 1
    z0 = F.reduce(-F.reduce(g.coeffs[0] * F.inv(g.coeffs[1])))
    point = (F.from_int(u0), F.one, z0)
    dual = tuple(evaluate(curve.poly.derivative(v), point) for v in range(3))
    framed_dual = [
        F.reduce(
            F.reduce(F.reduce(frame[0][c] * dual[0]) + F.reduce(frame[1][c] * dual[1]))
            + F.reduce(frame[2][c] * dual[2])
        )
        for c in range(3)
    ]
    assert not F.is_zero(framed_dual[2]), "flex line vertical in this frame; unlucky"
    ninv = F.reduce(-F.inv(framed_dual[2]))
    a0, b0 = F.reduce(framed_dual[0] * ninv), F.reduce(framed_dual[1] * ninv)
    assert evaluate(g1, (a0, b0)) == 0
    assert evaluate(g2, (a0, b0)) == 0


def test_count_fiber_matches_the_main_count(generic_quintic):
    report = count_fiber(generic_quintic, 10007, seed=1)
    assert report.resultant_degree == ELIMINANT_DEGREE == 600
    assert report.fiber_degree == EXPECTED_FIBER_DEGREE == 420
    assert report.flex_part == EXPECTED_FLEX_PART == (45, 4)
    assert sum(d * m for d, m in report.multiplicity_profile) == 600
    # flex part degree ties to the flex count of a smooth quintic
    from quintic_moduli.intersection_ledger import plucker_counts

    assert report.flex_part[0] == plucker_counts(5).flex_count


def test_count_fiber_cross_prime_agreement(generic_quintic):
    r1 = count_fiber(generic_quintic, 10007, seed=5)
    r2 = count_fiber(generic_quintic, 3001, seed=5)
    assert r1.fiber_degree == r2.fiber_degree == 420
    assert r1.multiplicity_profile == r2.multiplicity_profile


# At the edges of the packed kernels' slots: at 1000003 the eliminant's
# 64-bit slots take limit 2, so its slices are summed 4 columns at a time
# and its remainder sequences take Barrett steps part-way through a
# division; at 2**31 - 1 the remainder sequences run in 128-bit slots, and
# so do a third of the polys products and the divisions with a quotient of
# 4 or more terms; at 2**61 - 1 (192-bit slots, limit 8) and 2**89 - 1
# (320-bit slots) every polys product and division runs in slots wider than
# 64 bits.
@pytest.mark.parametrize("prime", [1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_count_fiber_past_the_packing_guards(generic_quintic, prime):
    report = count_fiber(generic_quintic, prime, seed=1)
    assert report.multiplicity_profile == ((45, 4), (420, 1))


def test_count_fiber_is_deterministic(generic_quintic):
    assert count_fiber(generic_quintic, 10007, seed=2) == count_fiber(
        generic_quintic, 10007, seed=2
    )


def test_count_fiber_chart_independent(generic_quintic):
    target = WPPoint(F, F.from_int(11), F.from_int(222), F.from_int(3333))
    r1 = count_fiber(generic_quintic, 10007, seed=7, target=target)
    r2 = count_fiber(generic_quintic, 10007, seed=8, target=target)
    assert r1.frame != r2.frame  # genuinely different charts
    assert r1.fiber_degree == r2.fiber_degree
    assert r1.multiplicity_profile == r2.multiplicity_profile


def test_on_discriminant_target_is_flagged(generic_quintic):
    # a target on the branch locus c1^2 = 128 c2 is measured, not declined:
    # the flex lines take multiplicity 6 there and the reduced part drops to
    # 330, the same at both primes
    for prime in ACCEPTANCE_PRIMES:
        field = GF(prime)
        c1 = field.from_int(77)
        c2 = field.reduce(field.reduce(c1 * c1) * field.inv(field.from_int(128)))
        target = WPPoint(field, c1, c2, field.from_int(1234))
        report = count_fiber(generic_quintic, prime, seed=3, target=target)
        assert report.multiplicity_profile == ((45, 6), (330, 1))
        assert (report.fiber_degree, report.flex_part, report.retries) == (330, (45, 6), 0)


def _counting_builds(monkeypatch, build):
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fiber_counting, "build_fiber_system", counted)
    return calls


@pytest.mark.parametrize("prime", [10007, 3001])
def test_reproduced_cause_stops_the_count(monkeypatch, prime):
    # at the cusp two intersections of F and H share one fiber of u at every
    # draw, so s1 is a zero divisor there: the second draw reproduces the
    # first cause, and the count stops there
    calls = _counting_builds(monkeypatch, build_fiber_system)
    with pytest.raises(FiberCountError) as info:
        count_fiber(_singular_quintic("cusp"), prime, seed=1)
    assert len(calls) == 2
    first, second = info.value.causes
    assert first.startswith("attempt 0: ")
    cause = first[len("attempt 0: "):]
    assert second == (
        f"attempt 1: {cause} (as at attempt 0: a property of the curve, not of the draw)"
    )


def test_distinct_causes_use_every_retry(monkeypatch, generic_quintic):
    def failing_build(framed, target):
        raise FiberRetryError(f"draw-dependent failure {len(calls)}")

    calls = _counting_builds(monkeypatch, failing_build)
    with pytest.raises(FiberCountError) as info:
        count_fiber(generic_quintic, 10007, seed=1, max_retries=4)
    assert len(calls) == 5
    assert info.value.causes == [
        f"attempt {k}: draw-dependent failure {k + 1}" for k in range(5)
    ]


def test_count_fiber_rejects_negative_retries(generic_quintic):
    with pytest.raises(ValueError, match="-1"):
        count_fiber(generic_quintic, 10007, seed=1, max_retries=-1)


def test_curve_over_another_prime_field_is_rejected(generic_quintic):
    curve = generic_quintic.reduce_mod(GF(3001))
    with pytest.raises(ValueError, match=r"GF\(3001\)"):
        count_fiber(curve, 10007, seed=1)
    with pytest.raises(ValueError, match=r"GF\(3001\)"):
        genericity_report(curve, 10007)


# ---------------------------------------------------------------------------
# the flex-line division

#: Rational flexes (x : y : 1) of the generic quintic.
RATIONAL_FLEXES = {10007: (3241, 5458, 1), 3001: (2786, 532, 1)}


def _from_roots(field, roots) -> UniPoly:
    """The monic polynomial prod (T - r) over the given roots."""
    out = UniPoly.constant(field, field.one)
    for r in roots:
        out = out * UniPoly(field, [field.reduce(-r), field.one])
    return out


def _first_attempt(curve, prime: int, seed: int):
    """(framed curve, eliminant) of ``count_fiber``'s first attempt."""
    field = GF(prime)
    rng = random.Random(seed)
    target = fiber_counting._draw_target(field, rng)
    framed = curve.reduce_mod(field).composed_with_frame(random_invertible_frame(field, rng))
    return framed, resultant_bivar_elim(*build_fiber_system(framed, target))


@pytest.mark.parametrize("prime", ACCEPTANCE_PRIMES)
def test_flex_lines_are_the_non_reduced_part_of_the_eliminant(generic_quintic, prime):
    # in every frame the one flex-line polynomial is exactly the part Yun
    # finds at multiplicity 4, and the division leaves Yun's reduced part
    for seed in range(1, 4):
        framed, eliminant = _first_attempt(generic_quintic, prime, seed)
        (line,) = flex_lines(framed)
        reduced, flex = squarefree_decomposition(eliminant)
        assert flex == (line, 4) and reduced[1] == 1
        quotient, parts = fiber_counting._divide_by_flex_lines(eliminant, [line])
        assert parts == [(45, 4)]
        assert quotient == reduced[0].scale(eliminant.lc)


@pytest.mark.parametrize("prime", ACCEPTANCE_PRIMES)
@pytest.mark.parametrize(
    "name, profile, flex_part",
    [
        ("contact-4 hyperflex", ((1, 18), (43, 4), (410, 1)), ((43, 4), (1, 18))),
        ("klein", ((3, 18), (39, 4), (390, 1)), ((39, 4), (3, 18))),
    ],
)
def test_curves_with_two_kinds_of_flex_are_answered(name, profile, flex_part, prime):
    # flexes of contact 4 are double roots of the flex eliminant, and their
    # lines come with multiplicity 18: 410 = 420 - 10, 390 = 420 - 3 * 10
    curve = contact_four_hyperflex(0) if name != "klein" else load_curve(CURVES_DIR / "klein.json")
    report = count_fiber(curve, prime, seed=1)
    assert report.multiplicity_profile == profile
    assert report.flex_part == flex_part
    assert report.fiber_degree == profile[-1][0]
    assert report.retries == 0


@pytest.mark.parametrize("prime", ACCEPTANCE_PRIMES)
def test_fermat_is_answered_in_one_attempt(prime):
    for seed in range(1, 6):
        report = count_fiber(fermat_quintic(), prime, seed=seed)
        assert report.multiplicity_profile == ((15, 30), (150, 1))
        assert (report.fiber_degree, report.flex_part, report.retries) == (150, (15, 30), 0)


def test_a_changed_eliminant_coefficient_is_never_counted(monkeypatch, generic_quintic):
    # negative control: with one coefficient of the eliminant changed, the
    # flex lines no longer divide it, and each attempt fails with that cause
    def tampered(f, g):
        eliminant = resultant_bivar_elim(f, g)
        coeffs = list(eliminant.coeffs)
        coeffs[300] = (coeffs[300] + 1) % eliminant.field.p
        return UniPoly(eliminant.field, coeffs)

    monkeypatch.setattr(fiber_counting, "resultant_bivar_elim", tampered)
    with pytest.raises(FiberCountError) as info:
        count_fiber(generic_quintic, 10007, seed=1)
    cause = "flex-line part of degree 45 does not divide the eliminant"
    assert info.value.causes == [
        f"attempt 0: {cause}",
        f"attempt 1: {cause} (as at attempt 0: a property of the curve, not of the draw)",
    ]


def test_the_division_checks_fail_with_their_causes():
    # L = (a - 1)(a - 2) against eliminants built from their roots
    line, divide = _from_roots(F, (1, 2)), fiber_counting._divide_by_flex_lines
    quotient, parts = divide(_from_roots(F, (1, 1, 1, 1, 2, 2, 2, 2, 3, 4)), [line])
    assert (quotient, parts) == (_from_roots(F, (3, 4)), [(2, 4)])
    cases = {
        # a root of L of higher order than the others: Q shares it with L
        "reduced part is not coprime to the flex-line part of degree 2": (1, 1, 1, 1, 1, 2, 2, 2, 2, 3),
        "reduced part of degree 3 is not squarefree": (1, 1, 2, 2, 3, 3, 4),
        "flex-line part of degree 2 does not divide the eliminant": (1, 3, 4),
    }
    for cause, roots in cases.items():
        with pytest.raises(FiberRetryError, match=cause):
            divide(_from_roots(F, roots), [line])


def _rational_flex_tangent_point(curve, prime: int):
    """A point off the curve on the tangent at a rational flex of ``curve``."""
    field = GF(prime)
    grad = [evaluate(curve.poly.derivative(v), RATIONAL_FLEXES[prime]) for v in range(3)]
    point = (field.reduce(-grad[2]), 0, grad[0])  # grad x e_y, on the tangent
    assert evaluate(curve.poly, point) != 0
    return point


@pytest.mark.parametrize("prime", ACCEPTANCE_PRIMES)
def test_degenerate_frames_are_retry_causes(generic_quintic, prime):
    # a frame putting a flex tangent through framed (0 : 0 : 1) leaves that
    # flex line without a chart slope; a frame putting a flex at (0 : 0 : 1)
    # loses it from the flex eliminant
    field = GF(prime)
    curve = generic_quintic.reduce_mod(field)
    causes = {
        _rational_flex_tangent_point(curve, prime): "F_z vanishes there",
        RATIONAL_FLEXES[prime]: "flex eliminant degree 44 < 45",
    }
    for point, cause in causes.items():
        framed = curve.composed_with_frame(frame_with_third_column(field, point))
        with pytest.raises(FiberRetryError, match=re.escape(cause)):
            flex_lines(framed)


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 45])
def test_characteristic_polynomial_is_the_product_over_the_roots(p, n):
    # prod (T - a(u)) over the roots u of h, from traces and Newton's identities
    field = GF(p)
    rng = random.Random(p + 7 * n)
    roots = rng.sample(range(min(p, 10**6)), n)
    ring = ResidueRing(_from_roots(field, roots))
    seeded = UniPoly(field, [rng.randrange(p) for _ in range(n)])
    for a in (ring.zero, ring.one, ring.generator(), seeded):
        expected = _from_roots(field, [a.eval(u) for u in roots])
        assert fiber_counting._characteristic_polynomial(ring, ring.pack(a)) == expected


def test_characteristic_polynomial_needs_p_above_the_degree():
    h = UniPoly(GF(2503), [1] * 2503 + [1])
    with pytest.raises(ValueError, match="p > 2503"):
        fiber_counting._characteristic_polynomial(ResidueRing(h), 1)
