import importlib
import random

import pytest

from quintic_moduli import PlaneCurve, fiber_counting
from quintic_moduli.binary_forms import BinaryQuintic
from quintic_moduli.elimination import gcd_uni, resultant_bivar_elim
from quintic_moduli.fiber_counting import (
    ELIMINANT_DEGREE,
    EXPECTED_FIBER_DEGREE,
    EXPECTED_FLEX_PART,
    FIBER_SYSTEM_DEGREES,
    FiberCountError,
    FiberRetryError,
    build_fiber_system,
    count_fiber,
)
from quintic_moduli.invariants import WPPoint, invariant_triple
from quintic_moduli.plane_curves import (
    _hessian_form,
    genericity_report,
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
from quintic_moduli.scalars import GF, is_prime

from conftest import evaluate, fermat_quintic

F = GF(10007)


@pytest.fixture(scope="module")
def fixture_mod_p(generic_quintic):
    return generic_quintic.reduce_mod(F)


@pytest.fixture(scope="module")
def sample_system(fixture_mod_p):
    rng = random.Random(100)
    frame = random_invertible_frame(F, rng)
    target = WPPoint(F, F.from_int(7), F.from_int(31), F.from_int(59))
    g1, g2 = build_fiber_system(fixture_mod_p, target, frame)
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
        assert build_fiber_system(curve, target, frame) == expected


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
    identity = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
    target = WPPoint(field, field.from_int(7), field.from_int(31), field.from_int(59))
    monkeypatch.setattr(fiber_counting, "_KroneckerRing", RecordingRing)
    system = build_fiber_system(PlaneCurve(poly), target, identity)
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
    assert build_fiber_system(fixture_mod_p, target, frame) == (g1, g2)
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
        build_fiber_system(fixture_mod_p, target, frame)


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
    # branch-locus behaviour is recorded as a deviating profile, not averaged
    c1 = F.from_int(77)
    c2 = F.reduce(F.reduce(c1 * c1) * F.inv(F.from_int(128)))
    target = WPPoint(F, c1, c2, F.from_int(1234))
    with pytest.raises(FiberCountError) as info:
        count_fiber(generic_quintic, 10007, seed=3, target=target)
    # a fresh frame over the same target reproduces the profile: no third draw
    causes = info.value.causes
    assert len(causes) == 2
    assert all("profile" in cause for cause in causes)
    assert causes[1].startswith("attempt 1: ") and "as at attempt 0" in causes[1]


def _counting_builds(monkeypatch, build):
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fiber_counting, "build_fiber_system", counted)
    return calls


@pytest.mark.parametrize("prime", [10007, 3001])
def test_reproduced_cause_stops_the_count(monkeypatch, prime):
    # Fermat measures ((15, 30), (150, 1)) at every draw: the second draw
    # reproduces the first cause, and the count stops there
    calls = _counting_builds(monkeypatch, build_fiber_system)
    with pytest.raises(FiberCountError) as info:
        count_fiber(fermat_quintic(), prime, seed=1)
    assert len(calls) == 2
    first, second = info.value.causes
    profile = "multiplicity profile ((15, 30), (150, 1)) deviates"
    assert first == f"attempt 0: {profile}"
    assert second == (
        f"attempt 1: {profile} (as at attempt 0: a property of the curve, not of the draw)"
    )


def test_distinct_causes_use_every_retry(monkeypatch, generic_quintic):
    def failing_build(curve, target, frame):
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
