import random

import pytest

from quintic_moduli.elimination import gcd_uni, resultant_bivar_elim
from quintic_moduli.fiber_counting import (
    ELIMINANT_DEGREE,
    EXPECTED_FIBER_DEGREE,
    EXPECTED_FLEX_PART,
    FIBER_SYSTEM_DEGREES,
    FiberCountError,
    build_fiber_system,
    count_fiber,
    fiber_histogram,
)
from quintic_moduli.invariants import WPPoint
from quintic_moduli.plane_curves import (
    hessian,
    random_invertible_frame,
)
from quintic_moduli.polys import MultiPoly, UniPoly
from quintic_moduli.scalars import GF

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
    h = hessian(curve)

    def dehom(poly):
        terms = {}
        for (i, j, k), c in poly.terms.items():
            e = (i, k)
            terms[e] = F.add(terms.get(e, F.zero), c)
        return MultiPoly(F, 2, terms)

    flex_res = resultant_bivar_elim(dehom(curve.poly), dehom(h.poly), 1)
    u0 = next(x for x in range(F.p) if flex_res.eval(x) == 0)

    def fiber_poly(poly, u):
        out = {}
        for (i, j, k), c in poly.terms.items():
            val = F.mul(c, F.pow(F.from_int(u), i))
            out[k] = F.add(out.get(k, F.zero), val) if k in out else val
        return UniPoly(F, [out.get(k, F.zero) for k in range(max(out) + 1)])

    g = gcd_uni(fiber_poly(curve.poly, u0), fiber_poly(h.poly, u0))
    assert g.degree == 1
    z0 = F.neg(F.mul(g.coeffs[0], F.inv(g.coeffs[1])))
    point = (F.from_int(u0), F.one, z0)
    dual = tuple(curve.poly.derivative(v).eval(point) for v in range(3))
    framed_dual = [
        F.add(F.add(F.mul(frame[0][c], dual[0]), F.mul(frame[1][c], dual[1])), F.mul(frame[2][c], dual[2]))
        for c in range(3)
    ]
    assert not F.is_zero(framed_dual[2]), "flex line vertical in this frame; unlucky"
    ninv = F.neg(F.inv(framed_dual[2]))
    a0, b0 = F.mul(framed_dual[0], ninv), F.mul(framed_dual[1], ninv)
    assert g1.eval((a0, b0)) == 0
    assert g2.eval((a0, b0)) == 0


def test_count_fiber_matches_the_main_count(generic_quintic):
    report = count_fiber(generic_quintic, 10007, seed=1)
    assert report.resultant_degree == ELIMINANT_DEGREE == 600
    assert report.fiber_degree == EXPECTED_FIBER_DEGREE == 420
    assert report.flex_part == EXPECTED_FLEX_PART == (45, 4)
    assert sum(d * m for d, m in report.multiplicity_profile) == 600
    # flex part degree ties to the flex count of a smooth quintic
    from quintic_moduli.plane_curves import plucker_counts

    assert report.flex_part[0] == plucker_counts(5).flex_count


def test_count_fiber_cross_prime_agreement(generic_quintic):
    r1 = count_fiber(generic_quintic, 10007, seed=5)
    r2 = count_fiber(generic_quintic, 3001, seed=5)
    assert r1.fiber_degree == r2.fiber_degree == 420
    assert r1.multiplicity_profile == r2.multiplicity_profile


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
    c2 = F.mul(F.mul(c1, c1), F.inv(F.from_int(128)))
    target = WPPoint(F, c1, c2, F.from_int(1234))
    with pytest.raises(FiberCountError) as info:
        count_fiber(generic_quintic, 10007, seed=3, max_retries=1, target=target)
    assert any("profile" in cause for cause in info.value.causes)


def test_fiber_histogram(generic_quintic):
    reports = fiber_histogram(generic_quintic, 10007, n_targets=2, seed=1)
    assert len(reports) == 2
    assert all(r.fiber_degree == 420 for r in reports)
    assert fiber_histogram(generic_quintic, 10007, n_targets=0, seed=1) == []
    with pytest.raises(ValueError):
        fiber_histogram(generic_quintic, 10007, n_targets=1, seed=1, max_retries=-1)
