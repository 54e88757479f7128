"""Dynamic evaluation in GF(p)[u]/(h): the gcd and the flex probe at every root of h."""

import random

import pytest

from quintic_moduli import plane_curves
from quintic_moduli.elimination import (
    _gcd_cofactor,
    gcd_uni,
    resultant_bivar_elim,
    squarefree_decomposition,
)
from quintic_moduli.plane_curves import (
    PlaneCurve,
    _dehom_y,
    _hessian_form,
    _probe_flexes,
    frame_determinant,
    genericity_report,
    random_invertible_frame,
)
from quintic_moduli.polys import MultiPoly, UniPoly
from quintic_moduli.residue_rings import ResidueRing, SplitNeeded, split_modulus
from quintic_moduli.scalars import GF

from conftest import FLEX_BITANGENT_RECORDS, contact_four_hyperflex, evaluate

F = GF(10007)


def _image(poly: UniPoly, root) -> UniPoly:
    """A polynomial over GF(p)[u]/(h) specialised at the root u = root of h."""
    return UniPoly(F, [c.eval(root) for c in poly.coeffs])


def _zero_divisor_biased(rng, ring, roots):
    """A residue class vanishing at a random subset of the roots of h."""
    acc = ring.reduce(UniPoly(F, [rng.randrange(F.p) for _ in range(ring.degree)]))
    for r in roots:
        if rng.random() < 0.15:
            acc = ring.reduce(acc * UniPoly(F, [F.reduce(-r), F.one]))
    return acc


def _random_poly(rng, ring, roots, degree):
    return UniPoly(ring, [_zero_divisor_biased(rng, ring, roots) for _ in range(degree + 1)])


def _random_uni(rng, field, degree):
    """A polynomial of exactly the given degree over GF(p)."""
    coeffs = [rng.randrange(field.p) for _ in range(degree)]
    return UniPoly(field, coeffs + [1 + rng.randrange(field.p - 1)])


def _from_roots(field, roots) -> UniPoly:
    """The monic polynomial prod (u - r) over the given roots."""
    h = UniPoly.constant(field, field.one)
    for r in roots:
        h = h * UniPoly(field, [field.reduce(-r), field.one])
    return h


def _value(poly: UniPoly, r: int) -> int:
    """poly(r) over GF(p), by Horner on ints."""
    p, acc = poly.field.p, 0
    for c in reversed(poly.coeffs):
        acc = (acc * r + c) % p
    return acc


def _assert_remainders(ring, roots, xs):
    """reduce(x) has degree below deg h and agrees with x at every root of h:
    the remainder mod h, by its definition when h has distinct roots."""
    for x in xs:
        r = ring.reduce(x)
        assert r.field is ring.base and r.degree < ring.degree, x.degree
        assert [_value(r, u) for u in roots] == [_value(x, u) for u in roots], x.degree


# at 2**31 - 1 the packed UniPoly.divmod takes 128-bit slots once a quotient
# has 4 or more terms
@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 5, 45, 60])
def test_reduce_matches_the_divmod_remainder(p, n):
    field = GF(p)
    rng = random.Random(p * n)
    roots = rng.sample(range(p), n)
    ring = ResidueRing(_from_roots(field, roots))
    xs = [_random_uni(rng, field, m) for m in range(3 * n + 1)] + [UniPoly.zero(field)]
    _assert_remainders(ring, roots, xs)


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1])
def test_reduce_modulo_the_moduli_left_by_split_modulus(p):
    field = GF(p)
    rng = random.Random(p)
    roots = rng.sample(range(p), 5)
    ring = ResidueRing(_from_roots(field, roots))
    h1, h2 = split_modulus(ring, _from_roots(field, roots[:1]).scale(field.from_int(3)))
    assert (h1.degree, h2.degree) == (1, 4)
    xs = [_random_uni(rng, field, m) for m in range(13)] + [UniPoly.zero(field)]
    _assert_remainders(ResidueRing(h1), roots[:1], xs)
    _assert_remainders(ResidueRing(h2), roots[1:], xs)


@pytest.mark.parametrize("p", [2503, 10007])
@pytest.mark.parametrize("n", [1, 2, 5, 45])
def test_mul_inv_generator_match_their_remainder_definitions(p, n):
    field = GF(p)
    rng = random.Random(p + n)
    h = _random_uni(rng, field, n)
    ring = ResidueRing(h)
    assert ring.generator() == UniPoly.x(field) % h
    for _ in range(10):
        a, b = (_random_uni(rng, field, rng.randrange(n)) for _ in range(2))
        assert ring.reduce(a * b) == (a * b) % h
        try:
            inverse = ring.inv(a)
        except SplitNeeded as split:
            assert (h % split.factor).is_zero()
            continue
        d, s = _gcd_cofactor(a, h)
        assert d.degree == 0 and inverse == s % h
        assert (a * inverse) % h == ring.one


def test_gcd_over_residue_ring_splits_or_agrees_at_every_root():
    rng = random.Random(31)
    agreed = split = 0
    for _ in range(400):
        roots = rng.sample(range(F.p), rng.randrange(2, 6))
        h = _from_roots(F, roots)
        ring = ResidueRing(h)
        common = _random_poly(rng, ring, roots, rng.randrange(0, 3))
        a = _random_poly(rng, ring, roots, rng.randrange(0, 4)) * common
        b = _random_poly(rng, ring, roots, rng.randrange(0, 4)) * common
        try:
            g = gcd_uni(a, b)
        except SplitNeeded as exc:
            assert 0 < exc.factor.degree < h.degree
            assert (h % exc.factor).is_zero()
            split += 1
            continue
        for r in roots:
            assert _image(g, r) == gcd_uni(_image(a, r), _image(b, r))
        agreed += 1
    assert agreed > 50 and split > 50


def _dehomogenised(framed: MultiPoly, field) -> list:
    """F, H and the partials of F at y = 1, as ``genericity_report`` passes them to the probe."""
    forms = (framed, _hessian_form(framed), *(framed.derivative(v) for v in range(3)))
    return [_dehom_y(p, field) for p in forms]


def _flex_modulus(curve: PlaneCurve, seed: int):
    """Framed curve, its forms at y = 1 and squarefree flex modulus, as
    genericity_report builds them."""
    frame = random_invertible_frame(F, random.Random(seed))
    framed = curve.reduce_mod(F).composed_with_frame(frame).poly
    dehom = _dehomogenised(framed, F)
    ((h, _),) = squarefree_decomposition(resultant_bivar_elim(dehom[0], dehom[1], 1))
    return framed, dehom, h


def _split_off_rational_roots(h: UniPoly):
    """(gcd(h, u^p - u), its cofactor): the roots of h in GF(p) and the rest."""
    acc, base, n = UniPoly.constant(F, F.one), UniPoly.x(F), F.p
    while n:
        if n & 1:
            acc = acc * base % h
        base = base * base % h
        n >>= 1
    rational = gcd_uni(h, acc - UniPoly.x(F))
    return rational, h // rational


def test_probe_flexes_adds_over_a_split_modulus():
    curve = PlaneCurve.from_records(FLEX_BITANGENT_RECORDS)
    curve_poly, dehom, h = _flex_modulus(curve, seed=0)
    h1, h2 = _split_off_rational_roots(h)
    assert h.degree == 45 and 0 < h1.degree < h.degree
    whole = _probe_flexes(curve_poly, dehom, h)
    halves = [_probe_flexes(curve_poly, dehom, part) for part in (h1, h2)]
    assert whole == 44 == sum(halves)  # 44 reachable only through a split of h
    report = genericity_report(curve, F.p, seed=0)
    assert (report.distinct_flex_count, report.flexes_verified) == (45, 44)


@pytest.mark.parametrize("prime", [2503, 10007])
def test_the_flex_bitangent_modulus_splits_once_per_report(monkeypatch, prime):
    # the probe meets one zero divisor per frame, at the flex-bitangent
    calls = []
    split = plane_curves.split_modulus

    def counting(ring, factor):
        calls.append(prime)
        return split(ring, factor)

    monkeypatch.setattr(plane_curves, "split_modulus", counting)
    curve = PlaneCurve.from_records(FLEX_BITANGENT_RECORDS)
    counts = []
    for seed in range(3):
        before = len(calls)
        assert genericity_report(curve, prime, seed=seed).flexes_verified == 44
        counts.append(len(calls) - before)
    assert counts == [1, 1, 1]


def _probe_at_framed_flex(curve: PlaneCurve, prime: int, flex) -> int:
    """Probe a rational flex P placed at framed (0 : 1 : 0), its tangent at x' = 0.

    The frame's columns are (random, P, a point on P's tangent), so the
    tangent passes through framed (0 : 0 : 1).  Modulo u the probe then
    solves the tangent for x (the gradient is (g, 0, 0), no z entry) and
    reads P in the tangent's coordinates (y, z) as (1 : 0), where t0 = 0:
    the two branches that a random frame almost never takes.
    """
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    flex = tuple(field.from_int(c) for c in flex)
    grad = [evaluate(d, flex) for d in reduced.partials()]
    rng = random.Random(prime)
    while True:
        column, w = ([field.from_int(rng.randrange(prime)) for _ in range(3)] for _ in range(2))
        on_tangent = [field.reduce(grad[i - 2] * w[i - 1] - grad[i - 1] * w[i - 2]) for i in range(3)]
        frame = tuple(zip(column, flex, on_tangent))
        if not field.is_zero(frame_determinant(frame, field)):
            break
    framed = reduced.composed_with_frame(frame).poly
    origin = (field.zero, field.one, field.zero)
    assert evaluate(framed, origin) == 0
    assert [field.is_zero(evaluate(framed.derivative(v), origin)) for v in range(3)] == [False, True, True]
    return _probe_flexes(framed, _dehomogenised(framed, field), UniPoly.x(field))


# rational flexes of the generic quintic: the roots u0 = 2051, 1955 and 5216
# of the flex eliminant in the first frame of seed 1, mapped back to (x : y : 1)
@pytest.mark.parametrize(
    "prime, flex", [(10007, (3241, 5458, 1)), (3001, (2786, 532, 1)), (7001, (2837, 5119, 1))]
)
def test_probe_verifies_a_flex_on_an_x_solved_tangent(generic_quintic, prime, flex):
    field = GF(prime)
    assert evaluate(generic_quintic.reduce_mod(field).poly, flex) == 0
    assert evaluate(_hessian_form(generic_quintic.reduce_mod(field).poly), flex) == 0
    assert _probe_at_framed_flex(generic_quintic, prime, flex) == 1


@pytest.mark.parametrize("prime", [10007, 3001])
def test_probe_rejects_the_flex_bitangent_on_an_x_solved_tangent(prime):
    # (0 : 0 : 1), whose tangent y = 0 touches the curve again at (1 : 0 : 1)
    curve = PlaneCurve.from_records(FLEX_BITANGENT_RECORDS)
    assert _probe_at_framed_flex(curve, prime, (0, 0, 1)) == 0


@pytest.mark.parametrize("prime", [3001, 10007])
def test_a_contact_four_hyperflex_fails_the_probe_on_its_value(prime):
    # the hyperflex counts twice in the degree-45 flex cycle, so 44 distinct
    # flexes; at it the restricted quintic is T^4 times a linear form, so c3
    # vanishes (contact 4, not 3) and 43 are verified
    for seed in range(3):
        report = genericity_report(contact_four_hyperflex(0), prime, seed=seed)
        assert report.smooth and report.flex_cycle_ok
        assert (report.distinct_flex_count, report.flexes_verified) == (44, 43)
        assert not report.generic
