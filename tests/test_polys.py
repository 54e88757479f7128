import random
from fractions import Fraction

import pytest

from quintic_moduli.polys import (
    MultiPoly,
    UniPoly,
    interpolate,
    interpolate_bivariate,
)
from quintic_moduli.scalars import GF, QQ

F = GF(10007)


def rand_unipoly(rng, field, degree):
    coeffs = [field.from_int(rng.randrange(field.p)) for _ in range(degree)]
    coeffs.append(field.from_int(1 + rng.randrange(field.p - 1)))
    return UniPoly(field, coeffs)


def test_unipoly_trims_and_reports_degree():
    assert UniPoly.from_ints(QQ, [1, 2, 0, 0]).degree == 1
    z = UniPoly.zero(QQ)
    assert z.degree == float("-inf") and z.is_zero()


def test_unipoly_arithmetic_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        f = rand_unipoly(rng, F, rng.randrange(1, 8))
        g = rand_unipoly(rng, F, rng.randrange(1, 8))
        q, r = (f * g + f).divmod(g)
        assert q * g + r == f * g + f
        assert r.degree < g.degree


def test_unipoly_eval_and_derivative():
    f = UniPoly.from_ints(QQ, [1, 0, 3])  # 1 + 3x^2
    assert f.eval(Fraction(2)) == 13
    assert list(f.derivative().coeffs) == [Fraction(0), Fraction(6)]


def test_field_mismatch_rejected():
    f = UniPoly.from_ints(QQ, [1, 1])
    g = UniPoly.from_ints(F, [1, 1])
    with pytest.raises(ValueError):
        f + g
    p = MultiPoly.variable(QQ, 2, 0)
    q = MultiPoly.variable(F, 2, 0)
    with pytest.raises(ValueError):
        p * q


def test_multipoly_eval_examples():
    # p = x^2 + y
    p = MultiPoly(QQ, 2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    assert p.eval([Fraction(0), Fraction(0)]) == 0
    assert p.eval([Fraction(2), Fraction(3)]) == 7
    with pytest.raises(ValueError):
        p.eval([Fraction(1)])


def test_restricted_fermat_root_evaluates_to_zero():
    # find a root of the restricted Fermat quintic over GF(p) by brute
    # univariate root search, then substitute back into the bivariate form
    from quintic_moduli.plane_curves import LineChart, fermat_quintic, restrict_to_line

    curve = fermat_quintic(QQ).reduce_mod(F)
    root = None
    for b in range(11, 40):  # not every restriction has a rational root; scan
        chart = LineChart.identity(F, F.from_int(3), F.from_int(b))
        f = restrict_to_line(curve, chart)
        uni = f.to_unipoly()
        root = next((x for x in range(F.p) if uni.eval(x) == 0), None)
        if root is not None:
            break
    assert root is not None
    biv = MultiPoly(F, 2, {(5 - k, k): c for k, c in enumerate(f.coeffs) if c})
    assert biv.eval([root, F.one]) == 0


def test_multipoly_compose_matches_eval():
    rng = random.Random(3)
    p = MultiPoly(
        F, 2, {(i, j): rng.randrange(F.p) for i in range(4) for j in range(3)}
    )
    args = [
        MultiPoly(F, 2, {(1, 0): 2, (0, 1): 3, (0, 0): 5}),
        MultiPoly(F, 2, {(1, 1): 7, (0, 0): 1}),
    ]
    composed = p.compose(args)
    for point in [(0, 0), (4, 9), (123, 456)]:
        pt = [F.from_int(v) for v in point]
        inner = [g.eval(pt) for g in args]
        assert composed.eval(pt) == p.eval(inner)


def test_interpolate_examples():
    samples = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))]
    assert list(interpolate(samples, QQ).coeffs) == [Fraction(1), Fraction(1)]
    with pytest.raises(ValueError):
        interpolate([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(2))], QQ)


def test_interpolation_inverts_evaluation():
    rng = random.Random(7)
    for _ in range(25):
        poly = rand_unipoly(rng, F, rng.randrange(0, 12))
        n = poly.degree + 1
        xs = random.Random(rng.random()).sample(range(F.p), n)
        samples = [(x, poly.eval(x)) for x in xs]
        assert interpolate(samples, F) == poly
    # over the rationals as well
    poly = UniPoly.from_ints(QQ, [3, -2, 0, 5])
    samples = [(Fraction(x), poly.eval(Fraction(x))) for x in range(4)]
    assert interpolate(samples, QQ) == poly


def test_interpolate_bivariate_roundtrip():
    rng = random.Random(11)
    poly = MultiPoly(
        F, 2, {(i, j): rng.randrange(F.p) for i in range(5) for j in range(4)}
    )
    xs = [F.from_int(v) for v in range(5)]
    ys = [F.from_int(v) for v in range(4)]
    values = [[poly.eval((x, y)) for y in ys] for x in xs]
    assert interpolate_bivariate(xs, ys, values, F) == poly


def test_operations_are_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    f1 = rand_unipoly(rng1, F, 30)
    f2 = rand_unipoly(rng2, F, 30)
    assert (f1 * f1).coeffs == (f2 * f2).coeffs


def test_sorted_terms_is_lexicographic_descending():
    p = MultiPoly(QQ, 2, {(0, 1): Fraction(1), (1, 0): Fraction(2), (0, 2): Fraction(3)})
    assert [e for e, _ in p.sorted_terms()] == [(1, 0), (0, 2), (0, 1)]
