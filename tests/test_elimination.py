import random
from fractions import Fraction

import pytest

from quintic_moduli.elimination import (
    gcd_uni,
    resultant_bivar_elim,
    resultant_uni,
    squarefree_decomposition,
    xgcd_uni,
)
from quintic_moduli.polys import MultiPoly, UniPoly, interpolate
from quintic_moduli.scalars import GF, QQ

F = GF(10007)


def linear(field, a):
    """x - a over the given field."""
    return UniPoly(field, [field.reduce(-field.from_int(a)), field.one])


def sylvester_determinant(f: UniPoly, g: UniPoly):
    """Independent oracle: expand the Sylvester matrix determinant directly."""
    field = f.field
    n, m = f.degree, g.degree
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))  # descending
    gc = list(reversed(g.coeffs))
    for k in range(m):
        rows.append([field.zero] * k + fc + [field.zero] * (m - 1 - k))
    for k in range(n):
        rows.append([field.zero] * k + gc + [field.zero] * (n - 1 - k))
    # fraction-free-ish Gaussian elimination with division (field case)
    det = field.one
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if not field.is_zero(rows[r][col])), None
        )
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = field.reduce(-det)
        det = field.reduce(det * rows[col][col])
        inv = field.inv(rows[col][col])
        for r in range(col + 1, size):
            factor = field.reduce(rows[r][col] * inv)
            if field.is_zero(factor):
                continue
            rows[r] = [
                field.reduce(x - field.reduce(factor * y)) for x, y in zip(rows[r], rows[col])
            ]
    return det


def test_resultant_convention():
    assert resultant_uni(linear(QQ, 2), linear(QQ, 3)) == Fraction(-1)
    f = UniPoly.from_ints(QQ, [-1, 0, 1])  # x^2 - 1
    assert resultant_uni(f, linear(QQ, 1)) == 0
    with pytest.raises(ValueError):
        resultant_uni(UniPoly.zero(QQ), linear(QQ, 1))


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(1)
    for _ in range(20):
        f = UniPoly(F, [rng.randrange(F.p) for _ in range(5)] + [1 + rng.randrange(F.p - 1)])
        g = UniPoly(F, [rng.randrange(F.p) for _ in range(4)] + [1 + rng.randrange(F.p - 1)])
        assert resultant_uni(f, g) == sylvester_determinant(f, g)


def test_resultant_swap_and_multiplicativity():
    rng = random.Random(2)
    for _ in range(30):
        def rand(dmax):
            d = rng.randrange(1, dmax)
            return UniPoly(
                F, [rng.randrange(F.p) for _ in range(d)] + [1 + rng.randrange(F.p - 1)]
            )

        f, g, h = rand(6), rand(6), rand(4)
        sign = F.one if (f.degree * g.degree) % 2 == 0 else F.reduce(-F.one)
        assert resultant_uni(f, g) == F.reduce(sign * resultant_uni(g, f))
        assert resultant_uni(f, g * h) == F.reduce(resultant_uni(f, g) * resultant_uni(f, h))


def test_bivariate_elimination_examples():
    x = MultiPoly.variable(F, 2, 0)
    s = MultiPoly.variable(F, 2, 1)
    one = MultiPoly.constant(F, 2, F.one)
    two = MultiPoly.constant(F, 2, F.from_int(2))
    r = resultant_bivar_elim(x - s, x - one, 0)
    assert list(r.coeffs) == [F.from_int(-1), F.one]  # s - 1
    r2 = resultant_bivar_elim(x * x - s, x - two, 0)
    assert list(r2.coeffs) == [F.from_int(4), F.from_int(-1)]  # 4 - s


def test_bivariate_elimination_matches_direct_resultants():
    rng = random.Random(3)
    f = MultiPoly(F, 2, {(i, j): rng.randrange(F.p) for i in range(4) for j in range(3)})
    g = MultiPoly(F, 2, {(i, j): rng.randrange(F.p) for i in range(3) for j in range(4)})
    r = resultant_bivar_elim(f, g, 0)
    # check at fresh sample points against direct univariate resultants
    for s in (501, 502, 777):
        def specialise(poly, val):
            coeffs = {}
            for (i, j), c in poly.terms.items():
                coeffs[i] = F.reduce(coeffs.get(i, F.zero) + F.reduce(c * F.pow(F.from_int(val), j)))
            return UniPoly(F, [coeffs.get(i, F.zero) for i in range(max(coeffs) + 1)])

        fu, gu = specialise(f, s), specialise(g, s)
        if fu.degree == f.degree_in(0) and gu.degree == g.degree_in(0):
            assert r.eval(F.from_int(s)) == resultant_uni(fu, gu)


def test_squarefree_examples():
    one, two = linear(F, 1), linear(F, 2)
    parts = squarefree_decomposition(one * one * two)
    assert [(list(p.coeffs), m) for p, m in parts] == [
        (list(two.coeffs), 1),
        (list(one.coeffs), 2),
    ]
    f = UniPoly.from_ints(F, [3, 1, 0, 2])
    parts = squarefree_decomposition(f)
    assert len(parts) == 1 and parts[0][1] == 1
    assert parts[0][0] == f.monic()


def test_squarefree_reassembles_on_many_random_inputs():
    rng = random.Random(9)
    for _ in range(1000):
        f = UniPoly.constant(F, F.from_int(1 + rng.randrange(F.p - 1)))
        for _ in range(rng.randrange(1, 4)):
            factor = linear(F, rng.randrange(20))
            for _ in range(rng.randrange(1, 4)):
                f = f * factor
        parts = squarefree_decomposition(f)
        acc = UniPoly.constant(F, f.lc)
        for part, mult in parts:
            for _ in range(mult):
                acc = acc * part
        assert acc == f
        mults = [m for _, m in parts]
        assert mults == sorted(mults) and len(set(mults)) == len(mults)


def test_gcd_and_xgcd():
    rng = random.Random(12)
    for _ in range(20):
        a = UniPoly(F, [rng.randrange(F.p) for _ in range(4)] + [1])
        b = UniPoly(F, [rng.randrange(F.p) for _ in range(3)] + [1])
        c = UniPoly(F, [rng.randrange(F.p) for _ in range(2)] + [1])
        g = gcd_uni(a * c, b * c)
        assert g % c == UniPoly.zero(F) or gcd_uni(g, c).degree == c.degree
        d, s, t = xgcd_uni(a, b)
        assert s * a + t * b == d


@pytest.mark.parametrize("field", [QQ, F], ids=repr)
def test_xgcd_with_zero_and_constant_operands(field):
    f = UniPoly.from_ints(field, [3, 0, 2])
    g = UniPoly.from_ints(field, [1, 5])
    zero, seven = UniPoly.zero(field), UniPoly.from_ints(field, [7])
    for a, b in [(f, zero), (zero, g), (zero, zero), (seven, f), (f, seven), (f * g, g), (g, f)]:
        d, s, t = xgcd_uni(a, b)
        assert s * a + t * b == d
        assert d.is_zero() if a.is_zero() and b.is_zero() else d == gcd_uni(a, b)
        if b.is_zero():
            assert t.is_zero()


def test_interpolation_and_elimination_reject_QQ():
    with pytest.raises(ValueError, match="prime field"):
        interpolate([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))], QQ)
    x = MultiPoly.variable(QQ, 2, 0)
    s = MultiPoly.variable(QQ, 2, 1)
    with pytest.raises(ValueError, match="prime field"):
        resultant_bivar_elim(x - s, x * x - s, 0)


def test_elimination_rejects_bad_inputs():
    x = MultiPoly.variable(F, 2, 0)
    with pytest.raises(ValueError):
        resultant_bivar_elim(x, MultiPoly.zero(F, 2), 0)
    ternary = MultiPoly.variable(F, 3, 0)
    with pytest.raises(ValueError):
        resultant_bivar_elim(ternary, ternary, 0)
