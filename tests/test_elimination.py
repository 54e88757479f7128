import random
from fractions import Fraction

import pytest

from quintic_moduli.elimination import (
    _gcd_cofactor,
    _lazy_constants,
    _resultant_modp,
    gcd_uni,
    resultant_bivar_elim,
    resultant_uni,
    squarefree_decomposition,
)
from quintic_moduli.polys import MultiPoly, UniPoly, _pack, interpolate
from quintic_moduli.scalars import GF, QQ

F = GF(10007)
#: primes whose remainder sequences run packed, and primes that take the loop
PACKED_PRIMES = (2503, 3001, 10007)
LOOP_PRIMES = (2**31 - 1, 2**61 - 1)


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


def xgcd(f: UniPoly, g: UniPoly):
    """(d, s, t) with s*f + t*g = d monic: ``_gcd_cofactor``'s d and s, and t
    by the exact division (d - s*f) / g."""
    d, s = _gcd_cofactor(f, g)
    t = UniPoly.zero(f.field) if g.is_zero() else (d - s * f) // g
    return d, s, t


def _resultant_reference(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p by the raw-int list loop the packed kernel replaced:
    ascending residues with nonzero tops, every slot reduced at every step."""
    acc = 1
    negate = False
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = list(a)
        inv_lb = pow(b[-1], p - 2, p)
        for k in range(da - db, -1, -1):
            c = r[k + db] * inv_lb % p
            if c:
                for j in range(db + 1):
                    r[k + j] = (r[k + j] - c * b[j]) % p
        del r[db:]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        dr = len(r) - 1
        if (da * db) & 1:
            negate = not negate
        acc = acc * pow(b[-1], da - dr, p) % p
        a, b = b, r
    acc = acc * pow(b[0], len(a) - 1, p) % p
    return (p - acc) % p if negate and acc else acc


def _gcd_reference(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by the plain Euclid loop."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def _random_uni(rng, field, degree: int) -> UniPoly:
    p = field.p
    return UniPoly(field, [rng.randrange(p) for _ in range(degree)] + [1 + rng.randrange(p - 1)])


def _with_degrees(rng, field, degrees) -> tuple[UniPoly, UniPoly]:
    """(a, b) whose remainder sequence has exactly the given degrees (None
    for a zero remainder): the last two are drawn and each earlier one is
    q * next + the one after, with q of the degree difference."""
    *rest, d1, d2 = degrees
    last = UniPoly.zero(field) if d2 is None else _random_uni(rng, field, d2)
    seq = [_random_uni(rng, field, d1), last]
    for d in reversed(rest):
        seq.insert(0, _random_uni(rng, field, d - seq[0].degree) * seq[0] + seq[1])
    return seq[0], seq[1]


def _remainder_cases(p: int) -> list[tuple[UniPoly, UniPoly]]:
    """Operand pairs covering the shapes of the remainder sequence."""
    field = GF(p)
    rng = random.Random(p)
    common = _random_uni(rng, field, 3)
    seven = UniPoly.constant(field, 7)
    return [
        (_random_uni(rng, field, 20), _random_uni(rng, field, 30)),  # deg a < deg b
        (_random_uni(rng, field, 30), _random_uni(rng, field, 20)),
        (_random_uni(rng, field, 9), _random_uni(rng, field, 8)),
        (seven, _random_uni(rng, field, 5)),  # constant operands
        (_random_uni(rng, field, 5), seven),
        (seven, UniPoly.constant(field, p - 1)),
        # a zero remainder midway, from a planted common factor
        (_random_uni(rng, field, 6) * common, _random_uni(rng, field, 4) * common),
        _with_degrees(rng, field, [11, 9, 8, 3, None]),
        # remainder degrees dropping by more than one
        _with_degrees(rng, field, [14, 12, 9, 8, 4, 3, 0]),
        _with_degrees(rng, field, [13, 10, 7, 2, 1]),
    ]


def _lazy(rng, coeffs, p: int) -> list[int]:
    """The residues with p added to some of them, as a Barrett step leaves them."""
    return [c + p * rng.randrange(2) for c in coeffs]


@pytest.mark.parametrize("p", PACKED_PRIMES + LOOP_PRIMES)
def test_packed_resultants_match_the_loop_and_sylvester(p):
    rng = random.Random(p + 1)
    for a, b in _remainder_cases(p):
        ref = _resultant_reference(list(a.coeffs), list(b.coeffs), p)
        assert ref == sylvester_determinant(a, b), (a.degree, b.degree)
        assert _resultant_modp(list(a.coeffs), list(b.coeffs), p) == ref
        assert _resultant_modp(_pack(a.coeffs), _pack(b.coeffs), p) == ref
        lazy_a, lazy_b = _lazy(rng, a.coeffs, p), _lazy(rng, b.coeffs, p)
        assert _resultant_modp(_pack(lazy_a), _pack(lazy_b), p) == ref, (a.degree, b.degree)


@pytest.mark.parametrize("p", PACKED_PRIMES + LOOP_PRIMES)
def test_packed_gcds_match_plain_euclid(p):
    for a, b in _remainder_cases(p):
        assert gcd_uni(a, b) == _gcd_reference(a, b), (a.degree, b.degree)
        assert gcd_uni(b, a) == _gcd_reference(b, a)


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("past", [0, 1], ids=["at_guard", "past_guard"])
def test_longest_guarded_quotient(p, past):
    s, m, limit = _lazy_constants(p)
    # the guard's two bounds hold at limit quotient terms and fail past it
    span = (p - 1) * (2 * p - 1)
    top = 2 * p - 1 + limit * span
    assert m == (1 << s) // p and top < 1 << s and top * m < 1 << 64
    assert not (top + span < 1 << s and (top + span) * m < 1 << 64)
    # every coefficient p - 1, a quotient of limit + past terms: a = -(1 + x
    # + ... + x^n) by b = -(1 + x), so the gcd is x + 1 for odd n, else 1
    field = GF(p)
    n = limit + past
    a = UniPoly(field, [p - 1] * (n + 1))
    b = UniPoly(field, [p - 1] * 2)
    ref = _resultant_reference(list(a.coeffs), list(b.coeffs), p)
    assert _resultant_modp(_pack(a.coeffs), _pack(b.coeffs), p) == ref
    assert gcd_uni(a, b) == UniPoly(field, [1, 1] if n % 2 else [1])


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
        d, s, t = xgcd(a, b)
        assert s * a + t * b == d


@pytest.mark.parametrize("field", [QQ, F], ids=repr)
def test_xgcd_with_zero_and_constant_operands(field):
    f = UniPoly.from_ints(field, [3, 0, 2])
    g = UniPoly.from_ints(field, [1, 5])
    zero, seven = UniPoly.zero(field), UniPoly.from_ints(field, [7])
    for a, b in [(f, zero), (zero, g), (zero, zero), (seven, f), (f, seven), (f * g, g), (g, f)]:
        d, s, t = xgcd(a, b)
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
