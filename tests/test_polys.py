import random
from fractions import Fraction
from math import comb, factorial

import pytest

from quintic_moduli import polys
from quintic_moduli.binary_forms import BinaryForm, _transvectant_table, transvectant
from quintic_moduli.polys import (
    MultiPoly,
    PolynomialRing,
    UniPoly,
    _KroneckerRing,
    _consecutive_nodes,
    _pack,
    _slot_width,
    _unpack,
    dense_product,
    interpolate,
    interpolate_bivariate,
    line_restriction,
    powers,
)
from quintic_moduli.residue_rings import ResidueRing
from quintic_moduli.scalars import GF, QQ, PrimeField

from conftest import (
    BARRETT_EDGE_PRIMES,
    compose,
    evaluate,
    fermat_quintic,
    identity_chart,
    newton_interpolation,
)

F = GF(10007)
QQ_LM = PolynomialRing(QQ, 2)
RESIDUE = ResidueRing(UniPoly.from_ints(F, [5, 1, 0, 1]))  # GF(p)[u]/(u^3 + u + 5)


def rand_unipoly(rng, field, degree):
    coeffs = [field.from_int(rng.randrange(field.p)) for _ in range(degree)]
    coeffs.append(field.from_int(1 + rng.randrange(field.p - 1)))
    return UniPoly(field, coeffs)


def rand_scalar(rng, field):
    """A random element of QQ (small height) or of GF(p)."""
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(field.p)


def rand_poly(rng, field, degree):
    """Random polynomial of exactly the given degree over QQ or GF(p)."""
    coeffs = [rand_scalar(rng, field) for _ in range(degree)]
    lc = field.zero
    while field.is_zero(lc):
        lc = rand_scalar(rng, field)
    return UniPoly(field, coeffs + [lc])


FIELDS = pytest.mark.parametrize("field", [QQ, F], ids=repr)


def form_eval(form: BinaryForm, x, y):
    """The value of a binary form at (x, y), term by term with one reduce:
    the reference for ``BinaryForm.substituted`` and its products."""
    R, n = form.ring, form.order
    xp, yp = powers(R, x, n), powers(R, y, n)
    acc = R.zero
    for k, c in enumerate(form.coeffs):
        if not R.is_zero(c):
            acc += c * xp[n - k] * yp[k]
    return R.reduce(acc)


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


@FIELDS
def test_divmod_property(field):
    rng = random.Random(21)
    shapes = [(rng.randrange(0, 12), rng.randrange(0, 8)) for _ in range(40)]
    for da, db in shapes + [(600, 597), (600, 2), (3, 5)]:
        a, b = rand_poly(rng, field, da), rand_poly(rng, field, db)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert all(type(c) is type(field.zero) for c in q.coeffs + r.coeffs)


@FIELDS
def test_products_match_evaluation(field):
    rng = random.Random(22)
    for _ in range(20):
        f = rand_poly(rng, field, rng.randrange(0, 15))
        g = rand_poly(rng, field, rng.randrange(0, 15))
        fg = f * g
        assert fg.degree == f.degree + g.degree
        for _ in range(3):
            x = rand_scalar(rng, field)
            assert fg.eval(x) == field.reduce(f.eval(x) * g.eval(x))
        p = MultiPoly(field, 2, {(i, j): rand_scalar(rng, field) for i in range(4) for j in range(3)})
        q = MultiPoly(field, 2, {(i, j): rand_scalar(rng, field) for i in range(3) for j in range(4)})
        pq = p * q
        for _ in range(3):
            pt = [rand_scalar(rng, field), rand_scalar(rng, field)]
            assert evaluate(pq, pt) == field.reduce(evaluate(p, pt) * evaluate(q, pt))
        bf, bg = BinaryForm(field, f.coeffs), BinaryForm(field, g.coeffs)
        for _ in range(3):
            x, y = rand_scalar(rng, field), rand_scalar(rng, field)
            value = field.reduce(form_eval(bf, x, y) * form_eval(bg, x, y))
            assert form_eval(bf * bg, x, y) == value


def rand_element(rng, ring):
    """A random element, zero one time in four, of any ring in the products test."""
    if rng.random() < 0.25:
        return ring.zero
    if ring is QQ_LM:
        return MultiPoly(QQ, 2, {(i, j): rand_scalar(rng, QQ) for i in range(2) for j in range(2)})
    if ring is RESIDUE:
        return RESIDUE.reduce(UniPoly(F, [rand_scalar(rng, F) for _ in range(5)]))
    return rand_scalar(rng, ring)


@pytest.mark.parametrize(
    "ring", [QQ, F, QQ_LM, RESIDUE], ids=["QQ", "GF(p)", "QQ[l,m]", "GF(p)[u]/(h)"]
)
def test_dense_products_agree_over_every_ring(ring):
    rng = random.Random(23)
    for _ in range(20):
        a = [rand_element(rng, ring) for _ in range(rng.randrange(1, 7))]
        b = [rand_element(rng, ring) for _ in range(rng.randrange(1, 7))]
        ref = _schoolbook(ring, a, b)
        assert (BinaryForm(ring, a) * BinaryForm(ring, b)).coeffs == tuple(ref)
        assert UniPoly(ring, a) * UniPoly(ring, b) == UniPoly(ring, ref)


@pytest.mark.parametrize(
    "ring", [QQ, F, QQ_LM, RESIDUE], ids=["QQ", "GF(p)", "QQ[l,m]", "GF(p)[u]/(h)"]
)
def test_subtraction_inverts_addition_over_every_ring(ring):
    rng = random.Random(29)
    for _ in range(30):
        a, b = (
            UniPoly(ring, [rand_element(rng, ring) for _ in range(rng.randrange(0, 8))])
            for _ in range(2)
        )
        # c shares the top coefficients of a, so a - c drops in degree
        k = rng.randrange(0, len(a.coeffs) + 1)
        c = UniPoly(ring, [rand_element(rng, ring) for _ in range(k)] + list(a.coeffs[k:]))
        if not a.is_zero():
            assert (a - c).degree < max(k, 1)
        m, n = (
            MultiPoly(ring, 2, {(i, j): rand_element(rng, ring) for i in range(3) for j in range(3)})
            for _ in range(2)
        )
        for x, y in ((a, b), (b, a), (a, c), (c, a), (m, n), (n, m)):
            assert (x - y) + y == x
            assert x - y == -(y - x)


def _schoolbook(ring, a, b):
    """Reference product, one add and one mul per term, each reduced."""
    ref = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            ref[i + j] = ring.reduce(ref[i + j] + ring.reduce(x * y))
    return ref


def _gf_operands(rng, p, n):
    """Operands of length n: random, all p - 1 (the largest slot sums), and
    random with zeros inside and at both ends."""
    holes = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
    if n > 2:
        holes[0] = holes[-1] = 0
    return [[rng.randrange(p) for _ in range(n)], [p - 1] * n, holes]


# the packed product's slot width follows max(a) * max(b) * min(len): at
# 2**31 - 1 it straddles 64 bits ((p - 1)**2 * 2 fits, * 4 does not); at
# 2**61 - 1 and 2**89 - 1 it is 128 or 192 bits, less for a zero factor,
# whose slots need only hold the other factor's coefficients.
@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_gf_products_match_schoolbook(p):
    field = GF(p)
    rng = random.Random(p)
    shapes = [(n, n) for n in (1, 2, 7, 8, 45, 600)] + [(2, 600), (600, 2), (46, 420), (420, 46)]
    for la, lb in shapes:
        for a, b in zip(_gf_operands(rng, p, la), _gf_operands(rng, p, lb)):
            assert dense_product(field, a, b) == _schoolbook(field, a, b), (la, lb)


def _long_division(field, a, b):
    """Reference quotient and remainder of a by b, every operation reduced."""
    rem = list(a)
    quo = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv = field.inv(b[-1])
    for k in range(len(quo) - 1, -1, -1):
        c = field.reduce(rem[k + len(b) - 1] * inv)
        quo[k] = c
        for j, d in enumerate(b):
            rem[k + j] = field.reduce(rem[k + j] - field.reduce(c * d))
    return UniPoly(field, quo), UniPoly(field, rem[: len(b) - 1])


# (dividend, divisor) lengths: a constant divisor, a dividend shorter than the
# divisor, quotients of 1, 3 and 4 terms, and the first division of Yun's
# first gcd at degree 600 (a 466-term quotient by a divisor of degree 135).
# The packed division's slots hold (terms of the quotient + 1) * p**2: at
# 2**31 - 1 quotients of up to 3 terms take 64-bit slots and longer ones
# 128-bit slots; at 2**61 - 1 and 2**89 - 1 every division takes wider ones.
@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_gf_divmod_matches_long_division(p):
    field = GF(p)
    rng = random.Random(p)
    shapes = [(0, 3), (40, 1), (5, 9), (136, 136), (138, 136), (139, 136), (601, 136)]
    for la, lb in shapes:
        for a, b in zip(_gf_operands(rng, p, la), _gf_operands(rng, p, lb)):
            b[-1] = b[-1] or 1
            got = UniPoly(field, a).divmod(UniPoly(field, b))
            assert got == _long_division(field, a, b), (la, lb)


class _PackedOnlyField(PrimeField):
    """GF(p) whose ``reduce`` raises: only the packed kernels can serve it."""

    def reduce(self, x):
        raise AssertionError("a GF(p) operand took the accumulate-then-reduce loop")


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_no_gf_operand_takes_a_loop(p):
    field, packed = GF(p), _PackedOnlyField(p)
    rng = random.Random(p)
    for la, lb in [(1, 1), (7, 8), (45, 45), (2, 600), (420, 46)]:
        for a, b in zip(_gf_operands(rng, p, la), _gf_operands(rng, p, lb)):
            assert dense_product(packed, a, b) == _schoolbook(field, a, b), (la, lb)
    for la, lb in [(40, 1), (139, 136), (601, 136)]:
        for a, b in zip(_gf_operands(rng, p, la), _gf_operands(rng, p, lb)):
            b[-1] = b[-1] or 1
            q, r = UniPoly(packed, a).divmod(UniPoly(packed, b))
            assert (q.coeffs, r.coeffs) == tuple(
                x.coeffs for x in _long_division(field, a, b)
            ), (la, lb)


# max(a) * max(b) * min(len) is exactly 2**64 - 1, then exactly 2**64: the
# middle slot's sum reaches the bound, so the first fits 64-bit slots and
# the second needs 128
@pytest.mark.parametrize(
    "a, b, width",
    [([(2**32 - 1) // 3] * 3, [2**32 + 1] * 3, 64), ([2**32] * 2, [2**31] * 2, 128)],
)
def test_packed_product_at_the_64_bit_edge(monkeypatch, a, b, width):
    widths = []

    def spy(coeffs, w=64):
        widths.append(w)
        return _pack(coeffs, w)

    monkeypatch.setattr(polys, "_pack", spy)
    p = 2**61 - 1
    assert max(a) * max(b) * min(len(a), len(b)) == 2**64 - (width == 64)
    assert dense_product(_PackedOnlyField(p), a, b) == _schoolbook(GF(p), a, b)
    assert widths == [width, width]


def test_packed_product_rejects_negative_coefficients():
    with pytest.raises(OverflowError):
        dense_product(F, [3, -1], [2, 5])


# the slot widths of the packed remainder kernel at 2**31 - 1, 2**61 - 1 and
# 2**89 - 1: values 0, p - 1, p and 2p - 1 in [0, 2p), as a Barrett step
# leaves them, most of them at or past 2**64
@pytest.mark.parametrize("width, p", [(128, 2**31 - 1), (192, 2**61 - 1), (320, 2**89 - 1)])
def test_wide_slots_round_trip(width, p):
    values = [0, p - 1, p, 2 * p - 1, 1 << 64, (1 << width) - 1]
    # and slots whose values reach one word, two words and the slot's top
    # word, each of a slot's words recombined; a zero top slot is still
    # unpacked
    for case in (values, values[:2] + [0], [5, 0, (1 << 64) - 1], [1, 1 << 64, 3],
                 [(1 << width - 64) + 2, 0, 7]):
        packed = _pack(case, width)
        assert packed == sum(v << width * k for k, v in enumerate(case))
        assert list(_unpack(packed, len(case), width)) == case
    for case in ([3, -1], [1 << 64, -1], [1 << width]):
        with pytest.raises(OverflowError):
            _pack(case, width)


@pytest.mark.parametrize(
    "bound, width",
    [(0, 64), (1, 64), ((1 << 64) - 1, 64), (1 << 64, 128), ((1 << 128) - 1, 128), (1 << 128, 192)],
)
def test_slot_width_is_the_least_that_holds_the_bound(bound, width):
    assert _slot_width(bound) == width
    assert bound < 1 << width and (width == 64 or bound >= 1 << width - 64)


def _partial(ring, coeffs, var):
    """Coefficients of d/dx (var 0) or d/dy (var 1) of a form given by ``coeffs``."""
    n = len(coeffs) - 1
    if var == 0:
        return [ring.reduce(ring.from_int(n - t) * coeffs[t]) for t in range(n)]
    return [ring.reduce(ring.from_int(t + 1) * coeffs[t + 1]) for t in range(n)]


def _reference_transvectant(ring, g, h, k):
    """(g, h)_k from its definition: explicit partials, the sum over r, then
    the scaling (m-k)! (n-k)! / (m! n!), one ring operation at a time."""
    m, n = len(g) - 1, len(h) - 1
    out = [ring.zero] * (m + n - 2 * k + 1)
    for r in range(k + 1):
        gd, hd = list(g), list(h)
        for var, times in ((0, k - r), (1, r)):
            for _ in range(times):
                gd = _partial(ring, gd, var)
        for var, times in ((0, r), (1, k - r)):
            for _ in range(times):
                hd = _partial(ring, hd, var)
        weight = ring.from_int((-1) ** r * comb(k, r))
        for i, x in enumerate(gd):
            for j, y in enumerate(hd):
                out[i + j] = ring.reduce(out[i + j] + ring.reduce(weight * ring.reduce(x * y)))
    scaling = ring.from_fraction(
        Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    )
    return tuple(ring.reduce(scaling * c) for c in out)


@pytest.mark.parametrize(
    "ring", [QQ, F, QQ_LM, RESIDUE], ids=["QQ", "GF(p)", "QQ[l,m]", "GF(p)[u]/(h)"]
)
def test_transvectant_matches_its_definition(ring):
    rng = random.Random(29)
    for m in range(7):
        for n in range(7):
            g = [rand_element(rng, ring) for _ in range(m + 1)]
            h = [rand_element(rng, ring) for _ in range(n + 1)]
            for k in range(min(m, n) + 1):
                got = transvectant(BinaryForm(ring, g), BinaryForm(ring, h), k)
                assert got.order == m + n - 2 * k
                assert got.coeffs == _reference_transvectant(ring, g, h, k), (m, n, k)


def _term_by_term_transvectant(g, h, k):
    """(g, h)_k over QQ as one ``Fraction`` sum per output coefficient,
    term by term over the table's weights, then the scaling."""
    rows, scaling = _transvectant_table(len(g) - 1, len(h) - 1, k)
    return tuple(
        scaling * sum((w * Fraction(g[t]) * Fraction(h[s]) for t, s, w in row), Fraction(0))
        for row in rows
    )


def test_qq_transvectant_matches_the_term_by_term_sums():
    rng = random.Random(53)

    def coefficient():
        kind = rng.choice(["zero", "int", "fraction"])
        if kind == "zero":
            return rng.choice([0, Fraction(0)])
        if kind == "int":
            return rng.choice([int, Fraction])(rng.randint(-50, 50))
        return Fraction(rng.randint(-50, 50), rng.choice([2, 7, 9, 1009, rng.randint(1, 10**4)]))

    for m in range(7):
        for n in range(7):
            for _ in range(3):
                g = [coefficient() for _ in range(m + 1)]
                h = [coefficient() for _ in range(n + 1)]
                for k in range(min(m, n) + 1):
                    got = transvectant(BinaryForm(QQ, g), BinaryForm(QQ, h), k).coeffs
                    assert got == _term_by_term_transvectant(g, h, k), (m, n, k)
                    assert all(type(c) is Fraction for c in got)


def _hard_qq_form(rng, order):
    """A QQ coefficient list with large coprime or shared denominators, or zero."""
    kind = rng.choice(["coprime", "shared", "zero", "integral"])
    if kind == "zero":
        return [Fraction(0)] * (order + 1)
    dens = {
        "coprime": [1, 999983, 1000003, 999979, 3 * 333331],
        "shared": [rng.choice([999983, 2 * 999983, 720720])],
        "integral": [1],
    }[kind]
    return [
        Fraction(rng.randint(-10**6, 10**6) * rng.choice([0, 1, 1, 1]), rng.choice(dens))
        for _ in range(order + 1)
    ]


def test_qq_kernels_with_hard_denominators():
    """Transvectants and form products over QQ, against the one-operation-at-a-time
    references, on denominators near 10**6 that are coprime or shared, on
    negative entries and on zero forms; every coefficient comes back a Fraction."""
    rng = random.Random(37)
    for _ in range(4):
        for m in range(7):
            for n in range(7):
                g, h = _hard_qq_form(rng, m), _hard_qq_form(rng, n)
                bg, bh = BinaryForm(QQ, g), BinaryForm(QQ, h)
                product = (bg * bh).coeffs
                assert product == tuple(_schoolbook(QQ, g, h)), (m, n)
                assert all(type(c) is Fraction for c in product)
                for k in range(min(m, n) + 1):
                    for got, ref in (
                        (transvectant(bg, bh, k), _reference_transvectant(QQ, g, h, k)),
                        (transvectant(bg, bg, k), _reference_transvectant(QQ, g, g, k)),
                    ):
                        assert got.coeffs == ref, (m, n, k)
                        assert all(type(c) is Fraction for c in got.coeffs)
                lins = ((g[0], h[0]), (g[-1], h[-1]))
                substituted = bg.substituted(lins).coeffs
                assert all(type(c) is Fraction for c in substituted)
                x, y = _hard_qq_form(rng, 1)
                u, v = lins[0][0] * x + lins[0][1] * y, lins[1][0] * x + lins[1][1] * y
                assert form_eval(BinaryForm(QQ, substituted), x, y) == form_eval(bg, u, v)


def _reference_substituted(form: BinaryForm, m) -> BinaryForm:
    """The substitution as one generic loop in the form's own ring: the
    powers of the two linear forms, then the scaled products summed."""
    R, n = form.ring, form.order
    rows = []
    for lin in m:
        lin = BinaryForm(R, lin)
        row = [BinaryForm(R, [R.one])]
        for _ in range(n):
            row.append(row[-1] * lin)
        rows.append(row)
    xp, yp = rows
    acc = BinaryForm.zero(R, n)
    for k, c in enumerate(form.coeffs):
        if not R.is_zero(c):
            acc = acc + (xp[n - k] * yp[k]).scale(c)
    return acc


@pytest.mark.parametrize("singular", [False, True], ids=["invertible", "singular"])
def test_qq_substitution_matches_the_generic_loop(singular):
    """Over QQ, ``substituted`` clears the denominators and runs over the
    integers; it must equal the loop in QQ on fractional matrices, singular
    ones included, at every order and on forms with zero coefficients."""
    rng = random.Random(41 + singular)
    for _ in range(60):
        order = rng.randrange(0, 7)
        if rng.random() < 0.3:
            coeffs = _hard_qq_form(rng, order)
        else:
            coeffs = [
                Fraction(rng.randint(-9, 9) * rng.choice([0, 1, 1]), rng.randint(1, 12))
                for _ in range(order + 1)
            ]
        form = BinaryForm(QQ, coeffs)
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(3))
        if singular:
            # (c, d) a multiple of (a, b), or a zero row
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            m = ((a, b), (t * a, t * b))
        else:
            d = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            m = ((a, b), (c, d))
        got = form.substituted(m)
        assert got.coeffs == _reference_substituted(form, m).coeffs
        assert all(type(x) is Fraction for x in got.coeffs)


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


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1])
def test_kronecker_ring_reads_signed_slots_up_to_the_bound(p):
    bound = 7 * (p - 1) ** 2
    ring = _KroneckerRing(p, 4, bound)
    w = ring.width
    assert ring.bias % p == 0 and bound <= ring.bias < bound + p
    assert ring.bias + bound < 1 << w and ring.bias + bound >= 1 << w - 64
    assert ring.reduce(ring.zero) == 0 and ring.terms(ring.zero) == {}
    # slots at +bound and -bound, the top one negative: x**i y**j sits in
    # slot 4 i + j
    x = bound - (bound << w) + (3 << w * 5) - (bound << w * 7)
    expected = {(0, 0): 7, (0, 1): p - 7, (1, 1): 3, (1, 3): p - 7}
    assert ring.terms(x) == expected
    assert ring.terms(-x) == {e: p - c for e, c in expected.items()}
    assert ring.reduce(x) == _pack([7, p - 7, 0, 0, 0, 3, 0, p - 7], w)
    assert ring.terms(ring.reduce(x)) == expected
    # a product of reduced elements is the product of the polynomials:
    # (1 + x)**2 - y**2
    one_plus_x, y = 1 + (1 << w * 4), 1 << w
    square = ring.reduce(one_plus_x * one_plus_x - y * y)
    assert ring.terms(square) == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 2): p - 1}


def test_multipoly_eval_examples():
    # p = x^2 + y
    p = MultiPoly(QQ, 2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    assert evaluate(p, [Fraction(0), Fraction(0)]) == 0
    assert evaluate(p, [Fraction(2), Fraction(3)]) == 7
    with pytest.raises(ValueError):
        evaluate(p, [Fraction(1)])


def test_restricted_fermat_root_evaluates_to_zero():
    # find a root of the restricted Fermat quintic over GF(p) by brute
    # univariate root search, then substitute back into the bivariate form
    from quintic_moduli.plane_curves import restrict_to_line

    curve = fermat_quintic().reduce_mod(F)
    root = None
    for b in range(11, 40):  # not every restriction has a rational root; scan
        chart = identity_chart(F, F.from_int(3), F.from_int(b))
        f = restrict_to_line(curve, chart)
        uni = f.to_unipoly()
        root = next((x for x in range(F.p) if uni.eval(x) == 0), None)
        if root is not None:
            break
    assert root is not None
    biv = MultiPoly(F, 2, {(5 - k, k): c for k, c in enumerate(f.coeffs) if c})
    assert evaluate(biv, [root, F.one]) == 0


def test_multipoly_compose_matches_eval():
    rng = random.Random(3)
    p = MultiPoly(
        F, 2, {(i, j): rng.randrange(F.p) for i in range(4) for j in range(3)}
    )
    args = [
        MultiPoly(F, 2, {(1, 0): 2, (0, 1): 3, (0, 0): 5}),
        MultiPoly(F, 2, {(1, 1): 7, (0, 0): 1}),
    ]
    composed = compose(p, args)
    for point in [(0, 0), (4, 9), (123, 456)]:
        pt = [F.from_int(v) for v in point]
        inner = [evaluate(g, pt) for g in args]
        assert evaluate(composed, pt) == evaluate(p, inner)


def _restriction_by_compose(poly, v, ring, a, b):
    """Reference for ``line_restriction``: compose with x_v = A x_o1 + B x_o2
    in QQ- or GF(p)-polynomials of (x_o1, x_o2, A, B), then evaluate each
    x_o2-degree part at (A, B) = (a, b) over ``ring``."""
    base = poly.field
    x, y, sa, sb = (MultiPoly.variable(base, 4, i) for i in range(4))
    o1, o2 = (o for o in range(3) if o != v)
    args = [None] * 3
    args[o1], args[o2], args[v] = x, y, sa * x + sb * y
    composed = compose(poly, args)
    out = []
    for k in range(poly.total_degree + 1):
        part = {(e[2], e[3]): c for e, c in composed.terms.items() if e[1] == k}
        out.append(evaluate(MultiPoly(base, 2, part).map_coefficients(ring, ring.from_fraction), (a, b)))
    return out


@pytest.mark.parametrize(
    "ring", [QQ, F, RESIDUE], ids=["QQ", "GF(p)", "GF(p)[u]/(h)"]
)
@pytest.mark.parametrize("v", [0, 1, 2])
def test_line_restriction_matches_compose_and_eval(ring, v):
    rng = random.Random(41 + v)
    base = QQ if ring is QQ else F
    for d in (1, 3, 5):
        for _ in range(4):
            terms = {
                (i, j, d - i - j): rand_scalar(rng, base)
                for i in range(d + 1)
                for j in range(d + 1 - i)
                if rng.random() < 0.7
            }
            poly = MultiPoly(base, 3, terms)
            if poly.is_zero():
                continue
            a, b = rand_element(rng, ring), rand_element(rng, ring)
            restrict = line_restriction(poly.terms, v)
            got = [ring.reduce(c) for c in restrict(powers(ring, a, d), powers(ring, b, d))]
            assert got == _restriction_by_compose(poly, v, ring, a, b), (d, v)


def test_interpolate_examples():
    assert list(interpolate([1, 2], F).coeffs) == [1, 1]
    assert interpolate([], F).is_zero()
    # p values fill the nodes 0..p-1; one more repeats node 0 mod p
    field = GF(2503)
    assert interpolate([5] * 2503, field) == UniPoly.constant(field, 5)
    with pytest.raises(ValueError, match=r"nodes 0\.\.2503, which repeat mod 2503"):
        interpolate([5] * 2504, field)


def test_interpolation_inverts_evaluation():
    rng = random.Random(7)
    for _ in range(25):
        poly = rand_unipoly(rng, F, rng.randrange(0, 12))
        n = poly.degree + 1 + rng.randrange(3)  # up to two nodes more than needed
        assert interpolate([poly.eval(x) for x in range(n)], F) == poly


# The subproduct tree pairs consecutive nodes: 601 and 69 values give odd
# levels, with a node moving up unchanged.
@pytest.mark.parametrize("p, n", [(10007, 601), (2**61 - 1, 70)])
def test_interpolation_through_many_nodes(p, n):
    field = GF(p)
    rng = random.Random(n)
    for size in (0, 1, 2, n - 1, n):
        values = [rng.randrange(p) for _ in range(size)]
        poly = interpolate(values, field)
        assert poly.degree < size, size
        assert [poly.eval(x) for x in range(size)] == values, size


@pytest.mark.parametrize("p", [3001, *BARRETT_EDGE_PRIMES])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 33, 34, 46, 601])
def test_consecutive_nodes_match_the_remainder_tree(p, n):
    # the closed-form weights and the cached packed tree against the
    # divided differences of the reference, fed the same samples shuffled,
    # so through nodes in no particular order; all-(p - 1) values make
    # every leaf and every slot of the tree as large as it gets
    field = GF(p)
    rng = random.Random(p + n)
    for values in ([rng.randrange(p) for _ in range(n)], [p - 1] * n):
        poly = interpolate(values, field)
        assert poly.degree < n
        assert [poly.eval(x) for x in range(n)] == values
        shuffled = list(enumerate(values))
        rng.shuffle(shuffled)
        assert newton_interpolation(shuffled, field) == poly


#: The interpolation tree's slot edge at 601 nodes, the fiber eliminant's
#: count: the bound n (2p - 1)(p - 1) of ``_consecutive_nodes`` takes 64-bit
#: slots up to 21383 and 128-bit slots from 21391 on.
@pytest.mark.parametrize("p, width", [(21383, 64), (21391, 128)])
def test_interpolation_at_the_slot_edge(p, width):
    # the width is pinned on both sides of the edge, and interpolate is
    # checked against evaluation at every node on values whose weighted
    # leaves are all p - 1, the largest a leaf gets, so every sum up the
    # tree takes its largest products before its Barrett step
    field, n = GF(p), 601
    _, weights, (_, _, w, _) = _consecutive_nodes(p, n)
    assert w == width
    rng = random.Random(p)
    largest_leaves = [(p - 1) * pow(c, -1, p) % p for c in weights]
    for values in (largest_leaves, [p - 1] * n, [rng.randrange(p) for _ in range(n)]):
        poly = interpolate(values, field)
        assert poly.degree < n
        coeffs = poly.coeffs[::-1]
        for x, value in enumerate(values):
            acc = 0
            for c in coeffs:
                acc = (acc * x + c) % p
            assert acc == value, x


def test_consecutive_node_cache_is_not_aliased():
    # two calls at one (p, n) share the cached tree and weights, never the
    # values: the first result survives the second call, and the cache reads
    # the same before and after
    field = GF(3001)
    n = 37
    cached = _consecutive_nodes(field.p, n)
    before = repr(cached)
    first_values = [(x * x + 1) % field.p for x in range(n)]
    first = interpolate(first_values, field)
    second = interpolate([(7 * x + 3) % field.p for x in range(n)], field)
    assert first == UniPoly(field, [1, 0, 1]) and second == UniPoly(field, [3, 7])
    assert first == interpolate(first_values, field)
    assert _consecutive_nodes(field.p, n) == cached
    assert repr(cached) == before


def test_interpolate_bivariate_roundtrip():
    rng = random.Random(11)
    for field in (GF(10007), GF(3001)):
        for n in (0, 1, 4, 30):
            # random polynomial of total degree <= n, sampled at the nodes (i, j)
            poly = MultiPoly(
                field, 2,
                {(i, j): rng.randrange(field.p) for i in range(n + 1) for j in range(n + 1 - i)},
            )
            values = [[evaluate(poly, (i, j)) for j in range(n + 1 - i)] for i in range(n + 1)]
            assert interpolate_bivariate(values, field) == poly, (field, n)


def test_interpolate_bivariate_rejects_bad_lattices():
    with pytest.raises(ValueError, match="lattice"):  # a full 2x2 grid, not {i + j <= 1}
        interpolate_bivariate([[1, 2], [3, 4]], F)
    with pytest.raises(ValueError, match="lattice"):  # rows in the wrong order
        interpolate_bivariate([[1], [2, 3]], F)
    with pytest.raises(ValueError, match="prime field"):
        interpolate_bivariate([[Fraction(1)]], QQ)


def test_operations_are_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    f1 = rand_unipoly(rng1, F, 30)
    f2 = rand_unipoly(rng2, F, 30)
    assert (f1 * f1).coeffs == (f2 * f2).coeffs


def test_sorted_terms_is_lexicographic_descending():
    p = MultiPoly(QQ, 2, {(0, 1): Fraction(1), (1, 0): Fraction(2), (0, 2): Fraction(3)})
    assert [e for e, _ in p.sorted_terms()] == [(1, 0), (0, 2), (0, 1)]
