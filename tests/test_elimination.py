import random
import tracemalloc
from fractions import Fraction

import pytest

from quintic_moduli import elimination
from quintic_moduli.elimination import (
    _eval_slices,
    _gcd_cofactor,
    _lazy_constants,
    _lazy_sequence,
    _reduce_by_constant_lead,
    _resultant_modp,
    gcd_uni,
    resultant_bivar_elim,
    resultant_uni,
    squarefree_decomposition,
)
from quintic_moduli.fiber_counting import _draw_target, build_fiber_system
from quintic_moduli.plane_curves import PlaneCurve, _hessian_form, random_invertible_frame
from quintic_moduli.polys import MultiPoly, UniPoly, _pack, _slot_width, _unpack, interpolate
from quintic_moduli.residue_rings import ResidueRing
from quintic_moduli.scalars import GF, QQ

from conftest import (
    FLEX_BITANGENT_RECORDS,
    GENERIC_QUINTIC_RECORDS,
    SplitNeeded,
    SplittingRing,
    dehom_y,
    evaluate,
    fermat_quintic,
    newton_interpolation,
)

F = GF(10007)
#: primes whose remainder sequences run packed in 64-bit slots, and primes
#: whose Barrett bounds need wider slots: 128 bits at 2**31 - 1, 192 at
#: 2**61 - 1 and 320 at 2**89 - 1
PACKED_PRIMES = (2503, 3001, 10007)
LOOP_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1)
#: a prime whose 64-bit slots take limit 2, so a division whose quotient
#: passes 2 terms over a divisor of more than 3 slots takes Barrett steps
#: part-way
SHORT_LIMIT_PRIME = 1000003


def _packed(coeffs, p: int) -> int:
    """The coefficients packed in the slot width of p's remainder kernel."""
    return _pack(coeffs, _lazy_constants(p)[4])


def _product(a: UniPoly, b: UniPoly) -> UniPoly:
    """a * b over GF(p) as one bigint product (Kronecker substitution): the
    operands and cofactors at the Barrett limits run to thousands of terms
    (1676 at 10007), where ``UniPoly.__mul__``'s schoolbook loop takes
    seconds."""
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field)
    p, la, lb = a.field.p, len(a.coeffs), len(b.coeffs)
    w = _slot_width(min(la, lb) * (p - 1) ** 2)
    product = _unpack(_pack(a.coeffs, w) * _pack(b.coeffs, w), la + lb - 1, w)
    return UniPoly(a.field, [c % p for c in product])


def linear(field, a):
    """x - a over the given field."""
    return UniPoly(field, [field.reduce(-field.from_int(a)), field.one])


def sylvester_determinant(f: UniPoly, g: UniPoly, n=None, m=None):
    """Independent oracle: expand the Sylvester matrix determinant directly,
    at formal degrees n >= deg f and m >= deg g (by default the degrees):
    leading zero coefficients pad the rows."""
    field = f.field
    n = f.degree if n is None else n
    m = g.degree if m is None else m
    rows = []
    fc = [field.zero] * (n + 1 - len(f.coeffs)) + list(reversed(f.coeffs))  # descending
    gc = [field.zero] * (m + 1 - len(g.coeffs)) + list(reversed(g.coeffs))
    for k in range(m):
        rows.append([field.zero] * k + fc + [field.zero] * (m - 1 - k))
    for k in range(n):
        rows.append([field.zero] * k + gc + [field.zero] * (n - 1 - k))
    return _determinant(rows, field)


def first_subresultant(f: UniPoly, g: UniPoly, n: int, m: int) -> tuple:
    """Independent oracle: (s0, s1) of the first subresultant S1 = s1 x + s0
    of f and g at formal degrees n and m, from its Sylvester-minor
    definition in the standard row order: the rows x^(m-2) f, ..., f, then
    x^(n-2) g, ..., g, and the columns of x^(n+m-2), ..., x^2, then the
    column of x^l for s_l."""
    field = f.field

    def row(poly: UniPoly, shift: int) -> list:
        coeffs = [field.zero] * shift + list(poly.coeffs)
        return coeffs + [field.zero] * (n + m - len(coeffs))

    rows = [row(f, k) for k in range(m - 2, -1, -1)] + [row(g, k) for k in range(n - 2, -1, -1)]
    columns = range(n + m - 2, 1, -1)
    return tuple(
        _determinant([[r[c] for c in columns] + [r[l]] for r in rows], field) for l in (0, 1)
    )


def _determinant(rows: list, field):
    """Gaussian elimination with division over a field."""
    rows = [list(r) for r in rows]
    size = len(rows)
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
        # quotients of 1, 2 and 6 terms, the 6-term one over a 4-slot divisor
        _with_degrees(rng, field, [9, 9, 8, 3, 0]),
    ]


def _lazy(rng, coeffs, p: int) -> list[int]:
    """The residues with p added to some of them, as a Barrett step leaves them."""
    return [c + p * rng.randrange(2) for c in coeffs]


@pytest.mark.parametrize("p", PACKED_PRIMES + (SHORT_LIMIT_PRIME,) + LOOP_PRIMES)
def test_packed_resultants_match_the_loop_and_sylvester(p):
    rng = random.Random(p + 1)
    for a, b in _remainder_cases(p):
        ref = _resultant_reference(list(a.coeffs), list(b.coeffs), p)
        assert ref == sylvester_determinant(a, b), (a.degree, b.degree)
        assert _resultant_modp(_packed(a.coeffs, p), _packed(b.coeffs, p), p) == ref
        lazy_a, lazy_b = _lazy(rng, a.coeffs, p), _lazy(rng, b.coeffs, p)
        assert _resultant_modp(_packed(lazy_a, p), _packed(lazy_b, p), p) == ref, (
            a.degree,
            b.degree,
        )


@pytest.mark.parametrize("p", PACKED_PRIMES + (SHORT_LIMIT_PRIME,) + LOOP_PRIMES)
def test_packed_gcds_match_plain_euclid(p):
    for a, b in _remainder_cases(p):
        assert gcd_uni(a, b) == _gcd_reference(a, b), (a.degree, b.degree)
        assert gcd_uni(b, a) == _gcd_reference(b, a)


def test_packed_sequence_steps_mid_division():
    # the last remainder case at SHORT_LIMIT_PRIME: its 6-term quotient over
    # a 4-slot divisor takes Barrett steps part-way, and the sequence still
    # runs packed to its constant remainder
    p = SHORT_LIMIT_PRIME
    assert _lazy_constants(p)[2] == 2
    a, b = _remainder_cases(p)[-1]
    assert (a.degree, b.degree) == (9, 9)
    ref = _resultant_reference(list(a.coeffs), list(b.coeffs), p)
    assert ref == sylvester_determinant(a, b) != 0
    na, nb = len(a.coeffs), len(b.coeffs)
    for lift in (0, p):  # canonical slots, and every slot in [p, 2p)
        packed_a = _packed([c + lift for c in a.coeffs], p)
        packed_b = _packed([c + lift for c in b.coeffs], p)
        assert _lazy_sequence(packed_a, na, packed_b, nb, p)[3] == 1
        assert _resultant_modp(packed_a, packed_b, p) == ref


def _one_product_fits(p: int, w: int) -> bool:
    """Whether some shift s < w lets a slot below 2p take one product
    (p - c) * b_j and stay within both bounds of the Barrett step in a w-bit
    slot."""
    top = 2 * p - 1 + (p - 1) * (2 * p - 1)
    return any(top < 1 << s and top * ((1 << s) // p) < 1 << w for s in range(1, w))


@pytest.mark.parametrize("p", PACKED_PRIMES + (SHORT_LIMIT_PRIME,) + LOOP_PRIMES)
@pytest.mark.parametrize("past", [0, 1], ids=["at_limit", "past_limit"])
def test_limit_keeps_slots_within_the_barrett_bounds(p, past):
    # a slot below 2p that takes limit products (p - c) * b_j below
    # (p - 1)(2p - 1) stays within both bounds of the Barrett step in a
    # w-bit slot; one product more passes one of them
    s, m, limit, _, w = _lazy_constants(p)
    assert limit >= 1 and m == (1 << s) // p and s < w and w % 64 == 0
    top = 2 * p - 1 + (limit + past) * (p - 1) * (2 * p - 1)
    assert (top < 1 << s and top * m < 1 << w) == (not past)


@pytest.mark.parametrize(
    "p, width",
    [(2503, 64), (10007, 64), (SHORT_LIMIT_PRIME, 64), (1482907, 64), (1482919, 128)]
    + [(2**31 - 1, 128), (2**61 - 1, 192), (2**89 - 1, 320)],
)
def test_slot_width_is_the_least_that_works(p, width):
    # the slot of p's remainder kernel is the least multiple of 64 bits
    # where a slot takes a product between two Barrett steps
    assert _lazy_constants(p)[4] == width
    assert _one_product_fits(p, width)
    assert width == 64 or not _one_product_fits(p, width - 64)


@pytest.mark.parametrize("p", [10007, SHORT_LIMIT_PRIME, 2**61 - 1])
@pytest.mark.parametrize("terms, slots", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
def test_divisions_at_and_past_the_limit(p, terms, slots):
    # one division of limit + terms quotient terms over limit + slots
    # divisor slots, to a constant remainder; every slot starts at its
    # residue plus p and every product is (p - 1)(2p - 1), the most a slot
    # takes.  Only in the last two cases would a kept slot take limit + 1
    # products without the Barrett steps run part-way; at 2**61 - 1 they
    # run in 192-bit slots
    limit = _lazy_constants(p)[2]
    field = GF(p)
    q = UniPoly(field, [1] * (limit + terms))
    b = UniPoly(field, [p - 1] * (limit + slots))
    a = _product(q, b) + UniPoly.constant(field, 5)
    packed_a = _packed([c + p for c in a.coeffs], p)
    packed_b = _packed([c + p for c in b.coeffs], p)
    assert _resultant_modp(packed_a, packed_b, p) == resultant_uni(a, b) != 0
    assert gcd_uni(a, b) == UniPoly.constant(field, 1)


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
    s = MultiPoly.variable(F, 2, 0)
    x = MultiPoly.variable(F, 2, 1)
    one = MultiPoly.constant(F, 2, F.one)
    two = MultiPoly.constant(F, 2, F.from_int(2))
    r = resultant_bivar_elim(x - s, x - one)
    assert list(r.coeffs) == [F.from_int(-1), F.one]  # s - 1
    r2 = resultant_bivar_elim(x * x - s, x - two)
    assert list(r2.coeffs) == [F.from_int(4), F.from_int(-1)]  # 4 - s


def test_bivariate_elimination_matches_direct_resultants():
    # f's lead in x is the nonzero constant the eliminant needs
    rng = random.Random(3)
    f = MultiPoly(F, 2, {(j, i): rng.randrange(F.p) for i in range(3) for j in range(3)})
    f = f + MultiPoly(F, 2, {(0, 3): 1 + rng.randrange(F.p - 1)})
    g = MultiPoly(F, 2, {(j, i): rng.randrange(F.p) for i in range(3) for j in range(4)})
    r = resultant_bivar_elim(f, g)
    # check at fresh sample points against direct univariate resultants
    for s in (501, 502, 777):
        def specialise(poly, val):
            coeffs = {}
            for (j, i), c in poly.terms.items():
                coeffs[i] = F.reduce(coeffs.get(i, F.zero) + F.reduce(c * F.pow(F.from_int(val), j)))
            return UniPoly(F, [coeffs.get(i, F.zero) for i in range(max(coeffs) + 1)])

        fu, gu = specialise(f, s), specialise(g, s)
        if fu.degree == f.degree_in(1) and gu.degree == g.degree_in(1):
            assert r.eval(F.from_int(s)) == resultant_uni(fu, gu)


def _at(poly: MultiPoly, s: int) -> UniPoly:
    """The bivariate poly at x_keep = s, a polynomial in the eliminated variable."""
    field = poly.field
    powers: dict[int, int] = {}  # s**k mod p, once per kept exponent k
    coeffs = [0] * (poly.degree_in(1) + 1)
    for (k, e), c in poly.terms.items():
        if k not in powers:
            powers[k] = pow(s, k, field.p)
        coeffs[e] += c * powers[k]
    return UniPoly(field, [c % field.p for c in coeffs])


def _resampling_eliminant(f: MultiPoly, g: MultiPoly) -> UniPoly:
    """The eliminant as it was computed before the formal-degree rule:
    sample where neither lead vanishes, skipping the others, take univariate
    resultants there (by the list loop) and interpolate through those nodes
    (Newton)."""
    field = f.field
    df, dg = f.degree_in(1), g.degree_in(1)
    needed = f.total_degree * g.total_degree + 1
    samples = []
    for s in range(field.p):
        fs, gs = _at(f, s), _at(g, s)
        if fs.degree == df and gs.degree == dg:
            samples.append((s, _resultant_reference(list(fs.coeffs), list(gs.coeffs), field.p)))
            if len(samples) == needed:
                return newton_interpolation(samples, field)
    raise AssertionError("too few samples")


def _bivariate(field, terms: dict) -> MultiPoly:
    """(s, x) exponents to coefficients, x the eliminated variable."""
    return MultiPoly(field, 2, {e: field.reduce(field.from_int(c)) for e, c in terms.items()})


def _sampled_pair(f: MultiPoly, g: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The pair whose slices the eliminant evaluates: (f, g mod f), f's lead
    in x_1 being a nonzero constant."""
    return f, _reduce_by_constant_lead(g, f)


#: (f, g) in (s, x), x eliminated, with the samples s where a lead vanishes.
#: "reduced lead": f has constant lead 5, so g is replaced by g mod f =
#: (s - 3) x + 2, whose lead vanishes at s = 3 (the eliminant is scaled by
#: 5**2).  "keep grows": x + s^2 reduces x^3 + s x + 1 to -s^6 - s^3 + 1,
#: keep-degree 6 against the inputs' 2.  "constant remainder": x^2 + s
#: reduces to s - 1, zero at s = 1.  "zero remainder": g = s f reduces to 0.
#: In "f lead" (s - 2 vanishing at s = 2, g of odd degree), "both" (both
#: leads vanish at s = 2) and "f drops by 2" (f's two top coefficients
#: vanish at s = 4) f's lead is not a constant, and the eliminant refuses
#: the pair (None): the callers redraw a frame that gives one.
FORMAL_DEGREE_CASES = {
    "reduced lead": (
        {(0, 2): 5, (1, 1): 1, (0, 0): 1},
        {(0, 3): 5, (1, 2): 1, (1, 1): 1, (0, 1): -2, (0, 0): 2},
        [3],
    ),
    "f lead": ({(1, 2): 1, (0, 2): -2, (0, 1): 1, (1, 0): 1}, {(0, 3): 1, (1, 1): 1, (0, 0): 3}, None),
    "both": (
        {(1, 2): 1, (0, 2): -2, (0, 1): 1, (0, 0): 1},
        {(1, 3): 1, (0, 3): -2, (1, 1): 1, (0, 0): 1},
        None,
    ),
    "f drops by 2": (
        {(1, 2): 1, (0, 2): -4, (1, 1): 1, (0, 1): -4, (0, 0): 1},
        {(0, 3): 2, (1, 0): 1, (0, 0): 5},
        None,
    ),
    "keep grows": ({(0, 1): 1, (2, 0): 1}, {(0, 3): 1, (1, 1): 1, (0, 0): 1}, []),
    "constant remainder": ({(0, 2): 1, (0, 0): 1}, {(0, 2): 1, (1, 0): 1}, [1]),
    "zero remainder": ({(0, 2): 1, (1, 1): 1, (0, 0): 3}, {(1, 2): 1, (2, 1): 1, (1, 0): 3}, []),
}


@pytest.mark.parametrize("p", [3001, 10007, SHORT_LIMIT_PRIME, 2**31 - 1])
@pytest.mark.parametrize("case", FORMAL_DEGREE_CASES)
def test_formal_degree_eliminant(p, case):
    field = GF(p)
    f_terms, g_terms, vanishing = FORMAL_DEGREE_CASES[case]
    f, g = _bivariate(field, f_terms), _bivariate(field, g_terms)
    if vanishing is None:
        with pytest.raises(ValueError, match="nonzero constant"):
            resultant_bivar_elim(f, g)
        return
    df, dg = f.degree_in(1), g.degree_in(1)
    bound = f.total_degree * g.total_degree
    _, sampled = _sampled_pair(f, g)
    if not sampled.is_zero():
        dr = sampled.degree_in(1)
        assert vanishing == [s for s in range(bound + 1) if _at(sampled, s).degree < dr]
    eliminant = resultant_bivar_elim(f, g)
    assert eliminant.degree <= bound
    # the Sylvester determinant at the formal degrees, at every node and past them
    for s in range(bound + 3):
        assert eliminant.eval(s) == sylvester_determinant(_at(f, s), _at(g, s), df, dg), s
    assert eliminant == _resampling_eliminant(f, g)


def test_reduction_by_a_constant_lead_grows_the_keep_degree():
    f = _bivariate(F, {(0, 1): 1, (2, 0): 1})
    g = _bivariate(F, {(0, 3): 1, (1, 1): 1, (0, 0): 1})
    assert _reduce_by_constant_lead(g, f) == _bivariate(F, {(6, 0): -1, (3, 0): -1, (0, 0): 1})


def _first_draw(curve, p: int, seed: int):
    """The fiber system of the first draw of a count at GF(p)."""
    field = GF(p)
    rng = random.Random(seed)
    target = _draw_target(field, rng)
    frame = random_invertible_frame(field, rng)
    return build_fiber_system(curve.reduce_mod(field).composed_with_frame(frame), target)


@pytest.fixture(scope="module")
def vanishing_draw(generic_quintic):
    """The fiber system of the first draw at GF(3001), seed 3: the reduced
    G2 mod G1 has its lead vanish at one of the 601 samples."""
    return _first_draw(generic_quintic, 3001, 3)


@pytest.fixture(scope="module")
def wide_slot_draw(generic_quintic):
    """The fiber system of the first draw at GF(2**31 - 1), seed 1, whose
    remainder sequences run in 128-bit slots."""
    return _first_draw(generic_quintic, 2**31 - 1, 1)


def test_fiber_draw_with_a_vanishing_reduced_lead(vanishing_draw):
    g1, g2 = vanishing_draw
    r = _reduce_by_constant_lead(g2, g1)
    dr = r.degree_in(1)
    lead = MultiPoly(r.field, 2, {e: c for e, c in r.terms.items() if e[1] == dr})
    assert any(evaluate(lead, (s, 0)) == 0 for s in range(601))
    eliminant = resultant_bivar_elim(g1, g2)
    assert eliminant.degree == 600
    assert eliminant == _resampling_eliminant(g1, g2)


@pytest.mark.parametrize("draw", ["fiber", "reduced lead", "constant remainder", "fiber at 2**31 - 1"])
def test_one_resultant_per_node_and_one_interpolation(monkeypatch, request, draw):
    # mirrors the traced benchmark gates: every sample is one _resultant_modp
    # call and no call of the public resultant_uni, at every slot width, the
    # slices of each input one _eval_slices call over all the nodes, and the
    # eliminant one interpolate call on the values at 0..bound
    if draw == "fiber":
        f, g = request.getfixturevalue("vanishing_draw")
    elif draw == "fiber at 2**31 - 1":
        f, g = request.getfixturevalue("wide_slot_draw")
    else:
        f_terms, g_terms, _ = FORMAL_DEGREE_CASES[draw]
        f, g = _bivariate(F, f_terms), _bivariate(F, g_terms)
    calls = []
    public = []
    sizes = []
    evaluations = []
    resultant, interp = elimination._resultant_modp, elimination.interpolate
    uni, slices = elimination.resultant_uni, elimination._eval_slices
    monkeypatch.setattr(elimination, "_resultant_modp", lambda *a: calls.append(1) or resultant(*a))
    monkeypatch.setattr(elimination, "resultant_uni", lambda *a: public.append(1) or uni(*a))
    monkeypatch.setattr(
        elimination, "_eval_slices", lambda *a: evaluations.append(1) or slices(*a)
    )
    monkeypatch.setattr(
        elimination, "interpolate", lambda values, field: sizes.append(len(values))
        or interp(values, field)
    )
    resultant_bivar_elim(f, g)
    bound = f.total_degree * g.total_degree
    assert len(calls) == bound + 1
    assert len(evaluations) == 2  # one all-node evaluation per input
    assert not public
    assert sizes == [bound + 1]


@pytest.fixture(scope="module")
def acceptance_draw(generic_quintic):
    """The fiber system of the first draw at GF(10007), seed 1."""
    return _first_draw(generic_quintic, 10007, 1)


@pytest.fixture(scope="module")
def wide_limit_draw(generic_quintic):
    """The fiber system of the first draw at GF(2**61 - 1), seed 1: slots of
    192 bits whose Barrett bounds allow limit 8."""
    return _first_draw(generic_quintic, 2**61 - 1, 1)


def _genericity_pair(curve, p: int, seed: int = 0):
    """(F, H) at y = 1 of the first frame of ``genericity_report``: the pair
    whose eliminant R = Res_z(F, H) certifies the flexes."""
    field = GF(p)
    framed = curve.reduce_mod(field).composed_with_frame(
        random_invertible_frame(field, random.Random(seed))
    )
    return dehom_y(framed.poly), _hessian_form(framed.poly)


@pytest.mark.parametrize(
    "draw",
    [
        "vanishing_draw",
        "acceptance_draw",
        "wide_slot_draw",
        "wide_limit_draw",
        "genericity",
        "long rows",
    ],
)
def test_all_node_slices_match_per_node_evaluation(request, generic_quintic, draw):
    if draw == "genericity":
        f, g = _genericity_pair(generic_quintic, 2503)
    elif draw == "long rows":
        # 96 terms of coefficient p - 1 in one row of g at 2**61 - 1: their
        # sum passes the Barrett bounds at most nodes unless a step runs
        # mid-row; f's constant lead leaves g, of lower degree, unreduced
        field = GF(2**61 - 1)
        f = _bivariate(field, {(0, 2): 1, (1, 0): 1})
        g = _bivariate(field, {**{(k, 1): -1 for k in range(96)}, (0, 0): 1})
    else:
        f, g = request.getfixturevalue(draw)
    f, g = _sampled_pair(f, g)
    p = f.field.p
    s, m, limit, _, w = _lazy_constants(p)
    n = f.total_degree * g.total_degree + 1
    count = max(f.degree_in(0), g.degree_in(0)) + 1
    if draw == "genericity":
        assert n == 46
    if draw in ("wide_limit_draw", "long rows"):
        # a row of more terms than a group takes a Barrett step mid-row
        group = limit * (2 * p - 1) // (p - 1)
        assert limit == 8 and group == 16
        assert max(
            sum(e[1] == j for e in poly.terms)
            for poly in (f, g)
            for j in range(poly.degree_in(1) + 1)
        ) > group
    slot = (1 << w) - 1
    for poly in (f, g):
        d = poly.degree_in(1)
        slices = list(_eval_slices(poly, n, count, p))
        assert len(slices) == n
        for node, packed in enumerate(slices):
            # slots in [0, 2p), as _resultant_modp takes them, nothing above
            slots = [packed >> w * j & slot for j in range(d + 1)]
            assert packed >> w * (d + 1) == 0 and max(slots) < 2 * p
            expected = list(_at(poly, node).coeffs)
            assert [c % p for c in slots] == expected + [0] * (d + 1 - len(expected)), node


@pytest.mark.parametrize("draw", ["acceptance_draw", "wide_slot_draw"])
def test_eliminant_memory_stays_below_a_megabyte(request, draw):
    # the all-node slices stream node by node: no list of 38 kbit products
    # or of per-node slices is held, at 64-bit slots or wider
    f, g = request.getfixturevalue(draw)
    resultant_bivar_elim(f, g)  # the prime's node powers, masks and tree
    tracemalloc.start()
    try:
        resultant_bivar_elim(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


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


def test_squarefree_rejects_a_degree_reaching_the_characteristic():
    # x^p - x is squarefree, but Yun needs p > deg f to see every
    # multiplicity, so the degree p is refused up front
    field = GF(2503)
    f = UniPoly(field, [0, field.p - 1] + [0] * (field.p - 2) + [1])
    assert f.degree == field.p
    with pytest.raises(ValueError, match="characteristic 2503"):
        squarefree_decomposition(f)


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


@pytest.mark.parametrize("field", [F], ids=repr)
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


def test_cofactor_gcd_rejects_QQ():
    # its one caller, ResidueRing.inv, works over a prime field
    f, g = UniPoly.from_ints(QQ, [3, 0, 2]), UniPoly.from_ints(QQ, [1, 5])
    with pytest.raises(ValueError, match="prime field"):
        _gcd_cofactor(f, g)


def _cofactor_reference(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(d, s) by the extended Euclid loop that the packed ``_gcd_cofactor``
    replaced: one ``divmod`` and one cofactor product per step."""
    F = f.field
    r0, r1 = f, g
    s0, s1 = UniPoly.constant(F, F.one), UniPoly.zero(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - _product(q, s1)
    if r0.is_zero():
        return r0, s0
    inv = F.inv(r0.lc)
    return r0.scale(inv), s0.scale(inv)


def _assert_cofactor_matches(f: UniPoly, g: UniPoly):
    """``_gcd_cofactor`` gives the reference's d, and its s mod g (s itself
    when g = 0), and s * f = d mod g."""
    d, s = _gcd_cofactor(f, g)
    ref_d, ref_s = _cofactor_reference(f, g)
    assert d == ref_d, (f.degree, g.degree)
    if g.is_zero():
        assert s == ref_s
    else:
        assert s % g == ref_s % g and (_product(s, f) - d) % g == UniPoly.zero(f.field)


#: primes on both sides of the inverse table (2**16), the short-limit prime,
#: and the 128- and 192-bit slots of 2**31 - 1 and 2**61 - 1
COFACTOR_PRIMES = (2503, 10007, 65521, 65537, SHORT_LIMIT_PRIME, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("p", COFACTOR_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 5, 45, 60])
def test_cofactor_gcd_matches_the_loop(p, n):
    # residues modulo a modulus of degree n, as ResidueRing.inv passes
    # them, then operands of every other degree order, constants and zeros
    field = GF(p)
    rng = random.Random(p + n)
    h = _random_uni(rng, field, n)
    zero, seven = UniPoly.zero(field), UniPoly.constant(field, 7)
    cases = [(_random_uni(rng, field, rng.randrange(n)), h) for _ in range(8)]
    cases += [(_random_uni(rng, field, n + 3), h), (h, _random_uni(rng, field, n))]
    cases += [(seven, h), (h, seven), (seven, UniPoly.constant(field, p - 1))]
    cases += [(h, zero), (zero, h), (seven, zero), (zero, seven), (zero, zero)]
    for f, g in cases:
        _assert_cofactor_matches(f, g)


@pytest.mark.parametrize("p", COFACTOR_PRIMES)
def test_inverse_raises_split_needed_with_the_shared_factor(p):
    # a residue sharing the factor u with the modulus u * v: the package's
    # ring refuses to invert it, and the tests' splitting ring exposes u
    # from the same _gcd_cofactor gcd
    field = GF(p)
    rng = random.Random(p)
    for du, dv in [(1, 1), (2, 3), (5, 40), (20, 40)]:
        u, v = _random_uni(rng, field, du).monic(), _random_uni(rng, field, dv).monic()
        w = _random_uni(rng, field, dv - 1)
        assert gcd_uni(u, v).degree == gcd_uni(w, v).degree == 0  # u = gcd(u w, u v)
        ring = ResidueRing(u * v)
        a = ring.reduce(u * w)
        _assert_cofactor_matches(a, ring.modulus)
        with pytest.raises(ZeroDivisionError):
            ring.inv(a)
        with pytest.raises(SplitNeeded) as split:
            SplittingRing(u * v).inv(a)
        assert split.value.factor == u, (du, dv)


@pytest.mark.parametrize("p", [10007, SHORT_LIMIT_PRIME, 2**61 - 1])
@pytest.mark.parametrize("terms, slots", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
def test_cofactor_divisions_at_and_past_the_limit(p, terms, slots):
    # inverting r2 modulo r1 = q2 r2 + r3, with r2 = q3 r3 + 5: the second
    # division takes limit + terms quotient terms q3 over limit + slots
    # divisor slots r3 while the cofactor it updates, -q2, has limit +
    # slots slots, every product (p - 1)**2; at 2**61 - 1 they run in
    # 192-bit slots
    limit = _lazy_constants(p)[2]
    field = GF(p)
    q2 = UniPoly(field, [1] * (limit + slots))
    q3 = UniPoly(field, [1] * (limit + terms))
    r3 = UniPoly(field, [p - 1] * (limit + slots))
    r2 = _product(q3, r3) + UniPoly.constant(field, 5)
    r1 = _product(q2, r2) + r3
    _assert_cofactor_matches(r2, r1)
    assert _gcd_cofactor(r2, r1)[0] == UniPoly.constant(field, 1)


@pytest.mark.parametrize("p", [SHORT_LIMIT_PRIME, 2**61 - 1])
def test_cofactor_steps_mid_division(p):
    # the chain above with quotients and a cofactor of 3 * limit terms: a
    # slot of the remainder or of the cofactor takes 3 * limit products
    # (p - 1)**2 in one division, past the Barrett bounds unless steps run
    # part-way
    limit = _lazy_constants(p)[2]
    field = GF(p)
    ones, top = UniPoly(field, [1] * 3 * limit), UniPoly(field, [p - 1] * 3 * limit)
    r2 = ones * top + UniPoly.constant(field, 5)
    r1 = ones * r2 + top
    _assert_cofactor_matches(r2, r1)
    assert _gcd_cofactor(r2, r1)[0] == UniPoly.constant(field, 1)


def test_interpolation_and_elimination_reject_QQ():
    with pytest.raises(ValueError, match="prime field"):
        interpolate([Fraction(1), Fraction(2)], QQ)
    s = MultiPoly.variable(QQ, 2, 0)
    x = MultiPoly.variable(QQ, 2, 1)
    with pytest.raises(ValueError, match="prime field"):
        resultant_bivar_elim(x - s, x * x - s)


def test_elimination_rejects_bad_inputs():
    x = MultiPoly.variable(F, 2, 1)
    with pytest.raises(ValueError):
        resultant_bivar_elim(x, MultiPoly.zero(F, 2))
    ternary = MultiPoly.variable(F, 3, 1)
    with pytest.raises(ValueError):
        resultant_bivar_elim(ternary, ternary)


def _tail_cases(p: int) -> list[tuple[UniPoly, UniPoly]]:
    """Pairs with deg a >= 2 and deg a > deg b, whose remainder sequences end
    at every shape the first subresultant reads: r_k of degree 1 before a
    constant or a zero remainder, of degree 2 before a constant (s1 = 0)
    or a zero remainder, of degree 3 or more, and a constant b."""
    field = GF(p)
    rng = random.Random(p + 2)
    cases = [(a, b) for a, b in _remainder_cases(p) if a.degree >= 2 and a.degree > b.degree]
    for degrees in (
        [5, 4, 3, 2, 1],
        [5, 4, 2, 0],
        [5, 4, 1, 0],
        [5, 4, 0],
        [5, 3, 1, None],
        [9, 7, 2, None],
        [6, 2, 1],
        [3, 1, 0],
        [2, 1, None],
        [5, 0],
        [2, 0],
    ):
        cases.append(_with_degrees(rng, field, degrees))
    return cases


@pytest.mark.parametrize("p", PACKED_PRIMES + (SHORT_LIMIT_PRIME,) + LOOP_PRIMES)
def test_first_subresultant_of_packed_operands_matches_the_minors(p):
    # the tail of _resultant_modp, on canonical and on lazy slots, against
    # the Sylvester minors at the formal degree n = max(deg b, 1) of b,
    # which scales it by lc(a)**(n - deg b)
    rng = random.Random(p + 3)
    shapes = set()
    for a, b in _tail_cases(p):
        n = max(b.degree, 1)
        scale = pow(a.lc, n - b.degree, p)
        expected = first_subresultant(a, b, a.degree, n)
        shapes.add((expected[1] != 0, expected[0] != 0))
        lazy = (_lazy(rng, a.coeffs, p), _lazy(rng, b.coeffs, p))
        for slots_a, slots_b in ((a.coeffs, b.coeffs), lazy):
            packed_a, packed_b = _packed(slots_a, p), _packed(slots_b, p)
            value, s0, s1 = _resultant_modp(packed_a, packed_b, p, subresultant=True)
            assert value == _resultant_reference(list(a.coeffs), list(b.coeffs), p)
            assert (s0 * scale % p, s1 * scale % p) == expected, (a.degree, b.degree)
    assert shapes == {(True, True), (False, True), (False, False)}


#: (curve, seed): the certificate's first frames whose pairs the S1 test reads
S1_CURVES = {
    "generic": lambda: PlaneCurve.from_records(GENERIC_QUINTIC_RECORDS),
    "fermat": fermat_quintic,
    "flex-bitangent": lambda: PlaneCurve.from_records(FLEX_BITANGENT_RECORDS),
}


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1])
@pytest.mark.parametrize("curve", S1_CURVES)
def test_first_subresultant_of_the_certificate_matches_the_minors(p, curve):
    # the node values of S1 = s1 z + s0 of (F, H) at the formal degrees (5,
    # 9), through g mod f and any vanished lead of it; interpolated, their
    # degrees stay within the 46 nodes of R
    f, g = _genericity_pair(S1_CURVES[curve](), p)
    eliminant, s0, s1 = resultant_bivar_elim(f, g, subresultant=True)
    assert eliminant == resultant_bivar_elim(f, g)
    assert len(s0) == len(s1) == 46
    for node in range(46):
        assert (s0[node], s1[node]) == first_subresultant(_at(f, node), _at(g, node), 5, 9), node
    field = GF(p)
    assert interpolate(s0, field).degree <= 33 and interpolate(s1, field).degree <= 32


def _through_nodes(field, slices: list) -> MultiPoly:
    """The (s, x) polynomial whose slice at s = k has the ascending
    coefficients slices[k], each coefficient interpolated through the nodes."""
    terms = {}
    for j in range(len(slices[0])):
        for i, c in enumerate(interpolate([sl[j] for sl in slices], field).coeffs):
            if c:
                terms[i, j] = c
    return MultiPoly(field, 2, terms)


def _padded(poly: UniPoly, length: int) -> list:
    return list(poly.coeffs) + [0] * (length - len(poly.coeffs))


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1])
def test_first_subresultant_at_constructed_nodes(p):
    # f of formal degree 5 with lead 3 and g of formal degree 4, through
    # chosen slices: at s = 0 g's lead vanishes, which scales S1 by 3; at
    # s = 1 the sequence runs
    # 5, 4, 2, 0 (s1 = 0, s0 != 0); at s = 2 it runs 5, 4, 0 (S1 = 0); at s =
    # 3 g is a constant; at s = 4 f and g share the root 7 (R = 0, S1 a
    # multiple of x - 7); at s = 5 they share a quadratic factor (R = S1 = 0)
    field = GF(p)
    rng = random.Random(p + 4)
    monic = lambda d: UniPoly(field, [rng.randrange(p) for _ in range(d)] + [1])
    c = UniPoly.constant(field, 1 + rng.randrange(p - 1))
    q, t, s = monic(2), monic(1), monic(2)
    g1 = q * s + c
    g2 = monic(4)
    root = UniPoly(field, [p - 7, 1])
    common = monic(2)
    pairs = [
        (monic(5), UniPoly(field, [rng.randrange(p) for _ in range(3)] + [1])),
        (g1 * t + q, g1),
        (g2 * t + c, g2),
        (monic(5), c),
        (root * monic(4), root * monic(3)),
        (common * monic(3), common * monic(2)),
    ]
    f = _through_nodes(field, [_padded(a.scale(3), 6) for a, _ in pairs])
    g = _through_nodes(field, [_padded(b, 5) for _, b in pairs])
    assert [(e, c) for e, c in f.terms.items() if e[1] == 5] == [((0, 5), 3)]
    assert g.degree_in(1) == 4
    eliminant, s0, s1 = resultant_bivar_elim(f, g, subresultant=True)
    n = f.total_degree * g.total_degree + 1
    assert len(s0) == n
    for node in range(n):
        assert (s0[node], s1[node]) == first_subresultant(_at(f, node), _at(g, node), 5, 4), node
    assert [_at(g, node).degree for node in range(4)] == [3, 4, 4, 0]
    assert s1[1] == 0 != s0[1]
    assert s0[2] == s1[2] == s0[3] == s1[3] == 0
    assert eliminant.eval(4) == 0 != s1[4] and s0[4] == (p - 7) * s1[4] % p
    assert eliminant.eval(5) == s0[5] == s1[5] == 0
    assert s0[0] and s1[0]


def test_first_subresultant_needs_a_constant_lead():
    # the eliminant, with the first subresultant or without, refuses an f
    # whose lead is not a nonzero constant (the callers redraw the frame),
    # and the subresultant needs f of degree 2 at least
    x = MultiPoly.variable(F, 2, 1)
    s = MultiPoly.variable(F, 2, 0)
    for subresultant in (False, True):
        with pytest.raises(ValueError, match="nonzero constant"):
            resultant_bivar_elim(s * x * x + x, x * x + s, subresultant=subresultant)
    with pytest.raises(ValueError, match="degree >= 2"):
        resultant_bivar_elim(x + s, x * x + s, subresultant=True)
