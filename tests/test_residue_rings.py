"""GF(p)[u]/(h): reduction and inversion, the flex probe at every root of h,
and dynamic evaluation (the tests' splitting ring) as a reference."""

import random

import pytest

from quintic_moduli import elimination, fiber_counting, plane_curves, polys
from quintic_moduli.elimination import (
    _gcd_cofactor,
    gcd_uni,
    resultant_bivar_elim,
    squarefree_decomposition,
)
from quintic_moduli.plane_curves import (
    _DIRECTIONS,
    PlaneCurve,
    _hessian_form,
    _power_table,
    _probe_flexes,
    _restrict_through,
    _tangent_coefficients,
    _taylor_tables,
    frame_determinant,
    genericity_report,
    random_invertible_frame,
)
from quintic_moduli.polys import MultiPoly, UniPoly, _pack, _slot_width, _unpack, interpolate
from quintic_moduli.residue_rings import ResidueRing, split_modulus
from quintic_moduli.scalars import GF

from conftest import (
    BARRETT_EDGE_PRIMES,
    FLEX_BITANGENT_RECORDS,
    SplitNeeded,
    SplittingRing,
    contact_four_hyperflex,
    dehom_y,
    each_factor,
    evaluate,
    fermat_quintic,
    frame_with_third_column,
    hessian,
    zpoly_over,
)

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


@pytest.mark.parametrize("p", BARRETT_EDGE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 45, 46, 60])
def test_barrett_reduce_matches_the_divmod_remainder_at_the_slot_edges(p, n):
    # inputs of every degree up to K = 2n + 1, where one Barrett quotient is
    # exact, and past it, where the top is reduced a chunk at a time: seeded
    # ones, all-(p - 1) ones and packed ones whose every slot sits at the
    # ring's bound 6 (n + 4)(p - 1)**2
    field = GF(p)
    rng = random.Random(p + n)
    h = _random_uni(rng, field, n)
    ring = ResidueRing(h)
    bound = 6 * (n + 4) * (p - 1) ** 2
    for degree in [*range(2 * n + 3), 3 * n + 5, 5 * n + 2]:
        for coeffs in (
            [rng.randrange(p) for _ in range(degree + 1)],
            [p - 1] * (degree + 1),
        ):
            x = UniPoly(field, coeffs)
            assert ring.reduce(x) == x % h, (degree, coeffs[:2])
        raw = sum(bound << ring.width * k for k in range(degree + 1))
        expected = UniPoly(field, [bound % p] * (degree + 1)) % h
        assert ring.unpack(ring.reduce_packed(raw)) == expected, degree
        assert ring.reduce_packed(raw) == ring.pack(expected), degree


@pytest.mark.parametrize("p", BARRETT_EDGE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 15, 45])
def test_divmod_packed_matches_divmod_and_divides_again(p, n):
    # the quotient comes back in slots below 2p, and dividing it again gives
    # the quotient and remainder of the quotient: the chain the fiber oracle
    # runs down the eliminant
    field = GF(p)
    rng = random.Random(p - n)
    ring = ResidueRing(_random_uni(rng, field, n))
    h = ring.modulus  # monic: the quotient is by h made monic
    for degree in [0, n - 1, n, 2 * n, 2 * n + 1, 5 * n + 2, 600]:
        x = UniPoly(field, [rng.randrange(p) for _ in range(degree + 1)])
        packed = ring.pack(x)
        for _ in range(3):
            quotient, remainder = ring.divmod_packed(packed)
            expected_q, expected_r = x.divmod(h)
            assert ring.unpack(remainder) == expected_r, degree
            assert remainder == ring.reduce_packed(packed)
            length = max(0, x.degree - n + 1)
            slots = list(_unpack(quotient, length, ring.width)) if length else []
            assert all(c < 2 * p for c in slots) and quotient < 1 << ring.width * length
            assert UniPoly(field, [c % p for c in slots]) == expected_q, degree
            packed, x = quotient, expected_q


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
        except ZeroDivisionError:
            assert gcd_uni(a, h).degree >= 1
            continue
        d, s = _gcd_cofactor(a, h)
        assert d.degree == 0 and inverse == s % h
        assert (a * inverse) % h == ring.one


def test_gcd_over_residue_ring_splits_or_agrees_at_every_root():
    # the tests' splitting ring, the reference of the singular check
    rng = random.Random(31)
    agreed = split = 0
    for _ in range(400):
        roots = rng.sample(range(F.p), rng.randrange(2, 6))
        h = _from_roots(F, roots)
        ring = SplittingRing(h)
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


def _shape(framed: MultiPoly, field) -> tuple:
    """(R, [s0, s1]) of the framed curve, as ``genericity_report`` computes
    them: the flex eliminant and the first subresultant of F and H at y = 1."""
    curve_uz, hess_uz = dehom_y(framed), _hessian_form(framed)
    eliminant, s0, s1 = resultant_bivar_elim(curve_uz, hess_uz, subresultant=True)
    return eliminant, [interpolate(s0, field), interpolate(s1, field)]


def _flex_modulus(curve: PlaneCurve, seed: int):
    """Framed curve, its first subresultant (s0, s1) and squarefree flex
    modulus, as genericity_report builds them."""
    frame = random_invertible_frame(F, random.Random(seed))
    framed = curve.reduce_mod(F).composed_with_frame(frame).poly
    eliminant, shape = _shape(framed, F)
    ((h, _),) = squarefree_decomposition(eliminant)
    return framed, shape, h


def _roots_in(h: UniPoly, degree: int) -> UniPoly:
    """gcd(h, u^(p^degree) - u): the factors of h of degrees dividing ``degree``."""
    field = h.field
    acc, base, n = UniPoly.constant(field, field.one), UniPoly.x(field), field.p**degree
    while n:
        if n & 1:
            acc = acc * base % h
        base = base * base % h
        n >>= 1
    return gcd_uni(h, acc - UniPoly.x(field))


def _split_off_rational_roots(h: UniPoly):
    """(gcd(h, u^p - u), its cofactor): the roots of h in GF(p) and the rest."""
    rational = _roots_in(h, 1)
    return rational, h // rational


def test_probe_flexes_adds_over_a_split_modulus():
    curve = PlaneCurve.from_records(FLEX_BITANGENT_RECORDS)
    curve_poly, shape, h = _flex_modulus(curve, seed=0)
    h1, h2 = _split_off_rational_roots(h)
    assert h.degree == 45 and 0 < h1.degree < h.degree
    tables = _taylor_tables(curve_poly)
    whole = _probe_flexes(tables, shape, h)
    halves = [_probe_flexes(tables, shape, part) for part in (h1, h2)]
    assert whole == 44 == sum(halves)  # 44 reachable only through a split of h
    report = genericity_report(curve, F.p, seed=0)
    assert (report.distinct_flex_count, report.flexes_verified) == (45, 44)


@pytest.mark.parametrize("prime", [2503, 10007])
def test_the_flex_bitangent_report_verifies_44_flexes_without_a_split(monkeypatch, prime):
    # the flex-bitangent's flex is a root where c3 (c4^2 - 4 c3 c5)
    # vanishes: the probe counts it off by a gcd, in the one ring it builds
    # on the whole squarefree degree-45 R, and never splits its modulus
    degrees = []
    build = ResidueRing.__init__

    def counting(ring, modulus):
        degrees.append(modulus.degree)
        build(ring, modulus)

    monkeypatch.setattr(ResidueRing, "__init__", counting)
    curve = PlaneCurve.from_records(FLEX_BITANGENT_RECORDS)
    for seed in range(3):
        degrees.clear()
        report = genericity_report(curve, prime, seed=seed)
        assert (report.distinct_flex_count, report.flexes_verified) == (45, 44)
        assert degrees == [45]


def _partials(curve: PlaneCurve) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    return tuple(curve.poly.derivative(v) for v in range(3))


def _framed_at_flex(curve: PlaneCurve, prime: int, flex) -> MultiPoly:
    """The curve in a frame placing a rational flex P at framed (0 : 1 : 0),
    its tangent at x' = 0.

    The frame's columns are (random, P, a point on P's tangent), so the
    tangent passes through framed (0 : 0 : 1).  Modulo u the probe then
    reads P as (0, 1, 0), its gradient (g, 0, 0) and the tangent's second
    point D as (0, 0, g): the coordinates that a random frame almost never
    gives.
    """
    field = GF(prime)
    reduced = curve.reduce_mod(field)
    flex = tuple(field.from_int(c) for c in flex)
    grad = [evaluate(d, flex) for d in _partials(reduced)]
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
    return framed


def _probe_at_framed_flex(curve: PlaneCurve, prime: int, flex) -> int:
    """The probe modulo u at a rational flex placed by ``_framed_at_flex``."""
    field = GF(prime)
    framed = _framed_at_flex(curve, prime, flex)
    return _probe_flexes(_taylor_tables(framed), _shape(framed, field)[1], UniPoly.x(field))


# rational flexes of the generic quintic: the roots u0 = 2051, 1955 and 5216
# of the flex eliminant in the first frame of seed 1, mapped back to (x : y : 1)
@pytest.mark.parametrize(
    "prime, flex", [(10007, (3241, 5458, 1)), (3001, (2786, 532, 1)), (7001, (2837, 5119, 1))]
)
def test_probe_verifies_a_flex_on_an_x_solved_tangent(generic_quintic, prime, flex):
    field = GF(prime)
    assert evaluate(generic_quintic.reduce_mod(field).poly, flex) == 0
    assert evaluate(hessian(generic_quintic.reduce_mod(field).poly), flex) == 0
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


def _z0(ring: ResidueRing, shape) -> UniPoly:
    """The flexes' z-coordinate -s0/s1 over ``ring``."""
    s0, s1 = (ring.reduce(s) for s in shape)
    return ring.reduce(-(s0 * ring.inv(s1)))


def _restricted_tangent(framed: MultiPoly, ring: ResidueRing, z0: UniPoly) -> tuple:
    """c0, ..., c5 of F(s P + t D), P = (u, 1, z0) and D = (-l_z, 0, l_x) for
    l = grad F(P), by the tangent restriction the probe used to make: the
    line l . x = 0 solved for the first coordinate of (z, x, y) whose
    gradient entry is nonzero, then ``_restrict_through`` P and D."""
    grad = [zpoly_over(ring, dehom_y(framed.derivative(v))).eval(z0) for v in range(3)]
    point = (ring.generator(), ring.one, z0)
    second = (ring.reduce(-grad[2]), ring.zero, grad[0])
    v = next(v for v in (2, 0, 1) if not ring.is_zero(grad[v]))
    return _restrict_through(framed, ring, grad, v, point, second).coeffs


def _reference_tangent(tables: tuple, ring: ResidueRing, z0: UniPoly) -> tuple:
    """(c0, c2, c3, c4, c5) as the probe computed them on ``UniPoly`` classes:
    each class reduced by the ``UniPoly.divmod`` remainder mod h, the sums
    packed in slots of ``_slot_width`` of 36 n (p - 1)**3 and settled by
    taking each slot mod p, then mod h."""
    at_point, polars = tables
    base, h = ring.base, ring.modulus
    p, w = base.p, _slot_width(36 * ring.degree * (base.p - 1) ** 3)

    def settle(packed: int) -> UniPoly:
        slots = _unpack(packed, -(-packed.bit_length() // w), w)
        return UniPoly(base, [c % p for c in slots]) % h

    def packed(x: UniPoly) -> int:
        return _pack(x.coeffs, w)

    def power_table(x: UniPoly) -> list:
        out = [ring.one]
        for _ in range(5):
            out.append(out[-1] * x % h)
        return out

    zs = [packed(x) for x in power_table(z0)]
    at = {
        d: settle(sum(c * zs[e2] << w * e1 for (e1, e2), c in table.items()))
        for d, table in at_point.items()
    }
    dxs, dzs = power_table(-at[0, 1] % h), power_table(at[1, 0])
    monomials: dict = {}

    def monomial(e1: int, e2: int) -> int:
        if (e1, e2) not in monomials:
            monomials[e1, e2] = packed(dxs[e1] * dzs[e2] % h)
        return monomials[e1, e2]

    def at_d(table: dict) -> int:
        return sum(c * monomial(e1, e2) for (e1, e2), c in table.items())

    c2 = settle(sum(monomial(a, b) * packed(at[a, b]) for a, b in _DIRECTIONS[3:]))
    c5, c4, c3 = (
        settle(sum(zs[b] * at_d(table) << w * a for (a, b), table in polar.items()))
        for polar in polars
    )
    return at[0, 0], c2, c3, c4, c5


def _packed_tangent(tables: tuple, ring: ResidueRing, z0: UniPoly) -> tuple:
    """``_tangent_coefficients`` on the powers of the packed z0, its classes
    unpacked."""
    zs = _power_table(ring, ring.pack(z0))
    return tuple(map(ring.unpack, _tangent_coefficients(tables, ring, zs)))


def _assert_polars_match_the_restriction(framed: MultiPoly, ring: ResidueRing, z0: UniPoly):
    c = _restricted_tangent(framed, ring, z0)
    assert len(c) == 6 and ring.is_zero(c[1])
    tables = _taylor_tables(framed)
    assert _reference_tangent(tables, ring, z0) == (c[0], c[2], c[3], c[4], c[5])
    assert _packed_tangent(tables, ring, z0) == (c[0], c[2], c[3], c[4], c[5])


@pytest.mark.parametrize(
    "name, prime, flex",
    [
        ("generic", 10007, (3241, 5458, 1)),
        ("generic", 3001, (2786, 532, 1)),
        ("generic", 7001, (2837, 5119, 1)),
        ("flex-bitangent", 10007, (0, 0, 1)),
        ("flex-bitangent", 3001, (0, 0, 1)),
        ("contact-4 hyperflex", 10007, (0, 0, 1)),
        ("contact-4 hyperflex", 3001, (0, 0, 1)),
    ],
)
def test_polars_match_the_tangent_restriction_at_a_framed_flex(generic_quintic, name, prime, flex):
    # modulo u the probe's P is the flex at framed (0 : 1 : 0) and its D is
    # (0 : 0 : 1).  The fiber u = 0 is the tangent itself here, so at the
    # hyperflex F and H share a double root on it and s1 vanishes: z0 = 0
    # is given, not read off the first subresultant
    curve = {
        "generic": generic_quintic,
        "flex-bitangent": PlaneCurve.from_records(FLEX_BITANGENT_RECORDS),
        "contact-4 hyperflex": contact_four_hyperflex(0),
    }[name]
    field = GF(prime)
    framed = _framed_at_flex(curve, prime, flex)
    ring = ResidueRing(UniPoly.x(field))
    _assert_polars_match_the_restriction(framed, ring, ring.zero)


@pytest.mark.parametrize("prime", [2503, 10007])
@pytest.mark.parametrize("name", ["generic", "fermat", "flex-bitangent"])
def test_polars_match_the_tangent_restriction_at_every_flex(generic_quintic, name, prime):
    # over each squarefree part of R in the certificate's first frame, all
    # of its flexes at once (split by the tests' splitting ring where the
    # restriction's pivot or the shape lemma's inverse meets a zero divisor)
    curve = {
        "generic": generic_quintic,
        "fermat": fermat_quintic(),
        "flex-bitangent": PlaneCurve.from_records(FLEX_BITANGENT_RECORDS),
    }[name]
    field = GF(prime)
    framed = curve.reduce_mod(field).composed_with_frame(
        random_invertible_frame(field, random.Random(0))
    ).poly
    eliminant, shape = _shape(framed, field)
    for part, _ in squarefree_decomposition(eliminant):
        checked = each_factor(
            part,
            lambda ring: _assert_polars_match_the_restriction(framed, ring, _z0(ring, shape)),
        )
        assert sum(h.degree for h, _ in checked) == part.degree


@pytest.mark.parametrize("prime", [2503, 10007, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("name", ["generic", "fermat", "flex-bitangent", "contact-4 hyperflex"])
def test_packed_tangent_matches_the_unipoly_reference(generic_quintic, name, prime):
    # in seeded frames, modulo each squarefree part of R and modulo the two
    # moduli it splits into, its roots in GF(p) and the rest, at the flex z0
    # and at a seeded class
    curve = {
        "generic": generic_quintic,
        "fermat": fermat_quintic(),
        "flex-bitangent": PlaneCurve.from_records(FLEX_BITANGENT_RECORDS),
        "contact-4 hyperflex": contact_four_hyperflex(1),
    }[name]
    field = GF(prime)
    rng = random.Random(prime)
    compared = 0
    for seed in range(2):
        frame = random_invertible_frame(field, random.Random(seed))
        framed = curve.reduce_mod(field).composed_with_frame(frame).poly
        eliminant, shape = _shape(framed, field)
        tables = _taylor_tables(framed)
        for part, _ in squarefree_decomposition(eliminant):
            moduli = [part, *_split_off_rational_roots(part)]
            for ring in map(ResidueRing, dict.fromkeys(h for h in moduli if h.degree >= 1)):
                seeded = UniPoly(field, [rng.randrange(prime) for _ in range(ring.degree)])
                for z0 in (_z0(ring, shape), seeded):
                    assert _packed_tangent(tables, ring, z0) == _reference_tangent(tables, ring, z0)
                    compared += 1
    assert compared >= 4


def test_the_packed_kernels_take_no_unpacked_path(generic_quintic, monkeypatch):
    # during a whole report, ResidueRing.reduce and _probe_flexes make no
    # UniPoly.divmod call and interpolate no dense_product call, so no
    # kernel falls back to the unpacked path.  A call counts for the
    # innermost kernel running: the one divmod of a ring's construction,
    # which computes its Barrett reciprocal, is the ring's, not the probe's
    expected = repr(genericity_report(generic_quintic, 10007))
    entered = {"reduce": 0, "probe": 0, "ring": 0, "interpolate": 0}
    running: list = []
    reached: set = set()

    def kernel(name, fn):
        def wrapped(*args, **kwargs):
            entered[name] += 1
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapped

    def callee(name, fn):
        def wrapped(*args, **kwargs):
            if running:
                reached.add((running[-1], name))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ResidueRing, "reduce", kernel("reduce", ResidueRing.reduce))
    monkeypatch.setattr(ResidueRing, "__init__", kernel("ring", ResidueRing.__init__))
    monkeypatch.setattr(plane_curves, "_probe_flexes", kernel("probe", plane_curves._probe_flexes))
    traced = kernel("interpolate", polys.interpolate)
    for module in (polys, elimination, plane_curves):
        monkeypatch.setattr(module, "interpolate", traced)
    monkeypatch.setattr(UniPoly, "divmod", callee("divmod", UniPoly.divmod))
    monkeypatch.setattr(polys, "dense_product", callee("dense_product", polys.dense_product))
    assert repr(genericity_report(generic_quintic, 10007)) == expected
    assert all(entered.values()), entered
    assert not reached & {("reduce", "divmod"), ("probe", "divmod"), ("interpolate", "dense_product")}
    # the watch sees a call where one is made
    running.append("probe")
    UniPoly.x(F).divmod(UniPoly.x(F))
    assert ("probe", "divmod") in reached


def test_probe_rejects_a_curve_point_that_is_no_flex(generic_quintic):
    # the rational point (1927 : 2 : 1) of the curve, off the Hessian,
    # placed at framed (0 : 1 : 0) and handed to the probe as z0 = 0 over u
    # = 0: c0 = 0 but c2 != 0, contact 2, so it is not verified
    point = (F.from_int(1927), F.from_int(2), F.one)
    reduced = generic_quintic.reduce_mod(F)
    assert evaluate(reduced.poly, point) == 0 != evaluate(hessian(reduced.poly), point)
    rng = random.Random(1)
    while True:
        column, last = ([F.from_int(rng.randrange(F.p)) for _ in range(3)] for _ in range(2))
        frame = tuple(zip(column, point, last))
        if not F.is_zero(frame_determinant(frame, F)):
            break
    framed = reduced.composed_with_frame(frame).poly
    ring = ResidueRing(UniPoly.x(F))
    tables = _taylor_tables(framed)
    c0, c2, *_ = _tangent_coefficients(tables, ring, _power_table(ring, 0))
    assert c0 == 0 != c2
    assert _probe_flexes(tables, [ring.zero, ring.one], UniPoly.x(F)) == 0


def _report_in_frame(monkeypatch, curve: PlaneCurve, prime: int, seed: int, frame):
    """``genericity_report`` whose first frame is ``frame``; the next ones are
    the seed's own, from its first on."""
    draw = plane_curves.random_invertible_frame
    first = [frame]
    monkeypatch.setattr(
        plane_curves,
        "random_invertible_frame",
        lambda field, rng: first.pop() if first else draw(field, rng),
    )
    return genericity_report(curve, prime, seed=seed)


def _counts(report) -> tuple:
    return (report.smooth, report.flex_cycle_ok, report.distinct_flex_count, report.flexes_verified)


def test_two_flexes_on_one_fiber_make_the_report_retry(generic_quintic, monkeypatch):
    # the generic quintic has one rational flex at 10007 and one pair of
    # flexes conjugate over GF(p^2).  In the first frame of seed 0 the pair
    # is (u, 1, a + b u) at the roots u of a quadratic factor of R, on the
    # rational line z' = b x' + a y'; the frame change N whose third column
    # (1, 0, b) lies on that line puts both on the fiber x''/y'' = -a/b.
    # Then s1 vanishes on the repeated factor of R that this fiber makes
    # (two flexes above one root, where the gcd of F and H has degree 2),
    # and the report retries in the seed's own first frame.
    framed, shape, h = _flex_modulus(generic_quintic, seed=0)
    rational = _roots_in(h, 1)
    pair = _roots_in(h, 2) // rational
    assert (rational.degree, pair.degree) == (1, 2)
    a, b = _z0(ResidueRing(pair), shape).coeffs
    M = random_invertible_frame(F, random.Random(0))
    N = ((1, 0, 1), (0, 1, 0), (0, 0, b))
    frame = tuple(
        tuple(sum(M[r][k] * N[k][c] for k in range(3)) % F.p for c in range(3)) for r in range(3)
    )
    fiber = _flex_modulus_in_frame(generic_quintic, frame)
    assert [m for _, m in fiber] == [1, 2]
    assert fiber[1][0] == UniPoly(F, [a * pow(b, -1, F.p) % F.p, 1])  # u = -a/b
    report = _report_in_frame(monkeypatch, generic_quintic, F.p, 0, frame)
    assert report.frames_tried == 2
    assert report.notes == [
        "frame 1: two intersections share a flex fiber (s1 vanishes there); reframe"
    ]
    assert _counts(report) == _counts(genericity_report(generic_quintic, F.p, seed=0))
    assert report.generic


def _flex_modulus_in_frame(curve: PlaneCurve, frame) -> list:
    """The squarefree decomposition of R in the given frame."""
    framed = curve.reduce_mod(F).composed_with_frame(frame).poly
    return squarefree_decomposition(_shape(framed, F)[0])


#: Points of the generic quintic over GF(10007): (1927 : 2 : 1), and the
#: rational flex (3241 : 5458 : 1).
CURVE_POINTS = ((1927, 2, 1), (3241, 5458, 1))


@pytest.mark.parametrize("point", CURVE_POINTS)
def test_a_frame_through_the_curve_at_framed_infinity_is_redrawn(
    generic_quintic, monkeypatch, point
):
    # a first frame that puts (0 : 0 : 1) on the curve leaves F without the
    # constant z-lead every elimination needs: the certificate and the fiber
    # oracle record the cause and answer in the next frame
    frame = frame_with_third_column(F, point)
    framed = generic_quintic.reduce_mod(F).composed_with_frame(frame).poly
    assert (0, 0, 5) not in framed.terms
    cause = "frame puts (0 : 0 : 1) on the curve; reframe"
    report = _report_in_frame(monkeypatch, generic_quintic, F.p, 0, frame)
    assert (report.frames_tried, report.notes) == (2, [f"frame 1: {cause}"])
    assert _counts(report) == (True, True, 45, 45)
    draw, first = fiber_counting.random_invertible_frame, [frame]
    monkeypatch.setattr(
        fiber_counting,
        "random_invertible_frame",
        lambda field, rng: first.pop() if first else draw(field, rng),
    )
    fiber = fiber_counting.count_fiber(generic_quintic, F.p, seed=1)
    assert (fiber.causes, fiber.retries) == ((f"attempt 0: {cause}",), 1)
    assert (fiber.fiber_degree, fiber.flex_part) == (420, (45, 4))


@pytest.mark.parametrize("prime", [2503, 10007, 2**31 - 1])
def test_s1_from_its_degree_bound_nodes_matches_all_46(generic_quintic, prime):
    # s0 and s1 have u-degree at most 33 and 32, the Sylvester minors'
    # bounds (m - 1)(n - 1) + 1 and (m - 1)(n - 1) at (m, n) = (5, 9), so
    # their first 34 and 33 node values give what all 46 of R's nodes give,
    # in the first frame of seeds 0-5
    field = GF(prime)
    for seed in range(6):
        frame = random_invertible_frame(field, random.Random(seed))
        framed = generic_quintic.reduce_mod(field).composed_with_frame(frame).poly
        f, h = dehom_y(framed), _hessian_form(framed)
        _, s0, s1 = resultant_bivar_elim(f, h, subresultant=True)
        assert len(s0) == len(s1) == 46
        for values, bound in zip((s0, s1), (33, 32)):
            poly = interpolate(values, field)
            assert poly.degree <= bound and poly == interpolate(values[: bound + 1], field)
