import importlib
import random
from fractions import Fraction
from math import comb

import pytest

from quintic_moduli.binary_forms import (
    BinaryQuintic,
    _transvectant_sums,
    _transvectant_table,
    transvectant,
)
from quintic_moduli.elimination import resultant_uni
from quintic_moduli.invariants import (
    RELATION_MONOMIALS,
    RELATION_SAMPLES,
    InvariantVector,
    UnstableQuinticError,
    WPPoint,
    discriminant_invariant,
    family_quintic,
    find_fundamental_relation,
    invariant_triple,
    invariants,
    is_stable,
    moduli_point,
)
from quintic_moduli.linalg import rref
from quintic_moduli.polys import PolynomialRing
from quintic_moduli.scalars import GF, QQ

from conftest import j_from_cross_ratio, relation_value

# the package binds the name ``invariants`` to the function, so the module
# itself is looked up by its dotted name
invariants_module = importlib.import_module("quintic_moduli.invariants")

#: Discriminant proportionality constant, derived once from a fixed sample
#: quintic (see test_discriminant_proportionality_constant) and frozen here.
KAPPA = Fraction(1, 3125)


def random_quintic(rng, lo=-9, hi=9) -> BinaryQuintic:
    while True:
        coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(6)]
        if any(coeffs):
            return BinaryQuintic(QQ, coeffs)


def quintic_from_roots(roots) -> BinaryQuintic:
    """Monic-in-x quintic with the given finite roots (len 5)."""
    coeffs = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k] += c
            new[k + 1] -= c * r
        coeffs = new
    return BinaryQuintic(QQ, coeffs)


def family_member(l, m, n) -> BinaryQuintic:
    """l x^5 + m y^5 + n (-x-y)^5 over the rationals."""
    coeffs = [Fraction(0)] * 6
    coeffs[0] += l
    coeffs[5] += m
    for k in range(6):
        coeffs[k] -= n * comb(5, k)
    return BinaryQuintic(QQ, coeffs)


def test_family_closed_forms_pointwise():
    rng = random.Random(0)
    for _ in range(20):
        l, m, n = (Fraction(rng.randint(-9, 9)) for _ in range(3))
        if l == 0 and m == 0 and n == 0:
            continue
        iv = invariants(family_member(l, m, n))
        sigma2 = m * n + n * l + l * m
        assert iv.i4 == sigma2**2 - 4 * l * m * n * (l + m + n)
        assert iv.i8 == (l * m * n) ** 2 * sigma2
        assert iv.i12 == (l * m * n) ** 4


def test_pinned_sample_values():
    iv = invariants(family_member(1, 1, 1))  # x^5 + y^5 - (x+y)^5
    assert (iv.i4, iv.i8, iv.i12) == (-3, 3, 1)
    assert discriminant_invariant(iv) == -375
    iv2 = invariants(BinaryQuintic.from_ints(QQ, [1, 0, 0, 0, 0, 1]))
    assert (iv2.i4, iv2.i8, iv2.i12) == (1, 0, 0)


#: The factors (s4, s8, s12) of the chain of scaled transvectants.
SCALED_FACTORS = (Fraction(-1, 2), Fraction(1, 8), Fraction(1, 96))


def _scaling(m, n, k):
    return _transvectant_table(m, n, k)[1]


def _chain_scalings():
    """The products of the transvectant scalings along the chains of J4, J8
    and J12: each covariant carries its own scaling times its operands'."""
    i = _scaling(5, 5, 4)
    j = _scaling(2, 5, 2) * i
    q = _scaling(3, 3, 2) * j * j
    return tuple(_scaling(2, 2, 2) * a * b for a, b in ((i, i), (q, i), (q, q)))


def reference_invariants(f: BinaryQuintic):
    """(I4, I8, I12, I18) from the chain of scaled transvectants, each a
    call of the public ``transvectant`` in f's own ring, with the scaled
    chain's factors and I18 its raw J18."""
    i = transvectant(f, f, 4)
    j = transvectant(i, f, 2)
    q = transvectant(j, j, 2)
    chain = [transvectant(a, b, 2).coeffs[0] for a, b in ((i, i), (q, i), (q, q))]
    ell = transvectant(i * i, f, 4)
    j18 = transvectant(j, ell * ell * ell, 3).coeffs[0]
    R = f.ring
    return (*(R.reduce(R.from_fraction(s) * J) for s, J in zip(SCALED_FACTORS, chain)), j18)


def test_normalisation_is_three_scale_factors():
    # solved for the unscaled chain: over the products of the scalings that
    # chain leaves out, they are the scaled chain's factors
    solved = invariants_module._normalisation()
    assert tuple(s / c for s, c in zip(solved, _chain_scalings())) == SCALED_FACTORS


def test_i18_keeps_the_scaled_chain_value():
    # I18 is the unscaled J18 times the scalings along its chain, read off
    # the table: i = (f, f)_4, j = (i, f)_2, ell = (i*i, f)_4, (j, ell^3)_3
    i = _scaling(5, 5, 4)
    ell = _scaling(4, 5, 4) * i * i
    assert invariants_module._i18_scale() == _scaling(3, 3, 3) * _scaling(2, 5, 2) * i * ell**3


def _rational_quintic(rng, kind: str) -> BinaryQuintic:
    """A seeded rational quintic of one kind: with denominators, with zero
    leading or trailing coefficients, or a nullform (a triple root)."""
    if kind == "nullform":
        a, b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3))
        lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        return BinaryQuintic(QQ, [lam * x for x in quintic_from_roots([a, a, a, b, c]).coeffs])
    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(6)]
        zeros = rng.randint(1, 3)
        if kind == "leading zeros":
            coeffs[:zeros] = [Fraction(0)] * zeros
        elif kind == "trailing zeros":
            coeffs[6 - zeros :] = [Fraction(0)] * zeros
        if any(coeffs):
            return BinaryQuintic(QQ, coeffs)


def _reference_j18(f, i, j):
    """J18 as the transvectant it is defined by: (j, ell^3)_3 with ell^3 formed."""
    ell = _transvectant_sums(i * i, f, 4)
    return _transvectant_sums(j, ell * ell * ell, 3).coeffs[0]


@pytest.mark.parametrize("ring", [QQ, GF(10007), PolynomialRing(QQ, 3)], ids=repr)
def test_j18_at_the_linear_covariants_root_is_the_transvectant(ring):
    """36 j(ell1, -ell0) equals (j, ell^3)_3 on the chain's own i and j, on
    nullforms, on quintics with zero end coefficients and on the symbolic
    family."""
    rng = random.Random(18)
    if isinstance(ring, PolynomialRing):
        forms = [family_quintic(ring)]
    else:
        kinds = ("denominators", "leading zeros", "trailing zeros", "nullform")
        forms = [_rational_quintic(rng, kinds[n % 4]) for n in range(60)]
        coeffs = ([ring.from_fraction(c) for c in f.coeffs] for f in forms)
        forms = [BinaryQuintic(ring, c) for c in coeffs if any(c)]
    for f in forms:
        i, j, _ = invariants_module._chain(f)
        assert repr(invariants_module._j18(i, j)) == repr(_reference_j18(f, i, j)), f


def test_the_linear_covariant_of_degree_5_is_six_times_i_with_j():
    """(i^2, f)_4 = 6 (i, j)_2 as unscaled sums, an identity in the six
    coefficients of the generic quintic: ``_j18`` reads ell off i and j."""
    ring = PolynomialRing(QQ, 6)
    f = BinaryQuintic(ring, [ring.variable(k) for k in range(6)])
    i, j, _ = invariants_module._chain(f)
    ell = _transvectant_sums(i * i, f, 4)
    assert ell.coeffs == tuple(6 * c for c in _transvectant_sums(i, j, 2).coeffs)


def test_invariants_match_the_scaled_chain_over_qq():
    rng = random.Random(34)
    kinds = ("denominators", "leading zeros", "trailing zeros", "nullform", "denominators")
    for n in range(500):
        f = _rational_quintic(rng, kinds[n % len(kinds)])
        reference = reference_invariants(f)
        iv = invariants(f)
        assert tuple(iv) == reference, f
        assert all(type(x) is Fraction for x in iv)
        assert invariant_triple(f) == reference[:3], f


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1, 2**61 - 1])
def test_invariants_match_the_scaled_chain_over_gf(p):
    field = GF(p)
    rng = random.Random(p)
    kinds = ("denominators", "leading zeros", "trailing zeros", "nullform")
    for n in range(80):
        coeffs = [field.from_fraction(c) for c in _rational_quintic(rng, kinds[n % 4]).coeffs]
        if n % 8 == 0:
            coeffs = [rng.randrange(p) for _ in range(6)]
        if not any(coeffs):
            continue
        f = BinaryQuintic(field, coeffs)
        reference = reference_invariants(f)
        assert tuple(invariants(f)) == reference, coeffs
        assert invariant_triple(f) == reference[:3], coeffs


def test_invariants_match_the_scaled_chain_on_the_symbolic_family():
    f = family_quintic(PolynomialRing(QQ, 3))
    reference = reference_invariants(f)
    assert tuple(invariants(f)) == reference
    assert invariant_triple(f) == reference[:3]


def test_normalisation_rejects_a_chain_off_the_closed_forms(monkeypatch):
    chain = invariants_module._chain

    def skewed(f):
        i, j, (J4, J8, J12) = chain(f)
        return i, j, (J4, J8 + J4 * J4, J12)  # J8 no longer a multiple of I8

    monkeypatch.setattr(invariants_module, "_chain", skewed)
    invariants_module._normalisation.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            invariants_module._normalisation()
    finally:
        invariants_module._normalisation.cache_clear()


def test_nullforms_have_vanishing_invariants():
    rng = random.Random(1)
    for _ in range(40):
        # triple root times a random quadratic
        a = Fraction(rng.randint(-5, 5))
        cubic = quintic_from_roots([a, a, a, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
        iv = invariants(cubic)
        assert (iv.i4, iv.i8, iv.i12, iv.i18) == (0, 0, 0, 0)
    # the worked example
    triple = BinaryQuintic.from_ints(QQ, [0, 0, 0, 1, -1, 0])  # x^2 y^3 (x - y)/...
    iv = invariants(BinaryQuintic(QQ, triple.coeffs))
    assert (iv.i4, iv.i8, iv.i12, iv.i18) == (0, 0, 0, 0)


def test_covariance_under_substitutions():
    rng = random.Random(2)
    weights = {4: 10, 8: 20, 12: 30, 18: 45}
    checked = 0
    while checked < 60:
        f = random_quintic(rng, -5, 5)
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        g = f.substituted(((a, b), (c, d)))
        iv = invariants(f)
        ivg = invariants(BinaryQuintic(QQ, g.coeffs))
        for deg, value, transformed in zip(
            (4, 8, 12, 18), iv, ivg
        ):
            assert transformed == det ** weights[deg] * value
        checked += 1


def test_scaling_weights():
    rng = random.Random(3)
    for _ in range(60):
        f = random_quintic(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = BinaryQuintic(QQ, [lam * c for c in f.coeffs])
        iv, ivs = invariants(f), invariants(scaled)
        assert ivs.i4 == lam**4 * iv.i4
        assert ivs.i8 == lam**8 * iv.i8
        assert ivs.i12 == lam**12 * iv.i12
        assert ivs.i18 == lam**18 * iv.i18


def test_discriminant_proportionality_constant():
    # derive kappa on a fixed sample quintic, then confirm the frozen value
    f = BinaryQuintic.from_ints(QQ, [1, 1, 0, -1, 0, 2])
    iv = invariants(f)
    delta = discriminant_invariant(iv)
    uni = f.to_unipoly()
    disc = resultant_uni(uni, uni.derivative()) / uni.lc
    assert disc != 0
    assert delta / disc == KAPPA


def has_repeated_root(f: BinaryQuintic) -> bool:
    """Independent oracle via resultants, with the root at (1:0) handled
    by the vanishing order of the leading coefficients (variable swap)."""
    coeffs = list(f.coeffs)
    infinity_mult = next(k for k, c in enumerate(coeffs) if c != 0)
    if infinity_mult >= 2:
        return True
    uni = f.to_unipoly()  # covers every root except (1:0)
    if uni.degree >= 1 and resultant_uni(uni, uni.derivative()) == 0:
        return True
    return False


def test_discriminant_matches_repeated_root_criterion():
    rng = random.Random(4)
    checked = 0
    while checked < 120:
        roll = rng.random()
        if roll < 0.3:
            r = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            f = quintic_from_roots([r[0], r[0], r[1], r[2], r[3]])  # forced double
        elif roll < 0.4:
            # repeated root at infinity: top two x-coefficients vanish
            f = BinaryQuintic(
                QQ,
                [Fraction(0), Fraction(0)]
                + [Fraction(rng.randint(-6, 6)) for _ in range(3)]
                + [Fraction(rng.randint(1, 6))],
            )
        else:
            f = random_quintic(rng)
        delta = discriminant_invariant(invariants(f))
        assert (delta == 0) == has_repeated_root(f)
        checked += 1


def test_moduli_point_invariance():
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        f = random_quintic(rng, -5, 5)
        if not is_stable(f):
            continue
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        g = BinaryQuintic(QQ, f.substituted(((a, b), (c, d))).coeffs)
        assert moduli_point(f) == moduli_point(g)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = BinaryQuintic(QQ, [lam * x for x in f.coeffs])
        assert moduli_point(f) == moduli_point(scaled)
        checked += 1


def test_moduli_point_rejects_unstable():
    triple = quintic_from_roots([0, 0, 0, 1, 2])
    with pytest.raises(UnstableQuinticError):
        moduli_point(triple)
    two_doubles = BinaryQuintic.from_ints(QQ, [0, 0, 1, -1, 0, 0])  # x^2 y^2 (x - y)
    assert is_stable(two_doubles)


def test_stability_cases():
    distinct = quintic_from_roots([0, 1, -1, 2, -2])
    assert is_stable(distinct)
    assert not is_stable(quintic_from_roots([1, 1, 1, 0, 2]))
    two_doubles = quintic_from_roots([1, 1, 2, 2, 0])
    assert is_stable(two_doubles)
    # triple root at infinity: degree drop by 3
    f = BinaryQuintic.from_ints(QQ, [0, 0, 0, 1, 1, 1])
    assert not is_stable(f)


def test_j_cross_ratio_values_and_orbit():
    assert j_from_cross_ratio(Fraction(-1)) == 1728
    assert j_from_cross_ratio(Fraction(2)) == 1728
    assert j_from_cross_ratio(Fraction(1, 2)) == 1728
    rng = random.Random(6)
    for _ in range(20):
        lam = Fraction(rng.randint(2, 30), rng.randint(31, 60))
        orbit = [
            lam,
            1 - lam,
            1 / lam,
            1 / (1 - lam),
            lam / (lam - 1),
            (lam - 1) / lam,
        ]
        values = {j_from_cross_ratio(x) for x in orbit}
        assert len(values) == 1
    with pytest.raises(ValueError):
        j_from_cross_ratio(Fraction(0))
    with pytest.raises(ValueError):
        j_from_cross_ratio(Fraction(1))


def test_j_equianharmonic_over_prime_field():
    # lambda^2 - lambda + 1 = 0 has roots mod 3001 (3001 = 1 mod 3)
    F = GF(3001)
    lam = next(
        x for x in range(2, F.p) if F.reduce(F.reduce(F.reduce(x * x) - x) + F.one) == 0
    )
    assert j_from_cross_ratio(lam, F) == 0


def test_invariant_triple_matches_full_vector():
    rng = random.Random(7)
    F = GF(10007)
    for _ in range(20):
        f = BinaryQuintic(F, [rng.randrange(F.p) for _ in range(5)] + [1])
        iv = invariants(f)
        assert invariant_triple(f) == (iv.i4, iv.i8, iv.i12)


@pytest.mark.parametrize("p", [2503, 10007, 2**31 - 1])
def test_chain_over_gf_p_is_the_rational_chain_mod_p(p):
    # every ring scales the chain by the same exact fractions, so over GF(p)
    # the triple and the moduli point are the rational ones reduced mod p
    rng = random.Random(p)
    F = GF(p)
    for _ in range(12):
        f = random_quintic(rng, -10**6, 10**6)
        expected = tuple(F.from_fraction(c) for c in invariant_triple(f))
        fp = BinaryQuintic(F, [F.from_fraction(c) for c in f.coeffs])
        assert invariant_triple(fp) == expected
        assert moduli_point(fp).coords() == expected


def test_fundamental_relation():
    rel = find_fundamental_relation(seed=0)
    assert len(rel) == len(RELATION_MONOMIALS) == 13
    assert rel[0] == 1  # normalised I18^2 coefficient, nonzero by construction
    rng = random.Random(8)
    for _ in range(30):
        iv = invariants(random_quintic(rng))
        assert relation_value(iv, rel) == 0
    # a second seed gives the same normalised relation (uniqueness up to scale)
    assert find_fundamental_relation(seed=99) == rel


def _reference_relation(seed):
    """The degree-36 relation from rows of ``Fraction`` powers and
    products and the null space read off the exact ``rref``.  Returns (relation normalised to I18^2 coefficient 1,
    null-space dimension), the relation None unless the dimension is 1."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < RELATION_SAMPLES:
        iv = invariants_module.invariants(random_quintic(rng))
        rows.append(
            [iv.i4**a * iv.i8**b * iv.i12**c * iv.i18**e for a, b, c, e in RELATION_MONOMIALS]
        )
    reduced, pivots = rref(rows)
    free = [c for c in range(len(RELATION_MONOMIALS)) if c not in pivots]
    if len(free) != 1:
        return None, len(free)
    vec = [Fraction(0)] * len(RELATION_MONOMIALS)
    vec[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -reduced[r][free[0]]
    return [c / vec[0] for c in vec], 1


@pytest.mark.parametrize("seed", range(21))
def test_fundamental_relation_matches_the_fraction_reference(seed):
    relation, dimension = _reference_relation(seed)
    assert dimension == 1
    got = find_fundamental_relation(seed)
    assert got == relation
    assert all(type(c) is Fraction for c in got)


def test_fundamental_relation_rejects_a_second_relation(monkeypatch):
    # I12 -> I4^3 adds weight-36 relations such as I4^3 I12^2 = I4^9; the
    # null space grows and the error names its dimension
    real = invariants_module.invariants

    def degenerate(f):
        iv = real(f)
        return InvariantVector(iv.ring, iv.i4, iv.i8, iv.i4**3, iv.i18)

    monkeypatch.setattr(invariants_module, "invariants", degenerate)
    dimension = _reference_relation(0)[1]
    assert dimension > 1
    with pytest.raises(ArithmeticError, match=f"null space dimension {dimension} != 1"):
        find_fundamental_relation(0)


def test_wppoint_equality_is_weighted():
    F = QQ
    p1 = WPPoint(F, Fraction(1), Fraction(2), Fraction(3))
    lam = Fraction(5)
    p2 = WPPoint(F, lam * 1, lam**2 * 2, lam**3 * 3)
    assert p1 == p2
    assert p1 != WPPoint(F, Fraction(1), Fraction(2), Fraction(4))
    assert p1.normalised().coords()[0] == 1
    with pytest.raises(ValueError):
        WPPoint(F, Fraction(0), Fraction(0), Fraction(0))
