import importlib
import random
from fractions import Fraction
from math import comb

import pytest

from quintic_moduli.binary_forms import BinaryQuintic
from quintic_moduli.elimination import resultant_uni
from quintic_moduli.invariants import (
    RELATION_MONOMIALS,
    UnstableQuinticError,
    WPPoint,
    discriminant_invariant,
    find_fundamental_relation,
    invariant_triple,
    invariants,
    is_stable,
    moduli_point,
)
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


def test_normalisation_is_three_scale_factors():
    s4, s8, s12 = invariants_module._normalisation()
    assert (s4, s8, s12) == (Fraction(-1, 2), Fraction(1, 8), Fraction(1, 96))


def test_normalisation_rejects_a_chain_off_the_closed_forms(monkeypatch):
    chain = invariants_module._chain

    def skewed(f):
        i, j, (J4, J8, J12) = chain(f)
        return i, j, (J4, J8 + J4 * J4, J12)  # J8 no longer a multiple of I8

    monkeypatch.setattr(invariants_module, "_chain", skewed)
    monkeypatch.setattr(invariants_module, "_NORMALISATION", None)  # restored on teardown
    with pytest.raises(ArithmeticError):
        invariants_module._normalisation()


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
