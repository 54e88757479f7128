import random
from fractions import Fraction
from math import isqrt

import pytest

from quintic_moduli.polys import PolynomialRing, UniPoly
from quintic_moduli.residue_rings import ResidueRing
from quintic_moduli.scalars import GF, MIN_PRIME, PSI_12, QQ, _strong_lucas_probable_prime, is_prime


def test_rational_field_basics():
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert QQ.reduce(a + b) == Fraction(7, 20)
    assert QQ.reduce(a * b) == Fraction(-3, 10)
    assert QQ.inv(b) == Fraction(-5, 2)
    # an int is inverted exactly too, never as a float
    for x in (3, -7, Fraction(3), b):
        assert type(QQ.inv(x)) is Fraction and QQ.inv(x) * x == 1
    assert QQ.from_fraction(Fraction(6, -8)) == Fraction(-3, 4)
    # denominators positive and in lowest terms, guaranteed by Fraction
    v = QQ.from_fraction(Fraction(6, -8))
    assert v.denominator > 0 and v == Fraction(-3, 4)


def test_prime_field_basics():
    F = GF(10007)
    assert F.reduce(10006 + 5) == 4
    assert F.reduce(2 - 5) == 10004
    assert F.reduce(10006 * 10006) == 1
    assert F.reduce(F.inv(1234) * 1234) == 1
    assert F.from_int(-1) == 10006
    assert F.from_fraction(Fraction(1, 2)) == (10007 + 1) // 2
    assert F.pow(3, 10006) == 1


def test_prime_field_rejects_bad_characteristics():
    with pytest.raises(ValueError):
        GF(7)  # below the enforced minimum
    with pytest.raises(ValueError):
        GF(2503 + 1)  # not prime
    GF(MIN_PRIME)  # smallest admissible one


def test_gf_is_cached():
    assert GF(3001) is GF(3001)


def test_is_prime_samples():
    assert is_prime(10007) and is_prime(3001) and is_prime(2503)
    assert not is_prime(1) and not is_prime(2501) and not is_prime(10005)


def test_is_prime_rejects_the_least_strong_pseudoprime_to_bases_2_to_37():
    assert PSI_12 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError, match="not prime"):
        GF(PSI_12)


@pytest.mark.parametrize("exponent", [61, 89, 127])
def test_is_prime_accepts_mersenne_primes_on_both_sides_of_psi_12(exponent):
    n = 2**exponent - 1
    assert is_prime(n) and GF(n).p == n


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # alone, on odd n with no factor below 41, the strong Lucas test passes
    # every prime below 20000 and exactly the composites 5459, 5777, 10877,
    # 16109 and 18971 (the start of OEIS A217255)
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    candidates = [n for n in range(43, 20000, 2) if all(n % q for q in small)]
    primes = {n for n in candidates if all(n % q for q in range(3, isqrt(n) + 1, 2))}
    passed = {n for n in candidates if _strong_lucas_probable_prime(n)}
    assert primes <= passed
    assert sorted(passed - primes) == [5459, 5777, 10877, 16109, 18971]


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(3001).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_from_fraction_rejects_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        GF(3001).from_fraction(Fraction(1, 3001))


_F = GF(10007)
_P = PolynomialRing(QQ, 2)
_R = ResidueRing(UniPoly.from_ints(_F, [3, 0, 1, 5, 0, 1]))

#: One ring of each kind, with a sampler of its elements.
RINGS = {
    "QQ": (QQ, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
    "GF": (_F, lambda rng: rng.randrange(_F.p)),
    "PolynomialRing": (
        _P,
        lambda rng: _P.reduce(_P.from_int(rng.randint(-3, 3)) * _P.variable(rng.randrange(2)) + _P.one),
    ),
    "ResidueRing": (_R, lambda rng: _R.reduce(UniPoly(_F, [rng.randrange(_F.p) for _ in range(7)]))),
}


@pytest.mark.parametrize("name", RINGS)
def test_rings_have_no_per_operation_arithmetic(name):
    # arithmetic is the values' own + - *, followed by one reduce
    ring, _ = RINGS[name]
    for method in ("add", "sub", "mul", "neg", "div"):
        assert not hasattr(ring, method), method


def test_prime_field_reduce_maps_raw_values_into_range():
    p = _F.p
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.randrange(p) for _ in range(3))
        for raw in (a - b, a + b, a * b * c, a - b * c, -a):
            assert 0 <= _F.reduce(raw) < p
            assert (_F.reduce(raw) - raw) % p == 0
    assert _F.reduce(3 - 10006) == 4  # negative difference
    assert _F.reduce(10006 + 10006) == 10005  # sum >= p
    assert _F.reduce(10006 * 10006 * 10006) == 10006  # triple product: (-1)**3


@pytest.mark.parametrize("name", RINGS)
def test_pow_agrees_with_repeated_products(name):
    ring, element = RINGS[name]
    rng = random.Random(7)
    for _ in range(5):
        a = element(rng)
        acc = ring.one
        for n in range(12):
            assert ring.pow(a, n) == acc, n
            acc = ring.reduce(acc * a)

@pytest.mark.parametrize("field", [QQ, _F], ids=repr)
def test_pow_with_negative_exponents_on_fields(field):
    for a in (field.from_int(3), field.from_fraction(Fraction(-7, 2))):
        for n in range(1, 9):
            assert field.pow(a, -n) == field.pow(field.inv(a), n)
            assert field.reduce(field.pow(a, -n) * field.pow(a, n)) == field.one
