import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quintic_moduli import gw_recursion
from quintic_moduli.elimination import gcd_uni
from quintic_moduli.gw_recursion import (
    SYM_I0_A1A1_BRM2,
    SYM_I0_A1A1A1_BRM3,
    SYM_I0_A1A2_BRM3,
    SYM_I1_A1_5,
    SYM_I1_A1A1A1A2,
    SYM_I1_A1A1A3,
    SYM_I1_A1A2A2,
    GWSymbol,
    RationalInR,
    base_values,
    chain_trace,
    evaluate_chain,
    r_independence_check,
)
from quintic_moduli.intersection_ledger import combinatorial_degree
from quintic_moduli.polys import UniPoly
from quintic_moduli.scalars import QQ


def test_base_values():
    base = base_values()
    assert base[SYM_I1_A1A1A3].constant_value() == 90
    assert base[SYM_I1_A1A2A2].constant_value() == 240
    assert base[SYM_I0_A1A1_BRM2] == RationalInR.one_over_r()
    assert base[SYM_I0_A1A2_BRM3] == RationalInR.one_over_r()


def test_chain_values():
    values = evaluate_chain()
    assert values[SYM_I1_A1_5].is_constant()
    assert values[SYM_I1_A1_5].constant_value() == 420
    assert values[SYM_I1_A1A1A1A2].constant_value() == 330
    assert values[SYM_I0_A1A1A1_BRM3] == RationalInR.one_over_r()


def test_final_identity():
    # closing identity: the final count is the two-base-value combination
    values = evaluate_chain()
    total = (
        values[SYM_I1_A1A2A2].constant_value()
        + 2 * values[SYM_I1_A1A1A3].constant_value()
    )
    assert values[SYM_I1_A1_5].constant_value() == total == 420


def test_matches_combinatorial_count():
    assert evaluate_chain()[SYM_I1_A1_5].constant_value() == combinatorial_degree(120, 45)


def test_r_independence():
    assert r_independence_check(list(range(4, 11)))
    with pytest.raises(ValueError):
        r_independence_check([3])
    with pytest.raises(ValueError):
        r_independence_check([4, 2])


def test_r_spot_check_fails_on_a_perturbed_base_value(monkeypatch):
    # the symbolic chain kept as it is, the numeric chain fed I1(a1^2 a3)
    # = 91 instead of 90: at every r it then gives 422, not 420
    values = evaluate_chain()
    perturbed = {**base_values(), SYM_I1_A1A1A3: RationalInR.constant(91)}
    monkeypatch.setattr(gw_recursion, "evaluate_chain", lambda: values)
    monkeypatch.setattr(gw_recursion, "base_values", lambda: perturbed)
    assert not r_independence_check([4])
    assert not r_independence_check(list(range(4, 11)))


def test_symbol_validation():
    with pytest.raises(ValueError):
        GWSymbol(2, ("a1", "a1", "a1"))
    with pytest.raises(ValueError):
        GWSymbol(1, ("a1", "a9", "a1"))
    with pytest.raises(ValueError):
        GWSymbol(1, ("a1", "a1", "a2"))  # not one of the admitted counts
    # insertion order does not matter for admitted symbols
    assert GWSymbol(1, ("a3", "a1", "a1")) == SYM_I1_A1A1A3


def test_rational_in_r_arithmetic():
    r = RationalInR.r()
    inv = RationalInR.one_over_r()
    prod = r * inv
    assert prod.is_constant() and prod.constant_value() == 1
    s = inv + inv
    assert s.evaluate(Fraction(4)) == Fraction(1, 2)
    assert not inv.is_constant()
    with pytest.raises(ValueError):
        inv.constant_value()
    with pytest.raises(ZeroDivisionError):
        inv.evaluate(0)


def test_trace_mentions_all_values():
    text = "\n".join(chain_trace())
    assert "420" in text and "330" in text and "1/r" in text.replace("(1)/(r)", "1/r")


class RatioReference:
    """The reduced ratio of two QQ polynomials in r, with a monic denominator:
    the reference for ``RationalInR`` on the expressions route 3 builds."""

    def __init__(self, num: UniPoly, den: UniPoly):
        g = gcd_uni(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        scale = Fraction(1) / den.lc
        self.num, self.den = num.scale(scale), den.scale(scale)

    @classmethod
    def constant(cls, value):
        return cls(UniPoly(QQ, (Fraction(value),)), UniPoly(QQ, (Fraction(1),)))

    @classmethod
    def r(cls):
        return cls(UniPoly.x(QQ), UniPoly(QQ, (Fraction(1),)))

    @classmethod
    def one_over_r(cls):
        return cls(UniPoly(QQ, (Fraction(1),)), UniPoly.x(QQ))

    def __mul__(self, other):
        return RatioReference(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        return RatioReference(self.num * other.den + other.num * self.den, self.den * other.den)

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def is_constant(self):
        return self.den.degree == 0 and self.num.degree <= 0

    def constant_value(self):
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def evaluate(self, r_value):
        den = self.den.eval(Fraction(r_value))
        if den == 0:
            raise ZeroDivisionError
        return self.num.eval(Fraction(r_value)) / den

    def __str__(self):
        def fmt(poly):
            if poly.is_zero():
                return "0"
            parts = []
            for k in range(poly.degree, -1, -1):
                c = poly.coeffs[k]
                if c == 0:
                    continue
                if k == 0:
                    parts.append(str(c))
                elif k == 1:
                    parts.append("r" if c == 1 else f"{c}*r")
                else:
                    parts.append(f"r^{k}" if c == 1 else f"{c}*r^{k}")
            return " + ".join(parts)

        if self.den.degree == 0:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


def _expression(rng: random.Random, depth: int):
    """One seeded expression in r, 1/r and rational constants under + and *,
    built in ``RationalInR`` and in the reference side by side."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return RationalInR.constant(value), RatioReference.constant(value)
        if kind == 1:
            return RationalInR.r(), RatioReference.r()
        return RationalInR.one_over_r(), RatioReference.one_over_r()
    (a, ra), (b, rb) = _expression(rng, depth - 1), _expression(rng, depth - 1)
    return (a + b, ra + rb) if rng.random() < 0.5 else (a * b, ra * rb)


def test_laurent_values_match_the_reduced_ratio():
    rng = random.Random(33)
    pairs = [_expression(rng, 4) for _ in range(500)]
    for value, ref in pairs:
        assert str(value) == str(ref)
        assert value.is_constant() == ref.is_constant()
        if ref.is_constant():
            assert value.constant_value() == ref.constant_value()
        else:
            with pytest.raises(ValueError):
                value.constant_value()
        for r_value in (1, 2, Fraction(3, 2), -5, 0):
            try:
                expected = ref.evaluate(r_value)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    value.evaluate(r_value)
            else:
                assert value.evaluate(r_value) == expected
    equal = 0
    for (a, ra), (b, rb) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a == b) == (ra == rb)
        equal += a == b
    assert equal  # the seeded expressions repeat some values
    # a value and the same value rebuilt by distributing a product
    for (a, _), (b, _), (c, _) in zip(pairs[0::3], pairs[1::3], pairs[2::3]):
        assert a * (b + c) == a * b + a * c
        assert hash(a * (b + c)) == hash(a * b + a * c)


def test_chain_values_have_exponents_minus_one_and_zero():
    for value in evaluate_chain().values():
        assert value.terms and value.terms.keys() <= {-1, 0}


def test_route_three_imports_no_other_package_module():
    tree = ast.parse(Path(gw_recursion.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("quintic_moduli")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("quintic_moduli") for alias in node.names)
