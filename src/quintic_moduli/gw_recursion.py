"""Degeneration-axiom chain for the twisted count, exact in the order r.

Working on the plane rooted r-th order along the quintic (any integer
r >= 4), the degree-1 five-fold first-sector count decomposes over a
boundary degeneration into products of smaller counts.  With the four
directly computable base values

    I0(a1^2 b_{r-2}) = 1/r      I0(a1 a2 b_{r-3}) = 1/r
    I1(a1^2 a3) = 2 * 45        I1(a1 a2^2) = 2 * 120

the chain closes:

    I0(a1^3 b_{r-3}) = r * I0(a1^2 b_{r-2}) * I0(a1 a2 b_{r-3})
    I1(a1^3 a2)      = r * I0(a1^2 b_{r-2}) * I1(a1 a2^2)
                       + r * I1(a1^2 a3) * I0(a1 a2 b_{r-3})
    I1(a1^5)         = r * I0(a1^2 b_{r-2}) * I1(a1^3 a2)
                       + r * I1(a1^2 a3) * I0(a1^3 b_{r-3})

Every value is a Laurent polynomial in a formal r with exact rational
coefficients: the base values are constants and 1/r, and the chain only
adds values and multiplies them by r.  A count is free of r exactly when
its only exponent of r is 0, so the r-independence of the degree-1
outputs is read off the data, not sampled.  a_i denotes the fundamental
class of the i-th inertia sector, b_i the class of a point there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GWSymbol:
    """A curve count: map degree (0 or 1) plus the multiset of its
    insertions, as a sorted tuple of labels (``a1``, ``b{r-2}``, ...)."""

    degree: int
    insertions: tuple[str, ...]

    def __str__(self):
        body = " ".join(self.insertions)
        return f"I{self.degree}({body})"


class RationalInR:
    """A Laurent polynomial in the formal r: a map from each exponent of r
    to its nonzero rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def constant(cls, value) -> "RationalInR":
        return cls({0: value})

    @classmethod
    def r(cls) -> "RationalInR":
        return cls({1: 1})

    @classmethod
    def one_over_r(cls) -> "RationalInR":
        return cls({-1: 1})

    def __mul__(self, other: "RationalInR") -> "RationalInR":
        terms: dict[int, Fraction] = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                terms[e + f] = terms.get(e + f, 0) + c * d
        return RationalInR(terms)

    def __add__(self, other: "RationalInR") -> "RationalInR":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return RationalInR(terms)

    def __eq__(self, other):
        return isinstance(other, RationalInR) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not independent of r")
        return self.terms.get(0, Fraction(0))

    def evaluate(self, r_value) -> Fraction:
        r_value = Fraction(r_value)
        if r_value == 0 and min(self.terms, default=0) < 0:
            raise ZeroDivisionError(f"denominator vanishes at r = {r_value}")
        return sum((c * r_value**e for e, c in self.terms.items()), Fraction(0))

    def __str__(self):
        """(r^k * value)/(r^k) for the least k making the numerator a
        polynomial: its constant term is nonzero, so the ratio is reduced."""

        def fmt(terms: dict[int, Fraction]) -> str:
            parts = []
            for k, c in sorted(terms.items(), reverse=True):
                power = "" if k == 0 else "r" if k == 1 else f"r^{k}"
                parts.append(str(c) if not power else power if c == 1 else f"{c}*{power}")
            return " + ".join(parts) or "0"

        shift = -min(self.terms, default=0)
        if shift <= 0:
            return fmt(self.terms)
        numerator = {e + shift: c for e, c in self.terms.items()}
        return f"({fmt(numerator)})/({fmt({shift: Fraction(1)})})"

    __repr__ = __str__


SYM_I0_A1A1_BRM2 = GWSymbol(0, ("a1", "a1", "b{r-2}"))
SYM_I0_A1A2_BRM3 = GWSymbol(0, ("a1", "a2", "b{r-3}"))
SYM_I0_A1A1A1_BRM3 = GWSymbol(0, ("a1", "a1", "a1", "b{r-3}"))
SYM_I1_A1A1A3 = GWSymbol(1, ("a1", "a1", "a3"))
SYM_I1_A1A2A2 = GWSymbol(1, ("a1", "a2", "a2"))
SYM_I1_A1A1A1A2 = GWSymbol(1, ("a1", "a1", "a1", "a2"))
SYM_I1_A1_5 = GWSymbol(1, ("a1", "a1", "a1", "a1", "a1"))


def base_values() -> dict[GWSymbol, RationalInR]:
    """The four directly computable counts seeding the chain."""
    return {
        SYM_I0_A1A1_BRM2: RationalInR.one_over_r(),
        SYM_I0_A1A2_BRM3: RationalInR.one_over_r(),
        SYM_I1_A1A1A3: RationalInR.constant(2 * 45),
        SYM_I1_A1A2A2: RationalInR.constant(2 * 120),
    }


#: The chain, solved in this order: each count is the sum over its terms
#: (left, right) of r * left * right.
CHAIN = (
    (SYM_I0_A1A1A1_BRM3, ((SYM_I0_A1A1_BRM2, SYM_I0_A1A2_BRM3),)),
    (
        SYM_I1_A1A1A1A2,
        ((SYM_I0_A1A1_BRM2, SYM_I1_A1A2A2), (SYM_I1_A1A1A3, SYM_I0_A1A2_BRM3)),
    ),
    (
        SYM_I1_A1_5,
        ((SYM_I0_A1A1_BRM2, SYM_I1_A1A1A1A2), (SYM_I1_A1A1A3, SYM_I0_A1A1A1_BRM3)),
    ),
)


def evaluate_chain() -> dict[GWSymbol, RationalInR]:
    """Solve the chain bottom-up; degree-1 outputs must simplify to constants."""
    values = base_values()
    r = RationalInR.r()
    for count, terms in CHAIN:
        (left, right), *rest = terms
        total = r * values[left] * values[right]
        for left, right in rest:
            total = total + r * values[left] * values[right]
        values[count] = total
        if count.degree == 1 and not total.is_constant():
            raise ArithmeticError(f"{count} failed to simplify to an r-free constant")
    return values


def chain_trace() -> list[str]:
    """Human-readable substitution trace of the full chain."""
    values = evaluate_chain()
    chained = dict(CHAIN)
    lines = ["base values:"]
    lines += [f"  {sym} = {value}" for sym, value in values.items() if sym not in chained]
    lines.append("chain:")
    for count, terms in CHAIN:
        sum_text = " + ".join(f"r * {left} * {right}" for left, right in terms)
        lines.append(f"  {count} = {sum_text} = {values[count]}")
    return lines


def r_independence_check(r_values: list[int]) -> bool:
    """Numeric spot check at explicit orders r >= 4: ``CHAIN`` solved in
    Fractions at each r, from ``base_values()`` evaluated there, gives the
    r-free constant that ``evaluate_chain`` derives symbolically."""
    for r in r_values:
        if r < 4:
            raise ValueError(f"the rooting order must be at least 4, got {r}")
    target = evaluate_chain()[SYM_I1_A1_5].constant_value()
    for r in r_values:
        values = {sym: value.evaluate(r) for sym, value in base_values().items()}
        for count, terms in CHAIN:
            values[count] = sum(r * values[left] * values[right] for left, right in terms)
        if values[SYM_I1_A1_5] != target:
            return False
    return True
