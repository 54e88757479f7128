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

All values are kept as exact rational functions of a formal r, so the
r-independence of the degree-1 outputs is a provable simplification, not a
sampled observation.  a_i denotes the fundamental class of the i-th
inertia sector, b_i the class of a point there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elimination import gcd_uni
from .polys import UniPoly
from .scalars import QQ

ALPHA1, ALPHA2, ALPHA3 = "a1", "a2", "a3"
BETA_RM2, BETA_RM3 = "b{r-2}", "b{r-3}"

_LABELS = {ALPHA1, ALPHA2, ALPHA3, BETA_RM2, BETA_RM3}


@dataclass(frozen=True)
class GWSymbol:
    """A curve count: map degree (0 or 1) plus a multiset of insertions.

    Only the seven symbols appearing in the chain are admitted; the
    admitted set is checked after construction of the module constants.
    """

    degree: int
    insertions: tuple[str, ...]

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError("only degree 0 and 1 counts appear in the chain")
        if not 3 <= len(self.insertions) <= 5:
            raise ValueError("counts here carry between three and five insertions")
        bad = set(self.insertions) - _LABELS
        if bad:
            raise ValueError(f"unknown insertion labels: {sorted(bad)}")
        object.__setattr__(self, "insertions", tuple(sorted(self.insertions)))
        if _ADMITTED is not None and self not in _ADMITTED:
            raise ValueError(f"{self} does not occur in the degeneration chain")

    def __str__(self):
        body = " ".join(self.insertions)
        return f"I{self.degree}({body})"


class RationalInR:
    """Reduced ratio of rational-coefficient polynomials in the formal r."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = gcd_uni(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lc = den.lc
        if lc != 1:
            num = num.scale(Fraction(1) / lc)
            den = den.scale(Fraction(1) / lc)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, value) -> "RationalInR":
        return cls(UniPoly(QQ, (Fraction(value),)), UniPoly(QQ, (Fraction(1),)))

    @classmethod
    def r(cls) -> "RationalInR":
        return cls(UniPoly.x(QQ), UniPoly(QQ, (Fraction(1),)))

    @classmethod
    def one_over_r(cls) -> "RationalInR":
        return cls(UniPoly(QQ, (Fraction(1),)), UniPoly.x(QQ))

    def __mul__(self, other: "RationalInR") -> "RationalInR":
        return RationalInR(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalInR") -> "RationalInR":
        return RationalInR(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalInR)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not independent of r")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def evaluate(self, r_value) -> Fraction:
        r_value = Fraction(r_value)
        den = self.den.eval(r_value)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at r = {r_value}")
        return self.num.eval(r_value) / den

    def __str__(self):
        def fmt(poly: UniPoly) -> str:
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

        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"

    __repr__ = __str__


# construction-time escape hatch: the admitted set does not exist while the
# admitted symbols themselves are being built
_ADMITTED: frozenset | None = None


def _sym(degree: int, *labels: str) -> GWSymbol:
    return GWSymbol(degree, tuple(labels))


SYM_I0_A1A1_BRM2 = _sym(0, ALPHA1, ALPHA1, BETA_RM2)
SYM_I0_A1A2_BRM3 = _sym(0, ALPHA1, ALPHA2, BETA_RM3)
SYM_I0_A1A1A1_BRM3 = _sym(0, ALPHA1, ALPHA1, ALPHA1, BETA_RM3)
SYM_I1_A1A1A3 = _sym(1, ALPHA1, ALPHA1, ALPHA3)
SYM_I1_A1A2A2 = _sym(1, ALPHA1, ALPHA2, ALPHA2)
SYM_I1_A1A1A1A2 = _sym(1, ALPHA1, ALPHA1, ALPHA1, ALPHA2)
SYM_I1_A1_5 = _sym(1, ALPHA1, ALPHA1, ALPHA1, ALPHA1, ALPHA1)

_ADMITTED = frozenset(
    {
        SYM_I0_A1A1_BRM2,
        SYM_I0_A1A2_BRM3,
        SYM_I0_A1A1A1_BRM3,
        SYM_I1_A1A1A3,
        SYM_I1_A1A2A2,
        SYM_I1_A1A1A1A2,
        SYM_I1_A1_5,
    }
)


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
    """Numeric spot check of the final count at explicit orders r >= 4."""
    for r in r_values:
        if r < 4:
            raise ValueError(f"the rooting order must be at least 4, got {r}")
    final = evaluate_chain()[SYM_I1_A1_5]
    target = final.constant_value()
    return all(final.evaluate(r) == target for r in r_values)
