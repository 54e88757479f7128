"""Dense univariate and sparse multivariate polynomials over an exact field.

``UniPoly`` stores an ascending coefficient tuple with the top coefficient
nonzero; the zero polynomial is the empty tuple and reports degree ``-inf``.
``MultiPoly`` maps exponent tuples of a fixed arity to nonzero scalars;
stored zero coefficients are never kept.  Both are immutable after
construction and safe to share across threads.

Operations mixing distinct fields (or arities) raise ``ValueError`` rather
than coercing.  Term iteration for display/serialisation is sorted
lexicographically on exponent tuples so output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import Field, PrimeField

NEG_INF = float("-inf")


def _check_same_field(a, b):
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field!r} vs {b.field!r}")


class UniPoly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies ``x**k``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def constant(cls, field: Field, c) -> "UniPoly":
        return cls(field, (c,))

    @classmethod
    def x(cls, field: Field) -> "UniPoly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "UniPoly":
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def degree(self):
        """Degree as an int; the zero polynomial reports ``-inf``."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        _check_same_field(self, other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = F.add(out[k], c)
        return UniPoly(F, out)

    def __neg__(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        _check_same_field(self, other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(F)
        if isinstance(F, PrimeField):
            # accumulate with plain ints, reduce once per coefficient
            p = F.p
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return UniPoly(F, [c % p for c in out])
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if F.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return UniPoly(F, out)

    def scale(self, c) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by ``x**k``."""
        if self.is_zero():
            return self
        return UniPoly(self.field, (self.field.zero,) * k + self.coeffs)

    def eval(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def derivative(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.mul(F.from_int(k), c) for k, c in enumerate(self.coeffs) if k])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalise the zero polynomial")
        F = self.field
        inv = F.inv(self.lc)
        return UniPoly(F, [F.mul(inv, c) for c in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        _check_same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dv = other.coeffs
        dq = len(rem) - len(dv)
        if dq < 0:
            return UniPoly.zero(F), self
        inv_lc = F.inv(dv[-1])
        quo = [F.zero] * (dq + 1)
        if isinstance(F, PrimeField):
            p = F.p
            for k in range(dq, -1, -1):
                c = rem[k + len(dv) - 1] * inv_lc % p
                if c:
                    quo[k] = c
                    for j, d in enumerate(dv):
                        rem[k + j] = (rem[k + j] - c * d) % p
        else:
            for k in range(dq, -1, -1):
                c = F.mul(rem[k + len(dv) - 1], inv_lc)
                if not F.is_zero(c):
                    quo[k] = c
                    for j, d in enumerate(dv):
                        rem[k + j] = F.sub(rem[k + j], F.mul(c, d))
        return UniPoly(F, quo), UniPoly(F, rem[: len(dv) - 1])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.field!r}, {list(self.coeffs)!r})"


class MultiPoly:
    """Sparse multivariate polynomial with a fixed number of variables."""

    __slots__ = ("field", "arity", "terms")

    def __init__(self, field: Field, arity: int, terms: Mapping[tuple, object]):
        clean = {}
        for expo, c in terms.items():
            if len(expo) != arity:
                raise ValueError(f"exponent {expo} does not have arity {arity}")
            if not field.is_zero(c):
                clean[tuple(expo)] = c
        self.field = field
        self.arity = arity
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, arity: int) -> "MultiPoly":
        return cls(field, arity, {})

    @classmethod
    def constant(cls, field: Field, arity: int, c) -> "MultiPoly":
        return cls(field, arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, field: Field, arity: int, idx: int) -> "MultiPoly":
        if not 0 <= idx < arity:
            raise ValueError(f"variable index {idx} out of range for arity {arity}")
        expo = [0] * arity
        expo[idx] = 1
        return cls(field, arity, {tuple(expo): field.one})

    def _check_compatible(self, other: "MultiPoly"):
        _check_same_field(self, other)
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def degree_in(self, var: int):
        return max((e[var] for e in self.terms), default=NEG_INF)

    def sorted_terms(self):
        """Terms in descending lexicographic exponent order (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = F.add(out[e], c)
            else:
                out[e] = c
        return MultiPoly(F, self.arity, out)

    def __neg__(self) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.arity, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        F = self.field
        if not self.terms or not other.terms:
            return MultiPoly.zero(F, self.arity)
        out: dict = {}
        if isinstance(F, PrimeField):
            p = F.p
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = (out.get(e, 0) + c1 * c2) % p
            return MultiPoly(F, self.arity, out)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in out:
                    out[e] = F.add(out[e], F.mul(c1, c2))
                else:
                    out[e] = F.mul(c1, c2)
        return MultiPoly(F, self.arity, out)

    def scale(self, c) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.arity, {e: F.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.field, self.arity, self.field.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def eval(self, point: Sequence):
        """Exact value at a point given as one scalar per variable."""
        if len(point) != self.arity:
            raise ValueError(f"point arity {len(point)} does not match polynomial arity {self.arity}")
        F = self.field
        # cache powers of each coordinate
        maxes = [0] * self.arity
        for e in self.terms:
            for i, k in enumerate(e):
                if k > maxes[i]:
                    maxes[i] = k
        powers = []
        for x, m in zip(point, maxes):
            row = [F.one]
            for _ in range(m):
                row.append(F.mul(row[-1], x))
            powers.append(row)
        acc = F.zero
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    t = F.mul(t, powers[i][k])
            acc = F.add(acc, t)
        return acc

    def derivative(self, var: int) -> "MultiPoly":
        F = self.field
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                ne = list(e)
                ne[var] = k - 1
                out[tuple(ne)] = F.mul(F.from_int(k), c)
        return MultiPoly(F, self.arity, out)

    def compose(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute ``args[i]`` for variable ``i``; args share field and arity."""
        if len(args) != self.arity:
            raise ValueError("one substitution polynomial required per variable")
        F = self.field
        arity = args[0].arity
        for g in args:
            if g.field is not F or g.arity != arity:
                raise ValueError("substitution polynomials must share field and arity")
        pow_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.constant(F, arity, F.one), 1: g} for g in args
        ]

        def power(i, k):
            cache = pow_cache[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * pow_cache[i][1]
            return cache[k]

        acc = MultiPoly.zero(F, arity)
        for e, c in self.sorted_terms():
            t = MultiPoly.constant(F, arity, c)
            for i, k in enumerate(e):
                if k:
                    t = t * power(i, k)
            acc = acc + t
        return acc

    def map_coefficients(self, target_field: Field, fn) -> "MultiPoly":
        """Rebuild over ``target_field`` sending each coefficient through ``fn``."""
        return MultiPoly(target_field, self.arity, {e: fn(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field is other.field
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.field), self.arity, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"MultiPoly({self.field!r}, arity={self.arity}, {dict(self.sorted_terms())!r})"


class PolynomialRing:
    """Ring interface whose elements are ``MultiPoly`` values.

    Lets coefficient-generic code (the transvectant chain in particular)
    run unchanged with polynomial coefficients, e.g. for symbolic identity
    checks in several formal variables.
    """

    def __init__(self, field: Field, arity: int):
        self.field = field
        self.arity = arity
        self.zero = MultiPoly.zero(field, arity)
        self.one = MultiPoly.constant(field, arity, field.one)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n):
        return MultiPoly.constant(self.field, self.arity, self.field.from_int(n))

    def from_fraction(self, q: Fraction):
        return MultiPoly.constant(self.field, self.arity, self.field.from_fraction(q))

    def is_zero(self, a):
        return a.is_zero()

    def pow(self, a, n):
        return a ** n

    def variable(self, idx: int) -> MultiPoly:
        return MultiPoly.variable(self.field, self.arity, idx)

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, arity={self.arity})"


def interpolate(samples: Sequence[tuple], field: Field) -> UniPoly:
    """Unique polynomial of degree < ``len(samples)`` through the samples.

    Newton's divided differences; abscissae must be pairwise distinct.
    """
    n = len(samples)
    if n == 0:
        return UniPoly.zero(field)
    xs = [s[0] for s in samples]
    ys = [s[1] for s in samples]
    if isinstance(field, PrimeField):
        return _interpolate_modp(xs, ys, field)
    F = field
    seen = set()
    for x in xs:
        if x in seen:
            raise ValueError(f"repeated abscissa {x!r}")
        seen.add(x)
    # divided-difference table, in place
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = F.sub(dd[i], dd[i - 1])
            den = F.sub(xs[i], xs[i - level])
            dd[i] = F.div(num, den)
    # expand the Newton form
    poly = UniPoly.zero(F)
    basis = UniPoly.constant(F, F.one)
    for k in range(n):
        poly = poly + basis.scale(dd[k])
        basis = basis * UniPoly(F, (F.neg(xs[k]), F.one))
    return poly


def _interpolate_modp(xs: list[int], ys: list[int], field: PrimeField) -> UniPoly:
    # same Newton scheme on raw ints, with a batch inverse table for the
    # abscissa differences (samples are typically consecutive integers)
    p = field.p
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("repeated abscissa")
    deltas = set()
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            deltas.add((xs[i] - xs[i - level]) % p)
    if 0 in deltas:
        raise ValueError("repeated abscissa")
    inv = _batch_inverse(sorted(deltas), p)
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv[(xs[i] - xs[i - level]) % p] % p
    coeffs = [0] * n
    basis = [1]
    for k in range(n):
        c = dd[k]
        if c:
            for j, b in enumerate(basis):
                coeffs[j] = (coeffs[j] + c * b) % p
        if k < n - 1:
            # basis *= (x - xs[k])
            nxk = (p - xs[k]) % p
            basis.append(0)
            for j in range(len(basis) - 1, 0, -1):
                basis[j] = (basis[j - 1] + basis[j] * nxk) % p
            basis[0] = basis[0] * nxk % p
    return UniPoly(field, coeffs)


def interpolate_bivariate(
    xs: Sequence, ys: Sequence, values: Sequence[Sequence], field: Field
) -> MultiPoly:
    """Bivariate polynomial through a full grid of samples.

    ``values[i][j]`` is the value at ``(xs[i], ys[j])``; the result is exact
    for any polynomial of degree < len(xs) in the first variable and
    < len(ys) in the second.
    """
    rows = [interpolate(list(zip(ys, row)), field) for row in values]
    max_k = max((r.degree for r in rows if not r.is_zero()), default=-1)
    terms: dict = {}
    for k in range(int(max_k) + 1):
        samples = [
            (x, rows[i].coeffs[k] if k < len(rows[i].coeffs) else field.zero)
            for i, x in enumerate(xs)
        ]
        ck = interpolate(samples, field)
        for d, c in enumerate(ck.coeffs):
            if not field.is_zero(c):
                terms[(d, k)] = c
    return MultiPoly(field, 2, terms)


def _batch_inverse(values: list[int], p: int) -> dict[int, int]:
    """Montgomery trick: invert many nonzero residues with one modular pow."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    total_inv = pow(prefix[-1], p - 2, p)
    out = {}
    for i in range(len(values) - 1, -1, -1):
        out[values[i]] = prefix[i] * total_inv % p
        total_inv = total_inv * values[i] % p
    return out
