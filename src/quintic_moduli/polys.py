"""Dense univariate and sparse multivariate polynomials over an exact ring.

``UniPoly`` stores an ascending coefficient tuple with the top coefficient
nonzero; the zero polynomial is the empty tuple and reports degree ``-inf``.
``MultiPoly`` maps exponent tuples of a fixed arity to nonzero scalars;
stored zero coefficients are never kept.  Both are immutable after
construction and safe to share across threads.

The coefficients come from any ``Ring`` of :mod:`.scalars`: QQ, GF(p), a
``PolynomialRing`` or a residue ring GF(p)[u]/(h).  Every operation
combines coefficients with their own ``+ - *`` and calls the ring's
``reduce`` once per resulting coefficient or value; ``n * poly`` scales by
an int n.  Division (``divmod``, ``monic`` and so the gcds built on them)
also calls the ring's ``inv``, which over a residue ring may raise
``SplitNeeded``.

Over GF(p), whose coefficients are residues in [0, p), two kernels work on
packed integers at every prime (``_pack``/``_unpack``: one slot per
coefficient, ``_slot_width`` bits, the least multiple of 64 that holds the
kernel's largest slot sum; slots are unpacked through one ``array`` of
64-bit words).  ``dense_product``, shared with
``BinaryForm``, multiplies by Kronecker substitution: one bigint product,
each slot reduced mod p.  ``divmod`` packs the remainder and the divisor
once, reads each quotient term off the top slot and adds (p - c) times
the shifted divisor, and reduces the low slots once at the end.  A whole
remainder sequence (``elimination.gcd_uni`` and the sample resultants)
stays packed between divisions instead: each division is this one,
followed by a SWAR Barrett step that brings every slot to [0, 2p) without
unpacking (``elimination._lazy_sequence``).  The two divisions stay apart
on purpose: one that served both would branch on its caller (keep the
quotient or not), and such a shared division made the eliminant about 10%
slower.  Every other ring, QQ included, takes the accumulate-then-reduce
loop: the package's rational chains run on cleared integers, so no
rational product lies on a hot path.

The SWAR Barrett constants live here (Barrett, CRYPTO '86): for a bound on
the slots, ``_barrett_constants`` gives the shift s, the multiplier m =
floor(2**s / p) and the slot width w with which x - p * ((x * m >> s) &
mask) brings every slot to [0, 2p) at once, ``_barrett_mask`` the mask, and
``_lazy_constants`` the constants of the remainder sequences.  Three
kernels keep their polynomials packed between such steps: the remainder
sequences of :mod:`.elimination`, ``interpolate`` and the Barrett division
of ``residue_rings.ResidueRing.reduce_packed``.  A Newton reciprocal
division through ``dense_product`` would not pay for ``divmod`` or Yun's
exact divisions, since ``dense_product`` unpacks and takes each slot mod p
after every product.

``_KroneckerRing`` is the package's one Kronecker form of GF(p)[x, y]:
one int per polynomial, x**i y**j in slot i * stride + j, in a slot wide
enough for the caller's bound on |slot| plus a bias (a multiple of p)
that makes every signed slot readable.  The chart chain of
``fiber_counting``, the frame change and the Hessian of ``plane_curves``
all run in it.

``line_restriction`` is the package's one restriction of a ternary form to
a line x_v = a x_o1 + b x_o2: the binomial expansion becomes a table of
terms once per form, and each line is one pass over that table with the
power tables of a and b, in whatever ring (or scaling) the caller chooses.

Interpolation runs over GF(p) on raw ints, at the nodes 0, 1, ..., n only.
``interpolate``, for the samples of the bivariate eliminant and the
certificate's subresultant, takes a list of values at 0..n - 1 and the
Lagrange form over a subproduct tree of packed ints: a node is two bigint
products and one add and a SWAR Barrett step, and the root is unpacked
once.  The weights have a closed form, and the tree and weights come from
a small cache keyed by (p, n).
``interpolate_bivariate`` takes the values on the principal lattice
{i + j <= n} and works in Newton form, a divided difference of order k
dividing by k; the fiber system is built exactly (``fiber_counting``),
so it serves the tests only, as the lattice reference.

Operations mixing distinct rings (or arities) raise ``ValueError`` rather
than coercing.  Term iteration for display/serialisation is sorted
lexicographically on exponent tuples so output is deterministic.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .scalars import GF, Field, PrimeField, Ring

NEG_INF = float("-inf")

assert array("Q").itemsize == 8, "packed kernels need 64-bit array slots"
_LITTLE_ENDIAN = sys.byteorder == "little"


def _check_same_field(a, b):
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field!r} vs {b.field!r}")


def _slot_width(bound: int) -> int:
    """The least multiple of 64 bits w with ``bound`` < 2**w: the width of a
    packed slot that must hold every value up to ``bound``."""
    return 64 * max(1, -(-bound.bit_length() // 64))


def _pack(coeffs: Sequence[int], width: int = 64) -> int:
    """One integer holding ``coeffs[k]`` in bits width k .. width (k + 1) - 1.

    ``width`` is a multiple of 64.  A coefficient outside [0, 2**width)
    raises ``OverflowError`` (from ``array`` at 64 bits, from
    ``int.to_bytes`` at a wider slot, which converts one slot at a time:
    that beats splitting the coefficients into one array slice per word).
    """
    if width == 64:
        slots = array("Q", coeffs)
        if not _LITTLE_ENDIAN:
            slots.byteswap()
        return int.from_bytes(slots, "little")
    size = width >> 3
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coeffs), "little")


def _unpack(packed: int, length: int, width: int = 64) -> Sequence[int]:
    """The ``length`` slots of ``width`` bits of a nonnegative integer below
    2**(width * length): an ``array`` at 64 bits, else a list.

    The integer is read as one ``array`` of 64-bit words; at w = 64 k each
    slot's k words are recombined, top word first, by k - 1 passes of
    shifts over strided slices of that array.
    """
    k = width >> 6
    words = array("Q", packed.to_bytes(8 * k * length, "little"))
    if not _LITTLE_ENDIAN:
        words.byteswap()
    if k == 1:
        return words
    slots = words[k - 1 :: k].tolist()
    for i in range(k - 2, -1, -1):
        slots = [hi << 64 | lo for hi, lo in zip(slots, words[i::k])]
    return slots


class _KroneckerRing(Ring):
    """GF(p)[x, y] in Kronecker form (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, section 8.4): one int per polynomial, with the
    coefficient of x**i y**j in the w-bit slot i * stride + j.

    ``+``, ``-``, ``*`` and int scaling are the ints' own, so a raw
    combination may have signed slots; ``bound`` bounds every |slot| that is
    reduced or read.  ``bias``, the least multiple of p at least ``bound``,
    is added to every slot before it is read, and w is the ``_slot_width``
    of bias + bound.  ``reduce`` takes each slot mod p and repacks;
    ``terms`` reads the nonzero residues off as {(i, j): c}.
    """

    def __init__(self, p: int, stride: int, bound: int):
        self.field = GF(p)
        self.p = p
        self.stride = stride
        self.zero, self.one = 0, 1
        self.bias = -(-bound // p) * p
        self.width = _slot_width(self.bias + bound)

    def from_fraction(self, q):
        return self.field.from_fraction(q)

    def is_zero(self, a):
        return a == 0

    def _slots(self, x: int) -> Sequence[int]:
        """Every slot of x + bias up to the top one, signed or not."""
        w = self.width
        n = x.bit_length() // w + 1
        return _unpack(x + _spread(self.bias, n, w), n, w)

    def reduce(self, x):
        p = self.p
        return _pack([c % p for c in self._slots(x)], self.width)

    def terms(self, x: int) -> dict[tuple[int, int], int]:
        p, stride = self.p, self.stride
        out = {}
        for k, c in enumerate(self._slots(x)):
            c %= p
            if c:
                out[divmod(k, stride)] = c
        return out

    def __repr__(self):
        return f"_KroneckerRing({self.p}, {self.stride}, width={self.width})"


@functools.lru_cache(maxsize=64)
def _spread(value: int, n: int, w: int) -> int:
    """``value`` in each of n slots of w bits; cached, since the rings of
    one prime read a handful of slot counts."""
    return value * (((1 << w * n) - 1) // ((1 << w) - 1))


def _barrett_constants(p: int, bound: int) -> tuple[int, int, int]:
    """(s, m, w) of a SWAR Barrett step over GF(p) (Barrett, CRYPTO '86) on
    w-bit slots that each hold at most ``bound`` (>= p - 1).

    The step x - p * ((x * m >> s) & mask), m = floor(2**s / p), the mask
    (``_barrett_mask``) keeping the low w - s bits of each slot, brings every
    slot x to [0, 2p) at once.  For x < 2**s the quotient q = floor(x m /
    2**s) is floor(x / p) or one less, since x m / 2**s lies in (x / p - x /
    2**s, x / p]; and for x m < 2**w no slot's product carries into the
    next, so q is read off its own slot.  s is the least with bound < 2**s
    (and p <= 2**s), which makes m smallest, and w the ``_slot_width`` of
    bound * m.
    """
    s = max(bound.bit_length(), p.bit_length())
    m = (1 << s) // p
    return s, m, _slot_width(bound * m)


@functools.lru_cache(maxsize=64)
def _barrett_mask(s: int, length: int, w: int) -> int:
    """``length`` slots of w bits, each holding w - s one bits: the per-slot
    quotients of x * m >> s.

    Cached by (s, length, w), so the prime's shift and width and the slot
    count."""
    return ((1 << w * length) - 1) // ((1 << w) - 1) * ((1 << (w - s)) - 1)


#: Primes below this get a table of all their inverses in ``_lazy_constants``
#: (at most 65536 entries); a larger prime inverts with ``pow``.
_INVERSE_TABLE_LIMIT = 1 << 16


@functools.cache
def _lazy_constants(p: int) -> tuple[int, int, int, tuple | None, int]:
    """(s, m, limit, inverses, w) of the lazily reduced packed remainder
    sequences of :mod:`.elimination` over GF(p), in slots of w bits.

    m = floor(2**s / p) is the Barrett multiplier, and limit the most
    products (p - c) * b_j, each below (p - 1)(2p - 1), a slot may take
    between two Barrett steps: from a slot below 2p, every slot x stays
    below 2**s and x * m below 2**w, the two bounds the SWAR Barrett step
    needs.  w is the least of 64, 128, ... where some s < w gives limit >=
    1 (64 for every p up to 1482910): the width ``_barrett_constants``
    gives a slot after one product, top = 2p - 1 + (p - 1)(2p - 1).  s is
    then the one making limit largest in w bits.
    ``inverses[c]`` is 1/c mod p (None from ``_INVERSE_TABLE_LIMIT`` on),
    from inv(i) = -(p // i) inv(p mod i), for the leads of the remainder
    sequence.  Keyed by the prime, so one entry per prime.
    """
    span = (p - 1) * (2 * p - 1)
    w = _barrett_constants(p, 2 * p - 1 + span)[2]
    best = (0, 0, 0)
    for s in range(p.bit_length() + 1, w):
        m = (1 << s) // p
        limit = (min((1 << s) - 1, ((1 << w) - 1) // m) - (2 * p - 1)) // span
        if limit > best[2]:
            best = (s, m, limit)
    inverses = None
    if p < _INVERSE_TABLE_LIMIT:
        table = [0, 1] + [0] * (p - 2)
        for i in range(2, p):
            table[i] = (p - p // i) * table[p % i] % p
        inverses = tuple(table)
    return (*best, inverses, w)


def dense_product(ring: Ring, a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of two nonempty dense coefficient sequences.

    Over GF(p) the product is one integer multiplication (Kronecker
    substitution) in slots of ``_slot_width`` of max(a) * max(b) * min(len
    a, len b), the most a convolution sum can reach; when a factor is zero
    that bound is 0, and max(a) + max(b) keeps the other factor's
    coefficients in their slots.  A negative coefficient makes ``_pack``
    raise ``OverflowError``, never a wrong slot.  Every other ring
    accumulates raw sums of products with the values' own ``+`` and ``*``
    and calls ``ring.reduce`` once per output coefficient.
    """
    if isinstance(ring, PrimeField):
        p = ring.p
        w = _slot_width(max(a) * max(b) * min(len(a), len(b)) or max(a) + max(b))
        return [c % p for c in _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w)]
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ring.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [ring.reduce(c) for c in out]


class UniPoly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies ``x**k``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Ring, coeffs: Iterable):
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
        return UniPoly(F, [F.reduce(x + y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.reduce(-c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        _check_same_field(self, other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        out = [F.reduce(x - y) for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [F.reduce(-y) for y in b[len(a):]]
        return UniPoly(F, out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        _check_same_field(self, other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(F)
        return UniPoly(F, dense_product(F, self.coeffs, other.coeffs))

    def scale(self, c) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.reduce(c * a) for a in self.coeffs])

    def __rmul__(self, n: int) -> "UniPoly":
        """n * self for an int n: every ring is a ZZ-module (transvectant weights)."""
        return self.scale(n) if isinstance(n, int) else NotImplemented

    def eval(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.reduce(acc * x + c)
        return acc

    def derivative(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, [F.reduce(F.from_int(k) * c) for k, c in enumerate(self.coeffs) if k])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalise the zero polynomial")
        F = self.field
        inv = F.inv(self.lc)
        return UniPoly(F, [F.reduce(inv * c) for c in self.coeffs])

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
        n = len(dv) - 1
        # Over GF(p) the remainder and the divisor are packed once: slot j of
        # R collects at most dq + 1 products below p**2 on top of a residue.
        if isinstance(F, PrimeField):
            p = F.p
            w = _slot_width((dq + 2) * p * p)
            slot = (1 << w) - 1
            R, D = _pack(rem, w), _pack(dv, w)
            for k in range(dq, -1, -1):
                c = (R >> w * (k + n) & slot) * inv_lc % p
                if c:
                    quo[k] = c
                    R += (p - c) * D << w * k
            return UniPoly(F, quo), UniPoly(F, [c % p for c in _unpack(R, len(rem), w)[:n]])
        # the remainder stays raw; only each quotient term is reduced
        for k in range(dq, -1, -1):
            c = F.reduce(rem[k + n] * inv_lc)
            if not F.is_zero(c):
                quo[k] = c
                for j, d in enumerate(dv):
                    rem[k + j] -= c * d
        return UniPoly(F, quo), UniPoly(F, [F.reduce(c) for c in rem[:n]])

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
            out[e] = F.reduce(out[e] + c) if e in out else c
        return MultiPoly(F, self.arity, out)

    def __neg__(self) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.arity, {e: F.reduce(-c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = F.reduce(out[e] - c) if e in out else F.reduce(-c)
        return MultiPoly(F, self.arity, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        F = self.field
        if not self.terms or not other.terms:
            return MultiPoly.zero(F, self.arity)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, F.zero) + c1 * c2
        return MultiPoly(F, self.arity, {e: F.reduce(c) for e, c in out.items()})

    def scale(self, c) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.arity, {e: F.reduce(c * v) for e, v in self.terms.items()})

    def __rmul__(self, n: int) -> "MultiPoly":
        """n * self for an int n: every ring is a ZZ-module (transvectant weights)."""
        return self.scale(n) if isinstance(n, int) else NotImplemented

    def derivative(self, var: int) -> "MultiPoly":
        F = self.field
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                ne = list(e)
                ne[var] = k - 1
                out[tuple(ne)] = F.reduce(F.from_int(k) * c)
        return MultiPoly(F, self.arity, out)

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


def powers(ring: Ring, x, n: int) -> list:
    """[x**0, x**1, ..., x**n] over ``ring``, each reduced."""
    out = [ring.one]
    for _ in range(n):
        out.append(ring.reduce(out[-1] * x))
    return out


def line_restriction(terms: Mapping[tuple, object], v: int):
    """The restriction of a ternary form to the line x_v = a x_o1 + b x_o2.

    ``terms`` maps the exponent triples of a form of degree d to its
    coefficients; o1 < o2 are the two variables other than v.  The term
    c x_o1^i x_o2^j x_v^k becomes the sum over r of
    C(k, r) c a^r b^(k-r) x_o1^(i+r) x_o2^(j+k-r), so the table of
    (j + k - r, C(k, r) c, r, k - r) is built once, here.  The returned
    function takes power tables (a^0 .. a^d) and (b^0 .. b^d) and gives the
    d + 1 coefficients, ascending in the degree of x_o2, as raw sums of the
    values' own ``+`` and ``*``: the caller reduces each coefficient once.
    The power tables may be of any ring the coefficients multiply into (or
    scaled, e.g. homogeneous in a common denominator).
    """
    _, o2 = (o for o in range(3) if o != v)
    d = max((sum(e) for e in terms), default=0)
    entries = []
    for e, c in terms.items():
        k = e[v]
        for r in range(k + 1):
            entries.append((e[o2] + k - r, comb(k, r) * c, r, k - r))

    def restrict(ap: Sequence, bp: Sequence) -> list:
        out = [0 * ap[0]] * (d + 1)  # 0 for numbers, the ring's zero otherwise
        for idx, c, ra, rb in entries:
            out[idx] += c * ap[ra] * bp[rb]
        return out

    return restrict


class PolynomialRing(Ring):
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

    def from_int(self, n):
        return MultiPoly.constant(self.field, self.arity, self.field.from_int(n))

    def from_fraction(self, q: Fraction):
        return MultiPoly.constant(self.field, self.arity, self.field.from_fraction(q))

    def is_zero(self, a):
        return a.is_zero()

    def variable(self, idx: int) -> MultiPoly:
        return MultiPoly.variable(self.field, self.arity, idx)

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, arity={self.arity})"


def interpolate(values: Sequence[int], field: PrimeField) -> UniPoly:
    """The polynomial of degree < n = ``len(values)`` taking ``values[i]`` at i.

    GF(p) only, on the nodes 0, 1, ..., n - 1, which must stay distinct mod
    p (n <= p).  Lagrange form over a subproduct tree (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, sections 10.1-10.3): with M =
    prod_i (x - i) the result is sum_i v_i / M'(i) * M / (x - i), where
    1/M'(i) = (-1)**(n - 1 - i) / (i! (n - 1 - i)!).  The weighted values
    are the leaves and are combined up the tree, a node's value being f_left
    * M_right + f_right * M_left, where M is the product of the node's
    factors x - i; an odd last node moves up unchanged.  Every polynomial is
    one packed int in the slots of ``_consecutive_nodes(p, n)``, which
    caches the tree: a node costs two bigint products and one add, and one
    SWAR Barrett step brings each of its slots back to [0, 2p).  The root
    is unpacked once.
    """
    if not isinstance(field, PrimeField):
        raise ValueError(f"interpolation runs over a prime field, not {field!r}")
    p = field.p
    n = len(values)
    if not n:
        return UniPoly.zero(field)
    if n > p:
        raise ValueError(f"{n} values need the nodes 0..{n - 1}, which repeat mod {p}")
    levels, weights, (s, m, w, mask) = _consecutive_nodes(p, n)
    sums = [v * c % p for v, c in zip(values, weights)]
    for level in levels:
        up = []
        for i in range(0, len(sums) - 1, 2):
            f = sums[i] * level[i + 1] + sums[i + 1] * level[i]
            up.append(f - p * ((f * m >> s) & mask))
        if len(sums) % 2:
            up.append(sums[-1])
        sums = up
    return UniPoly(field, [c % p for c in _unpack(sums[0], n, w)])


@functools.lru_cache(maxsize=16)
def _consecutive_nodes(p: int, n: int) -> tuple[tuple, tuple, tuple]:
    """(levels, weights, (s, m, w, mask)) of ``interpolate`` on the nodes 0,
    ..., n - 1 over GF(p), as tuples, since every caller shares them.
    Sixteen entries hold the certificate's three node counts (46, 34, 33)
    at four primes.

    ``levels[k]`` holds the products of 2**k consecutive factors x - i, an
    odd last node moving up unchanged, from the leaves x - i up to the
    root's two children; each is packed in w-bit slots with residues in
    [0, p).  The weights are 1/M'(i) = (-1)**(n - 1 - i) / (i! (n - 1 -
    i)!), from one inverse of (n - 1)!.

    (s, m, w) is ``_barrett_constants`` of n (2p - 1)(p - 1), and the mask
    covers n slots.  That bounds every slot ``interpolate`` forms: a node
    over a left subtree of a leaves and a right one of b <= a leaves adds
    f_left (a slots) times M_right (b + 1 slots) to f_right (b slots) times
    M_left (a + 1 slots), so a slot takes min(a, b + 1) + min(b, a + 1) <=
    a + b <= n products of a value slot below 2p (a leaf is below p) and a
    tree slot below p.  A product of two tree nodes, whose slots are
    reduced here, takes at most (n / 2 + 1)(p - 1)**2 < 2**w.
    """
    s, m, w = _barrett_constants(p, n * (2 * p - 1) * (p - 1))
    fact = [1] * n
    for i in range(1, n):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * n
    inv_fact[-1] = pow(fact[-1], -1, p)
    for i in range(n - 1, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    weights = tuple((-1) ** (n - 1 - i) * inv_fact[i] * inv_fact[n - 1 - i] % p for i in range(n))
    levels = [tuple((1 << w) + -i % p for i in range(n))]
    while len(levels[-1]) > 2:
        level, up = levels[-1], []
        for i in range(0, len(level) - 1, 2):
            node = level[i] * level[i + 1]
            up.append(_pack([c % p for c in _unpack(node, -(-node.bit_length() // w), w)], w))
        if len(level) % 2:
            up.append(level[-1])
        levels.append(tuple(up))
    return tuple(levels), weights, (s, m, w, _barrett_mask(s, n, w))


def interpolate_bivariate(values: Sequence[Sequence], field: PrimeField) -> MultiPoly:
    """Polynomial of total degree <= n through samples on a principal lattice.

    GF(p) only.  ``values[i][j]`` is the value at the node (i, j) for i + j
    <= n, so row i has n + 1 - i entries; the lattice is unisolvent for
    total degree <= n.  Newton form on that lower set: divided differences
    in the first variable down each column, then in the second along each
    row, then expansion to monomials.  On the nodes 0..n a difference of
    order k divides by k, so one list of the inverses of 1..n serves every
    level.  The coefficient of N_i(x) M_j(y) uses only nodes with indices
    <= (i, j), all inside the lattice.  A polynomial of higher total degree
    is not seen: the result matches it on the lattice only.

    The package builds its fiber system exactly (``fiber_counting``), so
    this is the tests' lattice reference for it.  It stays here only
    because the benchmark's tracer wraps it by this name; it can move to
    the tests once the tracer reads spans from inside the package.
    """
    if not isinstance(field, PrimeField):
        raise ValueError(f"interpolation runs over a prime field, not {field!r}")
    p = field.p
    n = len(values) - 1
    if [len(row) for row in values] != list(range(n + 1, 0, -1)):
        raise ValueError("values must fill the lattice i + j <= n of the nodes")
    inv = [0] + [pow(k, -1, p) for k in range(1, n + 1)]
    dd = [list(row) for row in values]
    for j in range(n + 1):
        column = [dd[i][j] for i in range(n + 1 - j)]
        _divided_differences(column, inv, p)
        for i, c in enumerate(column):
            dd[i][j] = c
    # row i: the polynomial in y multiplying N_i(x), in monomials
    rows = []
    for row in dd:
        _divided_differences(row, inv, p)
        rows.append(_newton_to_monomial(row, p))
    terms = {}
    for k in range(n + 1):
        in_x = _newton_to_monomial([rows[i][k] for i in range(n + 1 - k)], p)
        for d, c in enumerate(in_x):
            if c:
                terms[(d, k)] = c
    return MultiPoly(field, 2, terms)


def _divided_differences(dd: list, inv: Sequence[int], p: int) -> None:
    """Replace the values ``dd[i]`` at the nodes i by f[0, ..., i], in place;
    ``inv[k]`` is 1/k mod p, the divisor of a difference of order k."""
    n = len(dd)
    for level in range(1, n):
        inv_level = inv[level]
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv_level % p


def _newton_to_monomial(dd: Sequence[int], p: int) -> list[int]:
    """Monomial coefficients of sum_i dd[i] * x (x - 1) ... (x - i + 1), by Horner."""
    if not dd:
        return []
    q = [dd[-1] % p]
    for k in range(len(dd) - 2, -1, -1):
        # q <- q * (x - k) + dd[k]
        q.append(q[-1])
        for j in range(len(q) - 2, 0, -1):
            q[j] = (q[j - 1] - k * q[j]) % p
        q[0] = (dd[k] - k * q[0]) % p
    return q
