"""Resultants, gcds and squarefree decomposition for exact polynomials.

Sign convention, used by every caller in the package:

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f

which equals the determinant of the Sylvester matrix built with f's
coefficient rows first.  Consequences: Res(x-a, x-b) = b-a, and
Res(f, g) = (-1)**(deg f * deg g) * Res(g, f).

Resultants are computed by a Euclidean remainder scheme (never by root
finding).  The bivariate eliminant Res_y(f, g) of two polynomials in (x,
y) is computed over GF(p) only, by specialising x at enough sample points
and interpolating, which is how the degree-600 eliminant of the fiber
system stays tractable; y, the second variable, is the one eliminated at
every call.  It is the Sylvester determinant at the inputs' formal degrees
in y, and f's lead there must be a nonzero constant c (G1's b**20
coefficient in the fiber system, the framed curve's z**5 one in the
genericity certificate): a caller whose random frame gives another lead
redraws the frame.  Where deg_y g >= deg_y f, g is first replaced by r = g
mod f, one packed ``UniPoly.divmod`` on Kronecker images, and the
eliminant of (f, r) is scaled once by c**(deg g - deg r): the longest
division of every sample is done once.  The samples are the nodes 0, 1,
..., deg f * deg g in total degrees, none skipped: where g's lead vanishes
the sample's resultant is scaled by the formal-degree rule, a power of c,
so the interpolation runs on consecutive nodes with ``interpolate``'s
cached tree.  The slices of all the samples are evaluated in one
transposed pass per input (``_eval_slices``; von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 10): the values of the coefficient of y**j
at every node form one packed row, a sum of small-times-packed products
with cached rows of node powers, and the rows are transposed into one
packed slice per node, streamed into the sample resultants.

Over every GF(p) the Euclidean remainder sequence runs on packed ints
from its first division to its last in one loop (``_lazy_sequence``), for
the sample resultants and for ``gcd_uni`` (the fiber oracle's gcd(Q, Q')
at degree 420); ``_gcd_cofactor``, the extended Euclid of ``ResidueRing.inv``,
repeats that loop with the cofactor carried along in the same slots (a
cofactor switch inside ``_lazy_sequence`` would slow the eliminant).
Slots are reduced lazily: each division reads its quotient terms off the top
slot and adds (p - c) times the shifted divisor, and then one SWAR
Barrett step (Barrett, CRYPTO '86) brings every slot of the remainder
back to [0, 2p) at once: a - p * ((a * m >> s) & mask), m = floor(2**s /
p), the mask keeping the low w - s bits of each w-bit slot.  Only the top
slot is reduced to a canonical residue; it gives the next quotient terms,
the degree test and the leading-coefficient powers.  A sample's slices
enter after the same Barrett step, still packed.  The Barrett constants
come from :mod:`.polys`, the one home of the SWAR Barrett step (and are
importable from here too): ``_lazy_constants`` bounds the products a slot
may take between two steps, and takes the slot width w, the least
multiple of 64 where that bound is at least 1: 64 for every p up to
1482910, 128 at 2**31 - 1, 192 at 2**61 - 1.  The same cache holds, for
primes below 2**16, a table of their inverses for the leads; the Barrett
masks (``_barrett_mask``) are cached by their slot count and width.

The genericity certificate also needs the first subresultant S1 = s1 x +
s0 of each sample pair, and reads it off the end of the same remainder
sequence (``resultant_bivar_elim`` with ``subresultant``; von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6).  For remainders r_0 = f, r_1 =
g, ... of degrees n_i and leads l_i, where the last one before the
constant has degree n_k = 1,

    S1 = eps * prod_{i<k} l_i**(n_{i-1} - n_{i+1}) * l_k**(n_{k-1} - 2) * r_k,
    eps = (-1)**(sum_{i<k} (n_{i-1} - 1)(n_i - 1)),

which is the resultant's running product of lead powers divided by
l_k**2; s1 = 0 where n_k = 2, and S1 = 0 where n_k >= 3.  The sign needs
the parity of the number of divisions besides the resultant's own, so the
loop keeps both bits in one int, one xor per division, and a zero
remainder ends it as a constant 0 would (the gcd is then r_k).
"""

from __future__ import annotations

import functools
from array import array

from .polys import (
    MultiPoly,
    UniPoly,
    _barrett_mask,
    _lazy_constants,
    _pack,
    _unpack,
    interpolate,
)
from .scalars import PrimeField


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) is the zero polynomial.

    Over GF(p) the remainder sequence of nonzero operands runs packed
    (``_lazy_sequence``) to the gcd; the plain loop serves zero operands
    and every other field (QQ in the package).
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in gcd")
    F = f.field
    if isinstance(F, PrimeField) and f.coeffs and g.coeffs:
        p, w = F.p, _lazy_constants(F.p)[4]
        packed_f, packed_g = _pack(f.coeffs, w), _pack(g.coeffs, w)
        a, na, _, nb, *_ = _lazy_sequence(packed_f, len(f.coeffs), packed_g, len(g.coeffs), p)
        if nb:  # a nonzero constant remainder
            return UniPoly.constant(F, F.one)
        return UniPoly(F, [c % p for c in _unpack(a, na, w)]).monic()
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def _gcd_cofactor(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(d, s): the monic gcd d of f and g over GF(p), and s with s*f = d mod g.

    The extended Euclid carrying s only (``ResidueRing.inv`` needs s
    alone), packed in the w-bit slots of ``_lazy_constants(p)``.  The
    remainder runs exactly as in ``_lazy_sequence``; the cofactor s_a of
    the dividend goes along, each quotient term c adding (p - c) * s_b << w
    k, and takes its own SWAR Barrett steps: after each division, and
    part-way where both the quotient and s_b pass ``limit`` terms.  Its
    slots stay in [0, 2p), and it has at most deg g + 1 of them.  Zero and
    constant operands give what the textbook loop gives: g = 0 gives (f
    monic, 1/lc f), f = 0 gives (g monic, 0), a nonzero constant g gives
    (1, 0) and f = g = 0 gives (0, 1).
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in xgcd")
    F = f.field
    if not isinstance(F, PrimeField):
        raise ValueError(f"the cofactor gcd runs over a prime field, not {F!r}")
    p = F.p
    s, m, limit, inverses, w = _lazy_constants(p)
    na, nb = len(f.coeffs), len(g.coeffs)
    slot, mask = (1 << w) - 1, _barrett_mask(s, max(na, nb), w)
    a, b = _pack(f.coeffs, w), _pack(g.coeffs, w)
    sa, sb = 1, 0
    lb = g.coeffs[-1] if nb else 0
    while nb > 1:
        n = nb - 1
        ns = (sb.bit_length() + w - 1) // w
        inv = inverses[lb] if inverses else pow(lb, -1, p)
        for k in range(na - nb, -1, -1):
            c = (a >> w * (k + n) & slot) * inv % p
            if c:
                a += (p - c) * b << w * k
                sa += (p - c) * sb << w * k
            if k and not k % limit:
                if n > limit:
                    a &= (1 << w * (k + n)) - 1
                    a -= p * ((a * m >> s) & mask)
                if ns > limit:
                    sa -= p * ((sa * m >> s) & mask)
        a &= (1 << w * n) - 1
        a -= p * ((a * m >> s) & mask)
        sa -= p * ((sa * m >> s) & mask)
        while n:
            top = a >> w * (n - 1)
            if top >= p:
                top -= p
                a -= p << w * (n - 1)
            if top:
                break
            n -= 1
        a, na, sa, b, nb, sb, lb = b, nb, sb, a, n, sa, top
    if nb:  # a nonzero constant remainder, the last one
        a, na, sa = b, nb, sb
    if not na:
        return f, UniPoly.constant(F, F.one)
    lead = (a >> w * (na - 1)) % p
    inv = inverses[lead] if inverses else pow(lead, -1, p)
    ns = (sa.bit_length() + w - 1) // w
    return (
        UniPoly(F, [c * inv % p for c in _unpack(a, na, w)]),
        UniPoly(F, [c * inv % p for c in _unpack(sa, ns, w)]),
    )


def resultant_uni(f: UniPoly, g: UniPoly):
    """Sylvester resultant of two nonzero univariate polynomials, by the
    Euclidean remainder scheme in any field.

    Each division a = q b + r multiplies by lc(b)**(deg a - deg r) and
    flips the sign when deg a * deg b is odd; a zero remainder gives 0 and
    a constant b ends the scheme with b**deg a.
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in resultant")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    F = f.field
    acc = F.one
    negate = False
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return F.zero
        da, db, dr = a.degree, b.degree, r.degree
        if (da * db) & 1:
            negate = not negate
        acc = F.reduce(acc * F.pow(b.lc, da - dr))
        a, b = b, r
    acc = acc * F.pow(b.coeffs[0], a.degree)
    return F.reduce(-acc if negate else acc)


def _lazy_sequence(a: int, na: int, b: int, nb: int, p: int):
    """The remainder sequence of a and b over GF(p), packed in the w-bit
    slots of ``_lazy_constants(p)``, slots in [0, 2p).

    ``na``/``nb`` count the slots up to the top one, which is nonzero mod
    p.  Each division, one pass of the loop, reads each quotient term off
    the top slot (reduced mod p) and adds (p - c) * b << w k; then the low
    nb - 1 slots are kept and one SWAR Barrett step, a - p * ((a * m >> s)
    & mask), brings every slot back to [0, 2p) at once.  Term k adds to
    slots k..k + nb - 1 and its product zeroes slot k + nb - 1, which is
    not read again, so a slot still read or kept takes min(quotient terms,
    nb - 1) products at most; only where both pass ``limit`` does a step
    also run, over the slots still in play, after each term k divisible by
    limit.  Only the top slot of a remainder is reduced to a canonical
    residue.  The mask is sized once for the most slots in play.

    Runs until b is a constant (nb = 1) or a remainder vanishes (nb = 0),
    and returns (a, na, b, nb, lb, acc, flips): the last pair, b's top
    slot, the product of the resultant's remainder scheme and two parity
    bits, bit 0 its sign and bit 1 the parity of the number of divisions
    (the first subresultant's sign needs both, ``_resultant_modp``).  A
    zero remainder ends the sequence as a constant 0 would: its division
    takes its sign flip and its lead power lb**(deg a), so the returned a
    is the gcd and acc and flips read as at a constant end.
    """
    s, m, limit, inverses, w = _lazy_constants(p)
    slot, mask = (1 << w) - 1, _barrett_mask(s, max(na, nb) - 1, w)
    lb = (b >> w * (nb - 1)) % p
    acc = 1
    flips = 0
    while nb > 1:
        n = nb - 1
        inv = inverses[lb] if inverses else pow(lb, -1, p)
        for k in range(na - nb, -1, -1):
            c = (a >> w * (k + n) & slot) * inv % p
            if c:
                a += (p - c) * b << w * k
            if n > limit and k and not k % limit:
                a &= (1 << w * (k + n)) - 1
                a -= p * ((a * m >> s) & mask)
        a &= (1 << w * n) - 1
        a -= p * ((a * m >> s) & mask)
        while n:
            top = a >> w * (n - 1)
            if top >= p:
                top -= p
                a -= p << w * (n - 1)
            if top:
                break
            n -= 1
        else:  # no slot left: a zero remainder
            flips ^= 3 ^ (na | nb) & 1
            return b, nb, 0, 0, 0, acc * pow(lb, na - 1, p) % p, flips
        # bit 0 flips when deg a * deg b = (na - 1)(nb - 1) is odd, that is
        # when na and nb are both even; bit 1 flips at every division
        flips ^= 3 ^ (na | nb) & 1
        acc = acc * pow(lb, na - n, p) % p
        a, na, b, nb, lb = b, nb, a, n, top
    return a, na, b, nb, lb, acc, flips


def _resultant_modp(a: int, b: int, p: int, *, subresultant: bool = False):
    """Res(a, b) over GF(p): the hot path of the fiber eliminant.

    ``a`` and ``b`` are packed ints in the w-bit slots of
    ``_lazy_constants(p)``, every slot in [0, 2p) and the top slot nonzero
    mod p, and their remainder sequence runs packed to its end
    (``_lazy_sequence``).  A zero operand gives 0: the callers' other
    operand is never a nonzero constant then.

    With ``subresultant`` (deg a >= 2, deg a > deg b) it returns (Res(a, b),
    s0, s1), read off the end of the same sequence by the subresultant
    theorem (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6):
    let r_k, of degree n_k and lead l_k, be the last remainder before the
    constant (or zero) one c, acc the product of lead powers of the
    resultant's scheme, so that acc / l_k**2 = prod_{i<k} l_i**(n_{i-1} -
    n_{i+1}) * l_k**(n_{k-1} - 2) for the degrees n_i and leads l_i of the
    remainders r_i (r_0 = a, r_1 = b), and sigma = (-1)**(P + K + n_0 +
    n_k), P the resultant's sign parity and K the number of divisions.
    Then s1 x + s0 is

        sigma * acc / l_k**2 * r_k    if n_k = 1,
        sigma * acc / l_k * c         if n_k = 2,
        0                             if n_k >= 3,

    and at n_k = 1 sigma is (-1)**(sum_{i<k} (n_{i-1} - 1)(n_i - 1)).  The
    first subresultant of a and b at any formal degree n >= max(deg b, 1)
    of b is lc(a)**(n - deg b) * (s1 x + s0); a zero b gives (0, 0, 0).
    """
    if not a or not b:
        return (0, 0, 0) if subresultant else 0
    w = _lazy_constants(p)[4]
    na, nb = (a.bit_length() + w - 1) // w, (b.bit_length() + w - 1) // w
    r, nr, _, nb, lb, acc, flips = _lazy_sequence(a, na, b, nb, p)
    value = acc * pow(lb, nr - 1, p) % p if nb else 0
    if flips & 1 and value:
        value = p - value
    if not subresultant:
        return value
    n = nr - 1
    if n > 2:
        return value, 0, 0
    inverses = _lazy_constants(p)[3]
    lead = (r >> w * n) % p
    inv = inverses[lead] if inverses else pow(lead, -1, p)
    scalar = acc * inv % p
    if (flips ^ flips >> 1 ^ na ^ nr) & 1:  # na - nr has the parity of n_0 + n_k
        scalar = p - scalar
    if n == 2:
        return value, scalar * lb % p, 0
    return value, scalar * inv * (r & (1 << w) - 1) % p, scalar


@functools.lru_cache(maxsize=8)
def _node_powers(p: int, n: int, count: int) -> tuple[int, ...]:
    """(N_0, ..., N_{count - 1}): N_k packs s**k mod p for the nodes s = 0,
    ..., n - 1 in the w-bit slots of ``_lazy_constants(p)``.

    Cached by (p, n, count), which is one entry per prime for the fiber
    eliminant: 31 powers of 601 nodes, about 150 KB at w = 64."""
    w = _lazy_constants(p)[4]
    column, table = [1] * n, []
    for _ in range(count):
        table.append(_pack(column, w))
        column = [c * s % p for s, c in enumerate(column)]
    return tuple(table)


def _eval_slices(poly: MultiPoly, n: int, count: int, p: int):
    """The slices of ``poly`` in (x, y) at x = s for the nodes s = 0, ...,
    n - 1: one packed int per node, ascending, its coefficients in y in the
    w-bit slots ``_resultant_modp`` takes, each in [0, 2p).

    Transposed evaluation, all nodes at once: the values of the coefficient
    of y**j at the nodes form one packed row, sum_k c_kj * N_k over the
    terms c_kj x**k y**j, with N_k from ``_node_powers(p, n, count)``.  A
    row takes one SWAR Barrett step after every ``group`` products and one
    at its end, so every slot ends in [0, 2p).  Each row
    is then written, one 64-bit word at a time, into a table of n slices
    of deg_y + 1 slots (strided ``array`` slices, k words apart at w =
    64 k); the words move unread, so the table keeps the little-endian
    order of ``polys._pack`` on any host.  The slices are read off the
    table one node at a time: the rows are gone by then, and no list of
    products or slices is held.
    """
    s, m, limit, _, w = _lazy_constants(p)
    # a slice slot takes a product below (p - 1)**2 per term, so a group of
    # terms adds no more than limit products (p - c) * b_j
    group = limit * (2 * p - 1) // (p - 1)
    mask = _barrett_mask(s, n, w)
    powers = _node_powers(p, n, count)
    rows: dict[int, list] = {}
    for (k, j), c in poly.terms.items():
        rows.setdefault(j, []).append((k, c))
    slot_words = w >> 6
    stride = slot_words * (poly.degree_in(1) + 1)  # the words of one slice
    table = array("Q", bytes(8 * n * stride))
    for j, terms in rows.items():
        row = 0
        for i in range(0, len(terms), group):
            row = sum((c * powers[k] for k, c in terms[i : i + group]), row)
            row -= p * ((row * m >> s) & mask)
        row_words = array("Q", row.to_bytes(8 * n * slot_words, "little"))
        for i in range(slot_words):
            table[j * slot_words + i :: stride] = row_words[i::slot_words]
    data, size = memoryview(table).cast("B"), 8 * stride
    for start in range(0, n * size, size):
        yield int.from_bytes(data[start : start + size], "little")


def _trim(c: int, n: int, p: int, w: int) -> tuple[int, int]:
    """(c, d): packed slices of formal degree n, in w-bit slots, with their
    top zero residues dropped (a top slot may read p), d the number dropped
    (n + 1 for the zero polynomial)."""
    for k in range(n, -1, -1):
        if (c >> w * k) % p:
            return c, n - k
        c &= (1 << w * k) - 1
    return 0, n + 1


def _sample_resultant(fc: int, gc: int, dg: int, lead: int, p: int, *, subresultant: bool = False):
    """Res of a sample's slices, f's with the nonzero constant lead ``lead``
    and g's at formal degree dg: one ``_resultant_modp`` call on the slices
    with g's vanished leads dropped, times lead**d where g's lead drops by
    d (the formal-degree rule of the Sylvester determinant).  With
    ``subresultant`` the same call also gives s0 and s1, scaled alike.
    """
    gc, drop = _trim(gc, dg, p, _lazy_constants(p)[4])
    scale = pow(lead, drop, p)
    if subresultant:
        return tuple(c * scale % p for c in _resultant_modp(fc, gc, p, subresultant=True))
    return _resultant_modp(fc, gc, p) * scale % p


def _reduce_by_constant_lead(g: MultiPoly, f: MultiPoly) -> MultiPoly:
    """g mod f in y for f, g in (x, y), f's lead in y a nonzero constant.

    One packed ``UniPoly.divmod`` on Kronecker images, y**i x**j -> t**(i W
    + j), exact when no term of the division carries into the next block of
    W.  Where f's coefficient of y**i has x-degree at most w (m - i), m =
    deg_y f, every term of the quotient, of q * f (before any cancellation)
    and of each remainder has x-degree plus w times y-degree at most the
    largest such weight among g's terms, so W one more than that weight
    suffices; the x-degree may exceed the inputs' (y + x**2 reduces y**3 to
    -x**6).
    """
    F = f.field
    m = f.degree_in(1)
    w = max((-(-j // (m - i)) for j, i in f.terms if i < m), default=0)
    width = 1 + max(j + w * i for j, i in g.terms)

    def image(poly: MultiPoly) -> UniPoly:
        coeffs = [0] * (width * (poly.degree_in(1) + 1))
        for (j, i), c in poly.terms.items():
            coeffs[i * width + j] = c
        return UniPoly(F, coeffs)

    terms = {}
    for k, c in enumerate((image(g) % image(f)).coeffs):
        if c:
            i, j = divmod(k, width)
            terms[j, i] = c
    return MultiPoly(F, 2, terms)


def resultant_bivar_elim(f: MultiPoly, g: MultiPoly, *, subresultant: bool = False):
    """Eliminate y from f and g in (x, y) by sampling + interpolation.

    GF(p) only.  The result is Res_y(f, g) at the formal degrees deg_y f
    and deg_y g (the Sylvester determinant), a polynomial in x of degree at
    most deg(f)*deg(g) in total degrees.  Every caller eliminates its
    inputs' second variable: the fiber system's b and the certificate's z.
    f's lead in y must be a nonzero constant c (else ``ValueError``: the
    callers redraw the random frame that gave another).

    Where deg_y g >= deg_y f, g is first replaced by r = g mod f
    (``_reduce_by_constant_lead``), and the result is c**(deg g - deg r) *
    Res(f, r), or 0 when r is.  x is then sampled at the n =
    deg(f)*deg(g) + 1 nodes 0, 1, ..., n - 1: the slices of each input at
    every node come from one ``_eval_slices`` call, and node by node each
    pair is one univariate resultant, scaled by c**drop where g's lead
    drops there (``_sample_resultant``).  The samples are interpolated on
    those consecutive nodes.

    ``subresultant`` asks for the first subresultant S1 = s1 z + s0 of f
    and g at the same formal degrees too, for which deg_y f >= 2.  It
    returns (eliminant, s0 values, s1 values), the values at the same n
    nodes, for the caller to interpolate.  Each node's pair comes out of
    the remainder sequence of its resultant (``_resultant_modp``): with r_k
    the last remainder before the constant one, of degree n_k = 1, S1 = eps
    * prod_{i<k} l_i**(n_{i-1} - n_{i+1}) * l_k**(n_{k-1} - 2) * r_k, eps =
    (-1)**(sum_{i<k} (n_{i-1} - 1)(n_i - 1)), for the degrees n_i and leads
    l_i of the remainders r_0 = f, r_1 = g mod f, ... (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 6); s1 = 0 where n_k = 2 and S1
    = 0 where n_k >= 3.  The pre-division scales S1 by c**(deg g - deg r)
    and a vanished lead of r at a node by c**drop, as they scale the
    resultant (cofactor expansion along f's constant lead).
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in elimination")
    F = f.field
    if not isinstance(F, PrimeField):
        raise ValueError(f"bivariate elimination runs over a prime field, not {F!r}")
    if f.arity != 2 or g.arity != 2:
        raise ValueError("bivariate elimination requires arity-2 polynomials")
    if f.is_zero() or g.is_zero():
        raise ValueError("elimination of a zero polynomial")
    p = F.p
    df_e, dg_e = f.degree_in(1), g.degree_in(1)
    if df_e <= 0 or dg_e <= 0:
        raise ValueError("both inputs must involve the eliminated variable")
    if [e for e in f.terms if e[1] == df_e] != [(0, df_e)]:
        raise ValueError("f's lead in the eliminated variable must be a nonzero constant")
    if subresultant and df_e < 2:
        raise ValueError("the first subresultant needs f of degree >= 2")
    bound = int(f.total_degree) * int(g.total_degree)
    if p <= bound:
        raise ValueError(f"field GF({p}) too small for {bound + 1} interpolation samples")
    n = bound + 1

    lead, scale = f.terms[0, df_e], 1
    if dg_e >= df_e:
        g = _reduce_by_constant_lead(g, f)
        if g.is_zero():
            return (UniPoly.zero(F), [0] * n, [0] * n) if subresultant else UniPoly.zero(F)
        scale = pow(lead, dg_e - g.degree_in(1), p)
        dg_e = g.degree_in(1)

    count = max(f.degree_in(0), g.degree_in(0)) + 1
    slices = zip(_eval_slices(f, n, count, p), _eval_slices(g, n, count, p))
    if subresultant:
        values, s0, s1 = zip(
            *(_sample_resultant(fc, gc, dg_e, lead, p, subresultant=True) for fc, gc in slices)
        )
        return (
            interpolate(values, F).scale(scale),
            [c * scale % p for c in s0],
            [c * scale % p for c in s1],
        )
    samples = [_sample_resultant(fc, gc, dg_e, lead, p) for fc, gc in slices]
    eliminant = interpolate(samples, F)
    return eliminant.scale(scale) if scale != 1 else eliminant


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition ``f = lc * prod(part**mult)`` with monic squarefree parts.

    Parts are pairwise coprime and returned with strictly increasing
    multiplicity.  Over GF(p) the characteristic must exceed every
    multiplicity present; a violation is detected by the reassembly check
    and reported, never silently mis-factored.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    F = f.field
    if f.degree == 0:
        return []
    fm = f.monic()
    fp = fm.derivative()
    if fp.is_zero():
        raise ValueError(
            "derivative vanished: characteristic divides every exponent of f"
        )
    out: list[tuple[UniPoly, int]] = []
    a = gcd_uni(fm, fp)
    w = fm // a
    y = fp // a
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        part = gcd_uni(w, z)
        if part.degree > 0:
            out.append((part, i))
        w = w // part
        y = z // part
        i += 1
        if i > f.degree + 1:
            raise ValueError("squarefree decomposition failed to terminate")
    # reassembly check: catches characteristic-divides-multiplicity failures
    acc = UniPoly.constant(F, f.lc)
    for part, mult in out:
        for _ in range(mult):
            acc = acc * part
    if acc != f:
        raise ValueError(
            "squarefree decomposition inconsistent: characteristic divides a multiplicity"
        )
    return out
