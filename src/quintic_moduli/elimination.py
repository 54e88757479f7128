"""Resultants, gcds and squarefree decomposition for exact polynomials.

Sign convention, used by every caller in the package:

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f

which equals the determinant of the Sylvester matrix built with f's
coefficient rows first.  Consequences: Res(x-a, x-b) = b-a, and
Res(f, g) = (-1)**(deg f * deg g) * Res(g, f).

Resultants are computed by a Euclidean remainder scheme (never by root
finding).  The bivariate eliminant is computed over GF(p) only, by
specialising one variable at enough sample points and interpolating,
which is how the degree-600 eliminant of the fiber system stays
tractable.  It is the Sylvester determinant at the inputs' formal degrees
in the eliminated variable.  When f's lead there is a nonzero constant c
(G1's b**20 coefficient in the fiber system, the framed curve's z**5 one
in the genericity certificate), g is first replaced by r = g mod f, one
packed ``UniPoly.divmod`` on Kronecker images, and the eliminant of (f, r)
is scaled once by c**(deg g - deg r): the longest division of every
sample is done once.  The samples are the nodes 0, 1, ..., deg f * deg g
in total degrees, none skipped: where a lead vanishes the sample's
resultant is corrected by the formal-degree rule, so the interpolation
runs on consecutive nodes with ``interpolate``'s cached tree.  Each
input's coefficients of x_keep**k are packed once (``polys._pack``), so a
sample's slices are one sum of small-times-packed products.

Over every GF(p) the Euclidean remainder sequence runs on packed ints
from its first division to its last in one loop (``_lazy_sequence``), for
the sample resultants and for ``gcd_uni`` (Yun's gcd(f, f') at degree
600).  Slots are reduced lazily: each division reads its quotient terms
off the top slot and adds (p - c) times the shifted divisor, and then one
SWAR Barrett step (Barrett, CRYPTO '86) brings every slot of the remainder
back to [0, 2p) at once: a - p * ((a * m >> s) & mask), m = floor(2**s /
p), the mask keeping the low w - s bits of each w-bit slot.  Only the top
slot is reduced to a canonical residue; it gives the next quotient terms,
the degree test and the leading-coefficient powers.  A sample's slices
enter after the same Barrett step, still packed.  ``_lazy_constants``
bounds the products a slot may take between two steps, and takes the
slot width w, the least multiple of 64 where that bound is at least 1:
64 for every p up to 1482910, 128 at 2**31 - 1, 192 at 2**61 - 1.  The
same cache holds, for primes below 2**16, a table of their inverses for
the leads; the Barrett masks are cached by their slot count and width.
"""

from __future__ import annotations

import functools

from .polys import MultiPoly, UniPoly, _pack, _slot_width, _unpack, interpolate
from .scalars import PrimeField


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) is the zero polynomial.

    Over GF(p) the remainder sequence of nonzero operands runs packed
    (``_lazy_sequence``) to the gcd; the plain loop serves QQ and the
    residue rings.
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
    """(d, s): the monic gcd d of f and g, and s with s*f = d mod g.

    The extended Euclid loop carrying s only; ``ResidueRing.inv`` needs s
    alone.
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in xgcd")
    F = f.field
    r0, r1 = f, g
    s0, s1 = UniPoly.constant(F, F.one), UniPoly.zero(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.is_zero():
        return r0, s0
    inv = F.inv(r0.lc)
    return r0.scale(inv), s0.scale(inv)


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


#: Primes below this get a table of all their inverses in ``_lazy_constants``
#: (at most 65536 entries); a larger prime inverts with ``pow``.
_INVERSE_TABLE_LIMIT = 1 << 16


@functools.cache
def _lazy_constants(p: int) -> tuple[int, int, int, tuple | None, int]:
    """(s, m, limit, inverses, w) of the lazily reduced packed remainder
    over GF(p), in slots of w bits.

    m = floor(2**s / p) is the Barrett multiplier, and limit the most
    products (p - c) * b_j, each below (p - 1)(2p - 1), a slot may take
    between two Barrett steps: from a slot below 2p, every slot x stays
    below 2**s and x * m below 2**w, the two bounds the SWAR Barrett step
    needs.  w is the least of 64, 128, ... where some s < w gives limit >=
    1 (64 for every p up to 1482910): the ``_slot_width`` of top * m for
    top = 2p - 1 + (p - 1)(2p - 1), a slot after one product, and the least
    s with top < 2**s, which makes m smallest.  s is then the one making
    limit largest in w bits.
    ``inverses[c]`` is 1/c mod p (None from ``_INVERSE_TABLE_LIMIT`` on),
    from inv(i) = -(p // i) inv(p mod i), for the leads of the remainder
    sequence.  Keyed by the prime, so one entry per prime.
    """
    span = (p - 1) * (2 * p - 1)
    top = 2 * p - 1 + span  # a slot below 2p after one product
    w = _slot_width(top * ((1 << top.bit_length()) // p))
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


@functools.lru_cache(maxsize=64)
def _barrett_mask(s: int, length: int, w: int) -> int:
    """``length`` slots of w bits, each holding w - s one bits: the per-slot
    quotients of x * m >> s.

    Cached by (s, length, w), so the prime's shift and width and the slot
    count."""
    return ((1 << w * length) - 1) // ((1 << w) - 1) * ((1 << (w - s)) - 1)


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
    and returns (a, na, b, nb, lb, acc, negate): the last pair, b's top
    slot, and the product and sign of the resultant's remainder scheme.
    """
    s, m, limit, inverses, w = _lazy_constants(p)
    slot, mask = (1 << w) - 1, _barrett_mask(s, max(na, nb) - 1, w)
    lb = (b >> w * (nb - 1)) % p
    acc = 1
    negate = False
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
            return b, nb, 0, 0, 0, acc, negate
        if ((na - 1) * (nb - 1)) & 1:
            negate = not negate
        acc = acc * pow(lb, na - n, p) % p
        a, na, b, nb, lb = b, nb, a, n, top
    return a, na, b, nb, lb, acc, negate


def _resultant_modp(a: int, b: int, p: int) -> int:
    """Res(a, b) over GF(p): the hot path of the fiber eliminant.

    ``a`` and ``b`` are packed ints in the w-bit slots of
    ``_lazy_constants(p)``, every slot in [0, 2p) and the top slot nonzero
    mod p, and their remainder sequence runs packed to its end
    (``_lazy_sequence``).  A zero operand gives 0: the callers' other
    operand is never a nonzero constant then.
    """
    if not a or not b:
        return 0
    w = _lazy_constants(p)[4]
    na, nb = (a.bit_length() + w - 1) // w, (b.bit_length() + w - 1) // w
    _, na, _, nb, lb, acc, negate = _lazy_sequence(a, na, b, nb, p)
    if not nb:
        return 0
    acc = acc * pow(lb, na - 1, p) % p
    return (p - acc) % p if negate and acc else acc


def _specialise(poly: MultiPoly, keep: int, elim: int, w: int) -> list[tuple[int, int]]:
    """Pairs (k, column): the coefficients of x_keep**k ascending in the
    eliminated variable, packed in w-bit slots (``polys._pack``)."""
    length = poly.degree_in(elim) + 1
    columns: dict[int, list] = {}
    for e, c in poly.terms.items():
        columns.setdefault(e[keep], [0] * length)[e[elim]] = c
    return [(k, _pack(column, w)) for k, column in columns.items()]


def _eval_slices(columns: list, powers, p: int, lazy) -> int:
    """Specialised univariate coefficients mod p (ascending in the eliminated
    var), packed as ``_resultant_modp`` takes them.

    ``lazy`` is (m, s, mask, group): a sample's slices are sum_k powers[k] *
    column_k, ``group`` columns at a time, each group followed by a
    Barrett step, so every slot ends in [0, 2p).
    """
    m, s, mask, group = lazy
    acc = 0
    for i in range(0, len(columns), group):
        acc = sum((powers[k] * column for k, column in columns[i : i + group]), acc)
        acc -= p * ((acc * m >> s) & mask)
    return acc


def _trim(c: int, n: int, p: int, w: int) -> tuple[int, int, int]:
    """(c, d, lead): packed slices of formal degree n, in w-bit slots, with
    their top zero residues dropped (a top slot may read p), d the number
    dropped (n + 1 for the zero polynomial) and lead the top residue left
    (0 for the zero polynomial)."""
    for k in range(n, -1, -1):
        lead = (c >> w * k) % p
        if lead:
            return c, n - k, lead
        c &= (1 << w * k) - 1
    return 0, n + 1, 0


def _sample_resultant(fc: int, df: int, gc: int, dg: int, p: int) -> int:
    """Res of a sample's slices at their formal degrees df and dg.

    One ``_resultant_modp`` call on the slices with any vanished leads
    dropped, corrected by the formal-degree rule of the Sylvester
    determinant: g's lead dropping by d multiplies by lc(f)**d, f's lead
    dropping by d by (-1)**(d * dg) * lc(g)**d, and both vanishing make
    the determinant 0 (its first column is zero).
    """
    w = _lazy_constants(p)[4]
    fc, f_drop, f_lead = _trim(fc, df, p, w)
    gc, g_drop, g_lead = _trim(gc, dg, p, w)
    value = _resultant_modp(fc, gc, p)
    if f_drop and g_drop:
        return 0
    if g_drop:
        return value * pow(f_lead, g_drop, p) % p
    if f_drop:
        value = value * pow(g_lead, f_drop, p) % p
        return (p - value) % p if f_drop * dg & 1 else value
    return value


def _reduce_by_constant_lead(g: MultiPoly, f: MultiPoly, elim: int) -> MultiPoly:
    """g mod f in the eliminated variable, f's lead there a nonzero constant.

    One packed ``UniPoly.divmod`` on Kronecker images, x_elim**i x_keep**j
    -> t**(i W + j), exact when no term of the division carries into the
    next block of W.  Where f's coefficient of x_elim**i has keep-degree at
    most w (m - i), m = deg_elim f, every term of the quotient, of q * f
    (before any cancellation) and of each remainder has keep-degree plus w
    times elim-degree at most the largest such weight among g's terms, so W
    one more than that weight suffices; the keep-degree may exceed the
    inputs' (x + s**2 reduces x**3 to -s**6).
    """
    F, keep = f.field, 1 - elim
    m = f.degree_in(elim)
    w = max((-(-e[keep] // (m - e[elim])) for e in f.terms if e[elim] < m), default=0)
    width = 1 + max(e[keep] + w * e[elim] for e in g.terms)

    def image(poly: MultiPoly) -> UniPoly:
        coeffs = [0] * (width * (poly.degree_in(elim) + 1))
        for e, c in poly.terms.items():
            coeffs[e[elim] * width + e[keep]] = c
        return UniPoly(F, coeffs)

    terms = {}
    for k, c in enumerate((image(g) % image(f)).coeffs):
        if c:
            e = [0, 0]
            e[elim], e[keep] = divmod(k, width)
            terms[tuple(e)] = c
    return MultiPoly(F, 2, terms)


def resultant_bivar_elim(f: MultiPoly, g: MultiPoly, eliminated_var: int) -> UniPoly:
    """Eliminate one variable from a bivariate pair by sampling + interpolation.

    GF(p) only.  The result is Res(f, g) in the eliminated variable at the
    formal degrees deg_elim f and deg_elim g (the Sylvester determinant),
    a polynomial of degree at most deg(f)*deg(g) in total degrees.

    When f's lead in the eliminated variable is a nonzero constant c, g is
    first replaced by r = g mod f (``_reduce_by_constant_lead``), and the
    result is c**(deg g - deg r) * Res(f, r), or 0 when r is.  The kept
    variable is then
    sampled at 0, 1, ..., deg(f)*deg(g): each sample is one univariate
    resultant, corrected by the formal-degree rule where a lead vanishes
    there (``_sample_resultant``), and the samples are interpolated on
    those consecutive nodes.
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in elimination")
    F = f.field
    if not isinstance(F, PrimeField):
        raise ValueError(f"bivariate elimination runs over a prime field, not {F!r}")
    if f.arity != 2 or g.arity != 2:
        raise ValueError("bivariate elimination requires arity-2 polynomials")
    if eliminated_var not in (0, 1):
        raise ValueError("eliminated_var must be 0 or 1")
    if f.is_zero() or g.is_zero():
        raise ValueError("elimination of a zero polynomial")
    p = F.p
    keep = 1 - eliminated_var
    df_e = f.degree_in(eliminated_var)
    dg_e = g.degree_in(eliminated_var)
    if df_e <= 0 or dg_e <= 0:
        raise ValueError("both inputs must involve the eliminated variable")
    bound = int(f.total_degree) * int(g.total_degree)
    if p <= bound:
        raise ValueError(f"field GF({p}) too small for {bound + 1} interpolation samples")

    scale = 1
    lead = [(e[keep], c) for e, c in f.terms.items() if e[eliminated_var] == df_e]
    if len(lead) == 1 and lead[0][0] == 0 and dg_e >= df_e:
        g = _reduce_by_constant_lead(g, f, eliminated_var)
        if g.is_zero():
            return UniPoly.zero(F)
        scale = pow(lead[0][1], dg_e - g.degree_in(eliminated_var), p)
        dg_e = g.degree_in(eliminated_var)

    max_keep = max(f.degree_in(keep), g.degree_in(keep))
    # a slice slot takes a product below (p - 1)**2 per column, so a group
    # of columns adds no more than limit products (p - c) * b_j
    shift, m, limit, _, w = _lazy_constants(p)
    group = limit * (2 * p - 1) // (p - 1)
    lazy = (m, shift, _barrett_mask(shift, max(df_e, dg_e) + 1, w), group)
    f_columns = _specialise(f, keep, eliminated_var, w)
    g_columns = _specialise(g, keep, eliminated_var, w)

    samples = []
    for s in range(bound + 1):
        powers = [1]
        for _ in range(max_keep):
            powers.append(powers[-1] * s % p)
        fc = _eval_slices(f_columns, powers, p, lazy)
        gc = _eval_slices(g_columns, powers, p, lazy)
        samples.append(_sample_resultant(fc, df_e, gc, dg_e, p))
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
