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
tractable.  Each input's coefficients of x_keep**k are packed once
(``polys._pack``), so a sample's slices are one sum of small-times-packed
products.

Over GF(p) the Euclidean remainder sequence runs on packed ints from its
first division to its last (``_lazy_remainder``), for the sample
resultants and for ``gcd_uni`` (Yun's gcd(f, f') at degree 600).  Slots
are reduced lazily: each division reads its quotient terms off the top
slot and adds (p - c) times the shifted divisor, and then one SWAR
Barrett step (Barrett, CRYPTO '86) brings every slot of the remainder
back to [0, 2p) at once: a - p * ((a * m >> s) & mask), m = floor(2**s /
p), the mask keeping the low 64 - s bits of each slot.  Only the top slot
is reduced to a canonical residue; it gives the next quotient terms, the
degree test and the leading-coefficient powers.  A sample's slices enter
after the same Barrett step, still packed.  The guard (``_lazy_constants``)
bounds the quotient length so that no slot reaches 2**s and no slot times
m reaches 2**64; a division past it, and a prime too large for any
(above about 1.5 million, so 2**31 - 1 among them), take the loops on
lists and ``UniPoly``.
"""

from __future__ import annotations

import functools

from .polys import _SLOT, MultiPoly, UniPoly, _pack, _unpack, interpolate
from .scalars import PrimeField


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) is the zero polynomial.

    Over GF(p) the remainder sequence runs packed (``_lazy_remainder``) as
    far as its guard admits; the plain loop finishes whatever is left.
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in gcd")
    F = f.field
    if isinstance(F, PrimeField) and f.coeffs and g.coeffs and _lazy_constants(F.p)[2]:
        f, g = _gcd_packed(f, g)
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def _gcd_packed(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """The remainder sequence of two nonzero polynomials over GF(p), packed,
    up to a zero remainder or the first division past the guard: returns
    that division's (dividend, divisor)."""
    F = f.field
    p = F.p
    s, m, limit = _lazy_constants(p)
    a, na, b, nb = _pack(f.coeffs), len(f.coeffs), _pack(g.coeffs), len(g.coeffs)
    mask = _barrett_mask(s, min(na, nb) - 1)
    lb = g.coeffs[-1]
    while nb and na - nb < limit:
        r, nr, lr = _lazy_remainder(a, na, b, nb, lb, p, m, s, mask)
        a, na, b, nb, lb = b, nb, r, nr, lr
    return (
        UniPoly(F, [c % p for c in _unpack(a, na)]),
        UniPoly(F, [c % p for c in _unpack(b, nb)]),
    )


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
    """Sylvester resultant of two nonzero univariate polynomials."""
    if f.field is not g.field:
        raise ValueError("field mismatch in resultant")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    F = f.field
    if isinstance(F, PrimeField):
        return _resultant_modp(list(f.coeffs), list(g.coeffs), F.p)
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


@functools.cache
def _lazy_constants(p: int) -> tuple[int, int, int]:
    """(s, m, limit) of the lazily reduced packed remainder over GF(p).

    m = floor(2**s / p) is the Barrett multiplier, and limit the longest
    quotient (in terms) a packed division may take.  A division starts
    from slots below 2p and adds at most ``limit`` products (p - c) * b_j
    below (p - 1)(2p - 1) to each slot, so every slot x stays below 2**s
    and x * m below 2**64, the two bounds the SWAR Barrett step needs.  s is
    chosen to make limit largest; limit 0 (every p above 1482910) means no
    packed division.  Keyed by the prime, so one entry per prime.
    """
    span = (p - 1) * (2 * p - 1)
    best = (0, 0, 0)
    for s in range(p.bit_length() + 1, 64):
        m = (1 << s) // p
        top = min((1 << s) - 1, ((1 << 64) - 1) // m)
        limit = max(0, (top - (2 * p - 1)) // span)
        if limit > best[2]:
            best = (s, m, limit)
    return best


def _barrett_mask(s: int, length: int) -> int:
    """``length`` slots of 64 - s one bits: the per-slot quotients of x * m >> s."""
    return ((1 << 64 * length) - 1) // _SLOT * ((1 << (64 - s)) - 1)


def _lazy_remainder(a: int, na: int, b: int, nb: int, lb: int, p: int, m: int, s: int, mask: int):
    """a mod b over GF(p) on packed ints whose slots lie in [0, 2p).

    ``na``/``nb`` count the slots up to the top one, which is nonzero mod p;
    ``lb`` is b's top slot, canonical.  Each quotient term is read off the
    top slot (reduced mod p), and (p - c) * b << 64k is added; then the low
    nb - 1 slots are kept and one SWAR Barrett step, a - p * ((a * m >> s)
    & mask), brings every slot back to [0, 2p) at once.  Returns the
    remainder, its slot count (0 for the zero remainder) and its top slot,
    the only one reduced to a canonical residue.  The caller guarantees
    na - nb < ``_lazy_constants(p)[2]``, and a ``mask`` covering the
    remainder whenever na >= nb (a shorter a is its own remainder): sized
    once per sequence for its longest remainder, min(na, nb) - 1 slots.
    """
    n = nb - 1
    inv = pow(lb, -1, p)
    for k in range(na - nb, -1, -1):
        c = (a >> 64 * (k + n) & _SLOT) * inv % p
        if c:
            a += (p - c) * b << 64 * k
    a &= (1 << 64 * n) - 1
    a -= p * ((a * m >> s) & mask)
    while n:
        top = a >> 64 * (n - 1)
        if top >= p:
            top -= p
            a -= p << 64 * (n - 1)
        if top:
            return a, n, top
        n -= 1
    return 0, 0, 0


def _resultant_modp(a, b, p: int) -> int:
    """Res(a, b) over GF(p): the hot path of the fiber eliminant.

    ``a`` and ``b`` are coefficient lists (ascending residues, top nonzero),
    or, when ``_lazy_constants(p)`` admits packing, packed ints with every
    slot in [0, 2p) and the top slot nonzero mod p.  Packed, the remainder
    sequence stays packed from first step to last (``_lazy_remainder``);
    a division past the guard, and a list, take the loop.
    """
    if not isinstance(a, int):
        return _resultant_loop(a, b, p, 1, False)
    s, m, limit = _lazy_constants(p)
    na, nb = (a.bit_length() + 63) >> 6, (b.bit_length() + 63) >> 6
    mask = _barrett_mask(s, min(na, nb) - 1)
    lb = (b >> 64 * (nb - 1)) % p
    acc = 1
    negate = False
    while nb > 1:
        if na - nb >= limit:
            return _resultant_loop(
                [c % p for c in _unpack(a, na)], [c % p for c in _unpack(b, nb)], p, acc, negate
            )
        r, nr, lr = _lazy_remainder(a, na, b, nb, lb, p, m, s, mask)
        if not nr:
            return 0
        if ((na - 1) * (nb - 1)) & 1:
            negate = not negate
        acc = acc * pow(lb, na - nr, p) % p
        a, na, b, nb, lb = b, nb, r, nr, lr
    acc = acc * pow(lb, na - 1, p) % p
    return (p - acc) % p if negate and acc else acc


def _resultant_loop(a: list[int], b: list[int], p: int, acc: int, negate: bool) -> int:
    """The remainder scheme of ``_resultant_modp`` on lists, from a running
    product ``acc`` and sign ``negate``."""
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = list(a)
        inv_lb = pow(b[-1], p - 2, p)
        for k in range(da - db, -1, -1):
            c = r[k + db] * inv_lb % p
            if c:
                for j in range(db + 1):
                    r[k + j] = (r[k + j] - c * b[j]) % p
        del r[db:]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        dr = len(r) - 1
        if (da * db) & 1:
            negate = not negate
        acc = acc * pow(b[-1], da - dr, p) % p
        a, b = b, r
    acc = acc * pow(b[0], len(a) - 1, p) % p
    return (p - acc) % p if negate and acc else acc


def _specialise(poly: MultiPoly, keep: int, elim: int, packed: bool) -> dict:
    """Per kept-variable exponent k, the coefficients of x_keep**k ascending
    in the eliminated variable: one packed int (``polys._pack``) when
    ``packed``, else a list."""
    width = poly.degree_in(elim) + 1
    columns: dict[int, list] = {}
    for e, c in poly.terms.items():
        columns.setdefault(e[keep], [0] * width)[e[elim]] = c
    if packed:
        return {k: _pack(column) for k, column in columns.items()}
    return columns


def _eval_slices(columns: dict, width: int, powers, p: int, lazy) -> list[int] | int:
    """Specialised univariate coefficients mod p (ascending in the eliminated var).

    Packed (``lazy`` is the Barrett step's (m, s, mask)), a sample's slices
    are sum_k powers[k] * column_k brought to slots in [0, 2p) by one
    Barrett step, still packed, as ``_resultant_modp`` takes them.
    """
    if lazy:
        m, s, mask = lazy
        acc = sum(powers[k] * column for k, column in columns.items())
        return acc - p * ((acc * m >> s) & mask)
    out = [0] * width
    for k, column in columns.items():
        w = powers[k]
        for j, c in enumerate(column):
            out[j] += w * c
    return [c % p for c in out]


def resultant_bivar_elim(f: MultiPoly, g: MultiPoly, eliminated_var: int) -> UniPoly:
    """Eliminate one variable from a bivariate pair by sampling + interpolation.

    GF(p) only.  Samples the kept variable at ``deg(f)*deg(g) + 1`` points
    where neither leading coefficient in the eliminated variable vanishes
    (vanishing points are skipped and replaced), takes univariate
    resultants there, and interpolates.  Degree bound: total-degree product.
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
    needed = bound + 1

    max_keep = max(f.degree_in(keep), g.degree_in(keep))
    if p < needed:
        raise ValueError(f"field GF({p}) too small for {needed} interpolation samples")
    # a packed slice slot sums max_keep + 1 products of two residues: no
    # more than a guarded division adds, so one Barrett step reduces it
    shift, m, limit = _lazy_constants(p)
    packed = (max_keep + 1) * (p - 1) ** 2 <= limit * (p - 1) * (2 * p - 1)
    lazy = (m, shift, _barrett_mask(shift, max(df_e, dg_e) + 1)) if packed else None
    f_columns = _specialise(f, keep, eliminated_var, packed)
    g_columns = _specialise(g, keep, eliminated_var, packed)

    samples: list[tuple] = []
    for s in range(p):
        powers = [1]
        for _ in range(max_keep):
            powers.append(powers[-1] * s % p)
        fc = _eval_slices(f_columns, df_e + 1, powers, p, lazy)
        gc = _eval_slices(g_columns, dg_e + 1, powers, p, lazy)
        if lazy:
            if (fc >> 64 * df_e) % p == 0 or (gc >> 64 * dg_e) % p == 0:
                continue  # leading coefficient vanished here; resample
        elif fc[-1] == 0 or gc[-1] == 0:
            continue
        samples.append((s, _resultant_modp(fc, gc, p)))
        if len(samples) == needed:
            break
    if len(samples) < needed:
        raise ValueError(
            f"could not collect {needed} good samples "
            f"(leading coefficients vanish too often or field too small)"
        )
    return interpolate(samples, F)


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
