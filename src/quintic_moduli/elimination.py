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
products, unpacked once; a prime too large for those slot sums takes the
loop.  The gcds and Yun's decomposition divide with ``UniPoly.divmod``,
packed over GF(p) in the same way.
"""

from __future__ import annotations

from .polys import MultiPoly, UniPoly, _pack, _unpack, interpolate
from .scalars import PrimeField


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    if f.field is not g.field:
        raise ValueError("field mismatch in gcd")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def xgcd_uni(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended gcd: returns monic d with s*f + t*g = d.

    The Euclid loop carries s only (``_gcd_cofactor``); t is recovered at
    the end by the exact division (d - s*f) / g.
    """
    d, s = _gcd_cofactor(f, g)
    t = UniPoly.zero(f.field) if g.is_zero() else (d - s * f) // g
    return d, s, t


def _gcd_cofactor(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(d, s): the monic gcd d of f and g, and s with s*f = d mod g.

    The Euclid loop of ``xgcd_uni``; ``ResidueRing.inv`` needs s alone.
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


def _resultant_modp(a: list[int], b: list[int], p: int) -> int:
    # raw-int version of the same remainder scheme; hot path of the
    # fiber eliminant (thousands of calls per run)
    acc = 1
    negate = False
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


def _eval_slices(columns: dict, width: int, powers, p: int, packed: bool) -> list[int]:
    """Specialised univariate coefficients mod p (ascending in the eliminated var).

    Packed, a sample's slices are sum_k powers[k] * column_k, unpacked once.
    """
    if packed:
        acc = sum(powers[k] * column for k, column in columns.items())
        return [c % p for c in _unpack(acc, width)]
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
    # a packed slot sums max_keep + 1 products of two residues
    packed = (max_keep + 1) * (p - 1) ** 2 < 1 << 64
    f_columns = _specialise(f, keep, eliminated_var, packed)
    g_columns = _specialise(g, keep, eliminated_var, packed)

    samples: list[tuple] = []
    for s in range(p):
        powers = [1]
        for _ in range(max_keep):
            powers.append(powers[-1] * s % p)
        fc = _eval_slices(f_columns, df_e + 1, powers, p, packed)
        gc = _eval_slices(g_columns, dg_e + 1, powers, p, packed)
        if fc[-1] == 0 or gc[-1] == 0:
            continue  # leading coefficient vanished here; resample
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
