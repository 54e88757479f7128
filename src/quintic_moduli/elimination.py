"""Resultants, gcds and squarefree decomposition for exact polynomials.

Sign convention, used by every caller in the package:

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f

which equals the determinant of the Sylvester matrix built with f's
coefficient rows first.  Consequences: Res(x-a, x-b) = b-a, and
Res(f, g) = (-1)**(deg f * deg g) * Res(g, f).

Resultants are computed by a Euclidean remainder scheme (never by root
finding); the bivariate eliminant is computed by specialising one
variable at enough sample points and interpolating, which is how the
degree-600 eliminant of the fiber system stays tractable.
"""

from __future__ import annotations

from .polys import MultiPoly, UniPoly, interpolate
from .scalars import Field, PrimeField


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    if f.field is not g.field:
        raise ValueError("field mismatch in gcd")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def xgcd_uni(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended gcd: returns monic d with s*f + t*g = d."""
    if f.field is not g.field:
        raise ValueError("field mismatch in xgcd")
    F = f.field
    one = UniPoly.constant(F, F.one)
    zero = UniPoly.zero(F)
    r0, r1 = f, g
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    scale = F.inv(r0.lc)
    return r0.monic(), s0.scale(scale), t0.scale(scale)


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
        acc = F.mul(acc, F.pow(b.lc, da - dr))
        a, b = b, r
    acc = F.mul(acc, F.pow(b.coeffs[0], a.degree))
    return F.neg(acc) if negate else acc


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


def _specialise(poly: MultiPoly, keep: int, elim: int):
    """Precompute, per eliminated-variable exponent, the keep-variable slices."""
    rows: dict[int, list[tuple[int, object]]] = {}
    for e, c in poly.terms.items():
        rows.setdefault(e[elim], []).append((e[keep], c))
    max_keep = max((e[keep] for e in poly.terms), default=0)
    return rows, max_keep


def _eval_slices(rows, deg_elim, powers, field: Field):
    """Specialised univariate coefficients (ascending in the eliminated var)."""
    out = [field.zero] * (deg_elim + 1)
    if isinstance(field, PrimeField):
        p = field.p
        for j, slices in rows.items():
            acc = 0
            for k, c in slices:
                acc += c * powers[k]
            out[j] = acc % p
    else:
        for j, slices in rows.items():
            acc = field.zero
            for k, c in slices:
                acc = field.add(acc, field.mul(c, powers[k]))
            out[j] = acc
    return out


def resultant_bivar_elim(f: MultiPoly, g: MultiPoly, eliminated_var: int) -> UniPoly:
    """Eliminate one variable from a bivariate pair by sampling + interpolation.

    Samples the kept variable at ``deg(f)*deg(g) + 1`` points where neither
    leading coefficient in the eliminated variable vanishes (vanishing points
    are skipped and replaced), takes univariate resultants there, and
    interpolates.  Degree bound: total-degree product.
    """
    if f.field is not g.field:
        raise ValueError("field mismatch in elimination")
    if f.arity != 2 or g.arity != 2:
        raise ValueError("bivariate elimination requires arity-2 polynomials")
    if eliminated_var not in (0, 1):
        raise ValueError("eliminated_var must be 0 or 1")
    if f.is_zero() or g.is_zero():
        raise ValueError("elimination of a zero polynomial")
    F = f.field
    keep = 1 - eliminated_var
    df_e = f.degree_in(eliminated_var)
    dg_e = g.degree_in(eliminated_var)
    if df_e <= 0 or dg_e <= 0:
        raise ValueError("both inputs must involve the eliminated variable")
    bound = int(f.total_degree) * int(g.total_degree)
    needed = bound + 1

    f_rows, f_keep = _specialise(f, keep, eliminated_var)
    g_rows, g_keep = _specialise(g, keep, eliminated_var)
    max_keep = max(f_keep, g_keep)

    if isinstance(F, PrimeField) and F.p < needed:
        raise ValueError(
            f"field GF({F.p}) too small for {needed} interpolation samples"
        )

    def try_sample(n: int):
        s = F.from_int(n)
        powers = [F.one]
        for _ in range(max_keep):
            powers.append(F.mul(powers[-1], s))
        fc = _eval_slices(f_rows, df_e, powers, F)
        gc = _eval_slices(g_rows, dg_e, powers, F)
        if F.is_zero(fc[-1]) or F.is_zero(gc[-1]):
            return None  # leading coefficient vanished here; resample
        if isinstance(F, PrimeField):
            return s, _resultant_modp(fc, gc, F.p)
        return s, resultant_uni(UniPoly(F, fc), UniPoly(F, gc))

    limit = F.p if isinstance(F, PrimeField) else needed + 4 * max(df_e, dg_e) + 64
    samples: list[tuple] = []
    for n in range(limit):
        r = try_sample(n)
        if r is not None:
            samples.append(r)
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
