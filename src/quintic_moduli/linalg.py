"""Small exact linear algebra over QQ (no pivot tolerance).

``rref`` is fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.*
22, 1968): each row is cleared to integers once by
``RationalField.clear_denominators`` (scaling a row leaves the reduced form
unchanged), and pivoting on entry p of row r, after the previous pivot
prev, replaces every other row k by (p * row_k - row_k[c] * row_r) / prev.
The division is exact: every entry is then a minor of the cleared matrix,
up to sign, and every pivot entry equals the latest pivot.  A ``Fraction``
is made only when the pivot rows are normalised at the end.  The reduced
row echelon form is unique, so ``nullspace`` and ``solve`` read their
values off it.

``nullspace`` first tries a certified modular path (von zur Gathen and
Gerhard, *Modern Computer Algebra*, section 5.10; Dixon, *Numer. Math.*
40, 1982).  It clears the rows as ``rref`` does and runs Gauss-Jordan
modulo the prime p = 2**61 - 1 on small ints.  Each basis vector, 1 on
its free column and -reduced[r][fc] on the pivot columns, is rebuilt by
rational reconstruction and checked exactly: A v = 0 on the integer rows.
That check certifies the whole basis.  A minor that is nonzero mod p is
nonzero over QQ, so rank mod p is at most the rank over QQ, and the
k = ncols - rank_p vectors, independent because each is 1 on its own free
column and 0 on the others, span the null space over QQ once all k pass.
Each vector is supported on its free column and the pivot columns before
it, so every free column mod p is a free column over QQ; there are k of
each, so they coincide, and the basis is the one ``rref`` gives, entry for
entry.  When a reconstruction or a check fails (p divides a pivot minor,
or an entry of a null vector is too large to reconstruct), the exact
``rref`` elimination answers instead.

Every row must have as many entries as the first; a ragged row raises
``ValueError`` naming it, instead of being truncated.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .scalars import QQ

#: The prime of the modular null space; entries of a null vector are
#: reconstructed when numerator and denominator are at most _BOUND.
_PRIME = (1 << 61) - 1
_BOUND = isqrt(_PRIME // 2)


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows; raises on a ragged row."""
    ncols = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {k} has {len(row)} entries, row 0 has {ncols}")
    return ncols


def _bareiss(rows: list[list[int]], ncols: int):
    """``rref`` of integer rows, which it overwrites."""
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for k, row in enumerate(rows):
            if k != r:
                f = row[c]
                rows[k] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
        r += 1
        if r == len(rows):
            break
    return [[Fraction(x, prev) for x in row] for row in rows], pivots


def rref(rows: Sequence[Sequence]):
    """Reduced row echelon form of a rational matrix; returns (new_rows, pivot_columns).

    Entries are ``Fraction`` or ``int``; the returned entries are ``Fraction``.
    """
    if not rows:
        return [], []
    ncols = _width(rows)
    return _bareiss([QQ.clear_denominators(row)[0] for row in rows], ncols)


def _reconstruct(u: int) -> Fraction | None:
    """The fraction a/b = u mod _PRIME with |a|, |b| <= _BOUND, or None
    (the half-extended Euclidean algorithm, stopped at the bound)."""
    r0, r1 = _PRIME, u
    t0, t1 = 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _BOUND:
        return None
    return Fraction(r1, t1)


def _modular_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]] | None:
    """The null-space basis of integer rows from one Gauss-Jordan
    elimination mod _PRIME, each vector reconstructed and checked exactly
    on the rows; None when a vector fails either step."""
    p = _PRIME
    red = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, len(red)) if red[k][c]), None)
        if pivot_row is None:
            continue
        red[r], red[pivot_row] = red[pivot_row], red[r]
        # the pivot row is 0 left of c, so only the columns from c on change
        inv = pow(red[r][c], -1, p)
        top = red[r][c:] = [x * inv % p for x in red[r][c:]]
        for k, row in enumerate(red):
            f = row[c]
            if f and k != r:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], top)]
        pivots.append(c)
        r += 1
        if r == len(red):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [QQ.zero] * ncols
        vec[fc] = QQ.one
        support = [fc]
        for r, pc in enumerate(pivots):
            if pc > fc:
                break
            entry = _reconstruct(-red[r][fc] % p)
            if entry is None:
                return None
            vec[pc] = entry
            support.append(pc)
        d = lcm(*[vec[c].denominator for c in support])
        ints = [(c, vec[c].numerator * (d // vec[c].denominator)) for c in support]
        if any(sum(row[c] * x for c, x in ints) for row in rows):
            return None
        basis.append(vec)
    return basis


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix: for each free
    column of the reduced row echelon form, the vector with 1 there, 0 on
    the other free columns and -reduced[r][fc] on pivot column r.

    The certified modular path of the module docstring answers when its
    exact check passes; otherwise ``rref``'s elimination does.
    """
    if not rows:
        return []
    ncols = _width(rows)
    rows = [QQ.clear_denominators(row)[0] for row in rows]
    basis = _modular_nullspace(rows, ncols)
    if basis is not None:
        return basis
    reduced, pivots = _bareiss(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [QQ.zero] * ncols
        vec[fc] = QQ.one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Unique exact solution of A x = b; raises if inconsistent or underdetermined."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = _width(rows)
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    return [reduced[r][-1] for r in range(ncols)]
