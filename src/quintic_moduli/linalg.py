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

Every row must have as many entries as the first; a ragged row raises
``ValueError`` naming it, instead of being truncated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import QQ


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows; raises on a ragged row."""
    ncols = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {k} has {len(row)} entries, row 0 has {ncols}")
    return ncols


def rref(rows: Sequence[Sequence]):
    """Reduced row echelon form of a rational matrix; returns (new_rows, pivot_columns).

    Entries are ``Fraction`` or ``int``; the returned entries are ``Fraction``.
    """
    if not rows:
        return [], []
    ncols = _width(rows)
    rows = [QQ.clear_denominators(row)[0] for row in rows]
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


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix."""
    if not rows:
        return []
    reduced, pivots = rref(rows)
    ncols = len(rows[0])
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
