"""Small exact linear algebra over a coefficient field (no pivot tolerance)."""

from __future__ import annotations

from typing import Sequence

from .scalars import Field


def rref(rows: Sequence[Sequence], field: Field):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (k for k in range(r, len(rows)) if not field.is_zero(rows[k][c])), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.reduce(inv * x) for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not field.is_zero(rows[k][c]):
                factor = rows[k][c]
                rows[k] = [field.reduce(x - factor * y) for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(rows: Sequence[Sequence], field: Field) -> list[list]:
    """Basis of the right null space of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.reduce(-reduced[r][fc])
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence, field: Field) -> list:
    """Unique exact solution of A x = b; raises if inconsistent or underdetermined."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented, field)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    sol = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = reduced[r][-1]
    return sol
