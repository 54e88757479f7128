import random
from fractions import Fraction

import pytest

from quintic_moduli import linalg
from quintic_moduli.linalg import nullspace, rref, solve


def _reference_rref(rows):
    """Gauss-Jordan on Fractions, one field operation at a time."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _reference_nullspace(rows):
    ncols = len(rows[0])
    reduced, pivots = _reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _rational(rng):
    """A nonzero-or-zero rational with a denominator from 1 to about 10**6."""
    den = rng.choice([1, 2, 3, 1009, 999983, rng.randint(1, 10**6)])
    return Fraction(rng.randint(-30, 30), den)


def _matrix(rng, nrows, ncols, rank):
    """A rational nrows x ncols matrix of the given rank, as a product B C."""
    b = [[_rational(rng) for _ in range(rank)] for _ in range(nrows)]
    while True:
        c = [[_rational(rng) for _ in range(ncols)] for _ in range(rank)]
        rows = [
            [sum((row[i] * c[i][j] for i in range(rank)), Fraction(0)) for j in range(ncols)]
            for row in b
        ]
        if len(_reference_rref(rows)[1]) == rank:
            return rows


def _matrices():
    rng = random.Random(41)
    shapes = [(1, 1), (1, 4), (4, 1), (3, 3), (5, 5), (7, 4), (4, 7), (9, 6), (6, 9), (13, 13)]
    out = []
    for nrows, ncols in shapes:
        for rank in range(min(nrows, ncols) + 1):
            rows = _matrix(rng, nrows, ncols, rank)
            if rank and rng.random() < 0.5:
                # a zero column and a zero row, keeping the rank
                col = rng.randrange(ncols + 1)
                rows = [row[:col] + [Fraction(0)] + row[col:] for row in rows]
                rows.insert(rng.randrange(nrows + 1), [Fraction(0)] * (ncols + 1))
            out.append(rows)
    # entries given as ints, and a 1 x 1 zero matrix
    out.append([[2, 4, -6], [1, 3, 5]])
    out.append([[0]])
    return out


@pytest.mark.parametrize("rows", _matrices(), ids=lambda rows: f"{len(rows)}x{len(rows[0])}")
def test_rref_and_nullspace_match_the_reference(rows):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == _reference_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    basis = nullspace(rows)
    assert basis == _reference_nullspace(rows)
    assert len(basis) + len(pivots) == len(rows[0])
    for vec in basis:
        assert all(type(x) is Fraction for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


@pytest.fixture
def paths(monkeypatch):
    """The path each ``nullspace`` call took: "certified" when the modular
    basis passed its exact check, "fallback" when ``rref``'s answered."""
    taken = []
    modular = linalg._modular_nullspace

    def counting(rows, ncols):
        basis = modular(rows, ncols)
        taken.append("fallback" if basis is None else "certified")
        return basis

    monkeypatch.setattr(linalg, "_modular_nullspace", counting)
    return taken


def test_both_nullspace_paths_are_reached(paths):
    matrices = _matrices()
    for rows in matrices:
        assert nullspace(rows) == _reference_nullspace(rows)
    assert len(paths) == len(matrices)
    assert {"certified", "fallback"} <= set(paths)


def test_a_prime_dividing_the_pivot_falls_back(paths):
    # mod 2**61 - 1 the row is (0, 1), whose basis (1, 0) fails the exact check
    rows = [[2**61 - 1, 1]]
    assert nullspace(rows) == _reference_nullspace(rows) == [[Fraction(-1, 2**61 - 1), 1]]
    assert paths == ["fallback"]


def test_a_null_vector_past_the_reconstruction_bound_falls_back(paths):
    rows = [[1, 2**40]]
    assert nullspace(rows) == _reference_nullspace(rows) == [[-(2**40), 1]]
    assert paths == ["fallback"]


def _small_matrix(rng, nrows, ncols, rank):
    """An integer nrows x ncols matrix of rank at most ``rank``, a product of
    small ints, so its null vectors stay inside the reconstruction bound."""
    b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    c = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(row[i] * c[i][j] for i in range(rank)) for j in range(ncols)] for row in b]


def _deficient_prefix(rng):
    """10 x 6 integer rows of rank 4 whose first 6 rows have rank 2."""
    while True:
        rows = _small_matrix(rng, 6, 6, 2) + _small_matrix(rng, 4, 6, 2)
        if len(_reference_rref(rows[:6])[1]) == 2 and len(_reference_rref(rows)[1]) == 4:
            return rows


def test_a_rank_deficient_prefix_still_gives_the_bareiss_basis(paths):
    rng = random.Random(47)
    for _ in range(5):
        rows = _deficient_prefix(rng)
        basis = nullspace(rows)
        assert basis == _reference_nullspace(rows)
        assert len(basis) == 2
    assert paths == ["fallback"] * 5


def test_null_vectors_of_the_prefix_failing_later_rows_are_refused():
    rows = _deficient_prefix(random.Random(53))
    prefix = linalg._modular_nullspace(rows[:6], 6)
    assert prefix == _reference_nullspace(rows[:6])  # the prefix alone is certified,
    assert any(sum(a * x for a, x in zip(row, vec)) for row in rows[6:] for vec in prefix)
    assert linalg._modular_nullspace(rows, 6) is None  # and refused on all ten rows


def test_the_relation_shape_is_certified_on_its_first_rows(paths):
    # 24 x 13 of rank 12, the shape of find_fundamental_relation: every row
    # is orthogonal to one small null vector
    rng = random.Random(59)
    null = [1] + [rng.randint(-9, 9) for _ in range(12)]
    rows = []
    for _ in range(24):
        row = [rng.randint(-99, 99) for _ in range(13)]
        row[0] = -sum(x * v for x, v in zip(row[1:], null[1:]))
        rows.append(row)
    basis = nullspace(rows)
    assert basis == _reference_nullspace(rows)
    assert len(basis) == 1 and basis[0][-1] == 1
    assert paths == ["certified"]


def test_solve_matches_the_reference():
    rng = random.Random(43)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            rows = _matrix(rng, n, n, n)
            x = [_rational(rng) for _ in range(n)]
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
            got = solve(rows, rhs)
            assert got == x
            assert all(type(v) is Fraction for v in got)
            reduced, _ = _reference_rref([row + [b] for row, b in zip(rows, rhs)])
            assert got == [row[-1] for row in reduced]


def test_solve_overdetermined_consistent_system():
    rows = [[1, 0], [0, 1], [1, 1]]
    assert solve(rows, [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 21)]) == [
        Fraction(1, 3), Fraction(-2, 7)
    ]


def test_solve_rejects_singular_systems():
    with pytest.raises(ValueError, match="inconsistent linear system"):
        solve([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(ValueError, match="underdetermined linear system"):
        solve([[1, 1], [2, 2]], [1, 2])
    with pytest.raises(ValueError, match="matrix/vector size mismatch"):
        solve([[1, 1]], [1, 2])


def test_empty_matrices():
    assert rref([]) == ([], [])
    assert nullspace([]) == []
    assert solve([], []) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: rref([[1, 2, 3], [1, 1]]),
        lambda: nullspace([[1, 1], [1, 2, 3]]),
        lambda: nullspace([[1, 2, 3], [1, 1]]),
        lambda: solve([[1, 1], [1, 2, 5]], [1, 2]),
    ],
)
def test_ragged_rows_are_rejected(call):
    with pytest.raises(ValueError, match="row 1 has"):
        call()
