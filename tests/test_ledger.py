import random
from fractions import Fraction

import pytest

from quintic_moduli import intersection_ledger
from quintic_moduli.intersection_ledger import (
    LOCAL_PAIRING,
    N_CUSPS,
    STRICT_TRANSFORM_COEFFICIENT,
    combinatorial_degree,
    degree_via_ledger,
    derivation_table,
    m05_boundary_matrix,
    m05_cross_check,
    self_intersection,
    solve_pullback_multiplicities,
    wps_section_self_intersection,
)

#: Dimension of the full blow-up basis: Dtilde, then (E1, E2, E3) per cusp.
DIM = 1 + 3 * N_CUSPS


def full_pairing():
    """The 136x136 pairing on Dtilde, E1^(i), E2^(i), E3^(i), i = 1..45.

    Each cusp carries ``LOCAL_PAIRING`` on (Dtilde, E1, E2, E3); divisors
    over different cusps meet in 0.
    """
    mat = [[Fraction(0)] * DIM for _ in range(DIM)]
    mat[0][0] = LOCAL_PAIRING[0][0]
    for cusp in range(N_CUSPS):
        basis = (0, 1 + 3 * cusp, 2 + 3 * cusp, 3 + 3 * cusp)
        for k, a in enumerate(basis):
            for l, b in enumerate(basis):
                if a or b:
                    mat[a][b] = LOCAL_PAIRING[k][l]
    return mat


def expand(per_cusp):
    """The 136 coefficients of d Dtilde + sum over the cusps of (a E1 + b E2 + c E3)."""
    d, *rest = (Fraction(x) for x in per_cusp)
    return [d] + rest * N_CUSPS


def test_local_pairing_bookkeeping(monkeypatch):
    assert LOCAL_PAIRING[0][0] == 130 == 20 * 20 - 45 * (4 + 1 + 1)
    assert LOCAL_PAIRING[0][3] == 1  # Dtilde . E3
    assert LOCAL_PAIRING[1][2] == 0  # E1 . E2
    assert LOCAL_PAIRING[0][1] == 0 and LOCAL_PAIRING[0][2] == 0
    assert LOCAL_PAIRING[3][1] == 1 and LOCAL_PAIRING[3][2] == 1
    assert [LOCAL_PAIRING[k][k] for k in (1, 2, 3)] == [-3, -2, -1]
    # a stored Dtilde^2 that disagrees with 20^2 - 45 * 6 is caught
    table = [list(row) for row in LOCAL_PAIRING]
    table[0][0] = Fraction(131)
    monkeypatch.setattr(intersection_ledger, "LOCAL_PAIRING", table)
    with pytest.raises(ArithmeticError, match="bookkeeping"):
        solve_pullback_multiplicities()


def test_pairing_matrix_symmetric_and_block_structured():
    assert all(LOCAL_PAIRING[k][l] == LOCAL_PAIRING[l][k] for k in range(4) for l in range(4))
    mat = full_pairing()
    assert all(mat[i][j] == mat[j][i] for i in range(DIM) for j in range(DIM))
    assert mat[1][4] == 0  # cross-cusp
    for i in range(1, DIM):
        for j in range(1, DIM):
            if (i - 1) // 3 != (j - 1) // 3:
                assert mat[i][j] == 0


def test_self_intersection_matches_the_full_pairing():
    mat = full_pairing()

    def expanded_square(per_cusp):
        v = expand(per_cusp)
        return sum(v[i] * mat[i][j] * v[j] for i in range(DIM) for j in range(DIM) if v[i] and v[j])

    rng = random.Random(19)
    random_class = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(4))
    pullback = (STRICT_TRANSFORM_COEFFICIENT, *solve_pullback_multiplicities())
    for v in (pullback, (1, 0, 0, 0), (0, 0, 0, 0), random_class):
        assert self_intersection(v) == expanded_square(v)
    with pytest.raises(ValueError):
        self_intersection((1, 0, 0))


def test_solve_pullback_multiplicities(monkeypatch):
    assert solve_pullback_multiplicities() == (
        Fraction(2, 3),
        Fraction(1),
        Fraction(2),
    )
    # a singular projection system (E1^2 = -2) is guarded, not silently solved
    table = [list(row) for row in LOCAL_PAIRING]
    table[1][1] = Fraction(-2)
    monkeypatch.setattr(intersection_ledger, "LOCAL_PAIRING", table)
    with pytest.raises(ArithmeticError):
        solve_pullback_multiplicities()


def test_self_intersections():
    a, b, c = solve_pullback_multiplicities()
    assert self_intersection((STRICT_TRANSFORM_COEFFICIENT, a, b, c)) == 280
    assert self_intersection((1, 0, 0, 0)) == 130
    assert self_intersection((0, 0, 0, 0)) == 0


def test_weighted_plane_section_self_intersection():
    # a degree-2 section of WP(1, 2, 3): 2^2 / (1 * 2 * 3)
    assert wps_section_self_intersection() == Fraction(2 * 2, 1 * 2 * 3) == Fraction(2, 3)


def test_m05_cross_check():
    assert m05_cross_check() == Fraction(2, 3)
    assert m05_cross_check() == wps_section_self_intersection()
    mat = m05_boundary_matrix()
    total = sum(sum(row) for row in mat)
    assert total == 20
    for row in mat:
        assert row.count(1) == 3 and row.count(-1) == 1  # each curve meets 3 others


def test_degree_via_ledger():
    assert degree_via_ledger() == 420 == Fraction(280) / wps_section_self_intersection()


def test_combinatorial_degree():
    assert combinatorial_degree(120, 45) == 420
    assert combinatorial_degree(0, 0) == 0
    with pytest.raises(ValueError):
        combinatorial_degree(-1, 0)


def test_two_routes_agree():
    assert degree_via_ledger() == combinatorial_degree(120, 45) == 420


def test_derivation_table_is_complete():
    rows = {r["quantity"]: r["value"] for r in derivation_table()}
    assert rows["degree"] == 420
    assert rows["delta_sq_weighted_plane"] == rows["delta_sq_m05_route"] == Fraction(2, 3)
    assert rows["dtilde_sq"] == 130
    assert rows["exceptional_self_intersections"] == (-3, -2, -1)
    assert rows["pullback_sq"] == 280
    assert rows["pullback_multiplicities"] == (Fraction(2, 3), Fraction(1), Fraction(2))


def test_pullback_satisfies_projection_equations():
    a, b, c = solve_pullback_multiplicities()
    # substituting back: pairings with E1, E2 of a cusp vanish; with E3 equals delta^2
    mat = full_pairing()
    pullback = expand((1, a, b, c))

    def pair_with(k):
        return sum(coeff * mat[idx][k] for idx, coeff in enumerate(pullback) if coeff)

    assert pair_with(1) == 0
    assert pair_with(2) == 0
    assert pair_with(3) == Fraction(2, 3)
