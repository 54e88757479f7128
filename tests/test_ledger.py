from fractions import Fraction

import pytest

from quintic_moduli import intersection_ledger
from quintic_moduli.intersection_ledger import (
    LOCAL_PAIRING,
    STRICT_TRANSFORM_COEFFICIENT,
    DivisorClass,
    build_ledger,
    combinatorial_degree,
    degree_via_ledger,
    derivation_table,
    m05_boundary_matrix,
    m05_cross_check,
    self_intersection,
    solve_pullback_multiplicities,
    wps_section_self_intersection,
)


def test_build_ledger_bookkeeping():
    led = build_ledger()
    assert led.n_cusps == 45 and led.dim == 136
    assert led.pairing(0, 0) == 130 == 20 * 20 - 45 * (4 + 1 + 1)
    # incidence pattern within a cusp and across cusps
    assert led.pairing(0, 3) == 1  # Dtilde . E3
    assert led.pairing(1, 2) == 0  # E1 . E2
    assert led.pairing(0, 1) == 0 and led.pairing(0, 2) == 0
    assert led.pairing(3, 1) == 1 and led.pairing(3, 2) == 1
    assert led.pairing(1, 4) == 0  # cross-cusp
    assert [led.pairing(k, k) for k in (1, 2, 3)] == [-3, -2, -1]


def test_pairing_matrix_symmetric_and_block_structured():
    led = build_ledger()
    mat = [[led.pairing(a, b) for b in range(led.dim)] for a in range(led.dim)]
    dim = led.dim
    assert all(mat[i][j] == mat[j][i] for i in range(dim) for j in range(dim))
    for i in range(1, dim):
        for j in range(1, dim):
            if (i - 1) // 3 != (j - 1) // 3:
                assert mat[i][j] == 0
    # every cusp carries the same block on (Dtilde, E1, E2, E3)
    for cusp in range(led.n_cusps):
        basis = (0, 1 + 3 * cusp, 2 + 3 * cusp, 3 + 3 * cusp)
        assert [[mat[a][b] for b in basis] for a in basis] == [list(r) for r in LOCAL_PAIRING]


def test_solve_pullback_multiplicities(monkeypatch):
    led = build_ledger()
    assert solve_pullback_multiplicities(led) == (
        Fraction(2, 3),
        Fraction(1),
        Fraction(2),
    )
    # a singular projection system (E1^2 = -2) is guarded, not silently solved
    table = [list(row) for row in LOCAL_PAIRING]
    table[1][1] = Fraction(-2)
    monkeypatch.setattr(intersection_ledger, "LOCAL_PAIRING", table)
    with pytest.raises(ArithmeticError):
        solve_pullback_multiplicities(led)


def test_self_intersections():
    led = build_ledger()
    a, b, c = solve_pullback_multiplicities(led)
    pullback = DivisorClass.from_parts(led, STRICT_TRANSFORM_COEFFICIENT, (a, b, c))
    assert self_intersection(pullback, led) == 280
    dtilde = DivisorClass.from_parts(led, Fraction(1), (0, 0, 0))
    assert self_intersection(dtilde, led) == 130
    assert self_intersection(DivisorClass.zero(led), led) == 0


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
    assert rows["pullback_sq"] == 280
    assert rows["pullback_multiplicities"] == (Fraction(2, 3), Fraction(1), Fraction(2))


def test_pullback_satisfies_projection_equations():
    led = build_ledger()
    a, b, c = solve_pullback_multiplicities(led)
    # substituting back: pairings with E1, E2 vanish; with E3 equals delta^2
    pullback = DivisorClass.from_parts(led, Fraction(1), (a, b, c))

    def pair_with(k):
        total = Fraction(0)
        basis = DivisorClass.zero(led).coefficients
        for idx, coeff in enumerate(pullback.coefficients):
            if coeff:
                total += coeff * led.pairing(idx, k)
        return total

    assert pair_with(1) == 0
    assert pair_with(2) == 0
    assert pair_with(3) == Fraction(2, 3)
