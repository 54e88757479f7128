"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS line (run with ``pytest -s`` to see them all).
The CLI-facing criteria drive the installed command line through
subprocesses and parse its structured output; the two count corrections
relative to the original plan (eliminant degree 600 with flex part (45, 4),
and the minus sign in the balanced-arc denominator) are exact consequences
of the invariant weights and are cross-checked by the independent numeric
oracles inside this suite.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_PRIMES, CURVES_DIR, make_arc_suite

GENERIC = str(CURVES_DIR / "generic.json")


def run_cli(*argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "quintic_moduli", *argv, "--format", "jsonl"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return proc.returncode, records, elapsed


def pick(records, kind):
    return [r for r in records if r["record"] == kind]


@pytest.fixture(scope="module")
def fiber_runs():
    """Criterion 5's runs, shared with the cross-route check of criterion 8."""
    runs = {}
    for prime in ACCEPTANCE_PRIMES:
        for seed in (1, 2, 3):
            code, records, elapsed = run_cli(
                "fiber-count", "--curve", GENERIC, "--prime", str(prime), "--seed", str(seed)
            )
            assert code == 0, f"fiber-count failed at prime {prime} seed {seed}"
            runs[(prime, seed)] = (pick(records, "fiber-report")[0], elapsed)
    return runs


def test_criterion_1_degree_ledger():
    code, records, elapsed = run_cli("degree-ledger")
    assert code == 0
    rows = {r["quantity"]: r["value"] for r in pick(records, "ledger-row")}
    assert rows["delta_sq_weighted_plane"] == "2/3"
    assert rows["delta_sq_m05_route"] == "2/3"  # the two routes must agree
    assert rows["pullback_multiplicities"] == ["2/3", "1", "2"]
    assert rows["pullback_sq"] == "280"
    degree = pick(records, "degree")[0]
    assert degree["via_intersection_ledger"] == "420"
    assert degree["agree"] is True
    assert Fraction(280) / Fraction(2, 3) == 420
    assert elapsed < 1.0, f"degree-ledger took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 1: PASS - intersection ledger: delta^2 = 2/3 (two agreeing "
        "routes), multiplicities (2/3, 1, 2), pullback^2 = 280, degree 420"
    )


def test_criterion_2_plucker_and_configuration_count():
    code, records, elapsed = run_cli("plucker", "--d", "5")
    assert code == 0
    rec = pick(records, "plucker")[0]
    assert (rec["dual_degree"], rec["flex_count"], rec["bitangent_count"]) == (20, 45, 120)
    assert rec["combinatorial_degree"] == 2 * 120 + 4 * 45 == 420
    assert elapsed < 1.0, f"plucker took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 2: PASS - counts (20, 45, 120) and configuration count "
        "2*120 + 4*45 = 420"
    )


def test_criterion_3_degeneration_chain():
    code, records, elapsed = run_cli("gw-recursion", "--r", "4,5,6,7,8,9,10")
    assert code == 0
    rec = pick(records, "gw-values")[0]
    assert rec["I1(a1^5)"] == "420" and rec["r_free"] is True
    assert rec["I1(a1^3 a2)"] == "330"
    assert rec["I0(a1^3 b{r-3})"] in ("1/r", "(1)/(r)")
    assert pick(records, "r-spot-check")[0]["all_equal_420"] is True
    assert elapsed < 1.0, f"gw-recursion took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 3: PASS - chain gives 420 free of r, intermediate 330 "
        "and 1/r, spot checks r = 4..10 agree"
    )


def test_criterion_4_fermat_check():
    code, records, elapsed = run_cli("fermat-check")
    assert code == 0
    rec = pick(records, "fermat-degree")[0]
    assert rec["degree"] == 150
    assert rec["factor_degrees"] == [25, 6, 1]
    assert elapsed < 10.0, f"fermat-check took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 4: PASS - Fermat closed forms verified symbolically, "
        "degree 25 * 6 * 1 = 150"
    )


def test_criterion_5_fiber_counts(fiber_runs):
    for (prime, seed), (report, elapsed) in fiber_runs.items():
        assert report["resultant_degree"] == 600, (prime, seed)
        profile = sorted(map(tuple, report["multiplicity_profile"]))
        assert profile == [(45, 4), (420, 1)], (prime, seed)
        assert report["fiber_degree"] == 420
        assert 600 - 45 * 4 == 420  # the measured bookkeeping identity
        assert elapsed < 300.0, f"fiber run took {elapsed:.1f}s"
    degrees = {rep["fiber_degree"] for rep, _ in fiber_runs.values()}
    assert degrees == {420}, "primes/seeds disagree"
    print(
        "ACCEPTANCE 5: PASS - fiber counts at primes 10007 and 3001, seeds "
        "1-3: eliminant degree 600, profile {(420, 1), (45, 4)}, fiber 420 "
        "(600 - 45*4 = 420)"
    )


def test_criterion_6_arc_suite():
    from quintic_moduli.arc_limits import (
        FlexNormalForm,
        arc_limit,
        arc_limit_numeric,
        classify_arc,
    )
    from quintic_moduli.invariants import OneDouble, TwoDoubles

    start = time.perf_counter()
    arcs = make_arc_suite(100, seed=42)
    nf = FlexNormalForm.default()
    expected_by_case = {
        0: ("beta-dominant-j0",),
        1: ("alpha-dominant-j1728",),
        2: ("intermediate-j0", "intermediate-j1728"),
        3: ("balanced", "balanced-degenerate"),
    }
    for trial, arc in enumerate(arcs):
        label = classify_arc(arc)[0]
        assert label in expected_by_case[trial % 4], (trial, label)
        sym = arc_limit(arc)
        if label == "beta-dominant-j0" or label == "intermediate-j0":
            assert sym == OneDouble(Fraction(0))
        elif label.endswith("j1728"):
            assert sym == OneDouble(Fraction(1728))
        elif label == "balanced":
            a0 = arc.alpha_lead[1]
            b0 = arc.beta_lead[1]
            assert sym == OneDouble(
                Fraction(1728) * 4 * a0**3 / (4 * a0**3 - 27 * b0**2)
            )
        else:
            assert sym == TwoDoubles()
        numeric = arc_limit_numeric(nf, arc)
        if isinstance(sym, TwoDoubles):
            assert numeric.diverged, f"arc {trial}: numeric did not diverge"
        else:
            target = float(sym.j)
            error = abs(numeric.j - target)
            # relative 1e-6 away from zero, absolute 1e-6 near zero
            bound = 1e-6 * max(1.0, abs(target))
            assert error <= bound, f"arc {trial}: |{numeric.j} - {target}| = {error}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"arc suite took {elapsed:.1f}s"

    # the CLI surface agrees with the library on one representative per case
    for alpha, beta in (
        ("0,1", "0,1"),
        ("0,1", ""),
        ("0,0,0,1", "0,0,0,0,1"),
        ("0,0,1", "0,0,0,1"),
    ):
        argv = ["arc-limit", "--alpha", alpha, "--numeric"]
        if beta:
            argv += ["--beta", beta]
        code, records, _ = run_cli(*argv)
        assert code == 0
        assert pick(records, "arc-limit-numeric")[0]["agrees_with_symbolic"] is True
    print(
        "ACCEPTANCE 6: PASS - 100-arc suite matches the case table and the "
        f"numeric extrapolation within 1e-6 ({elapsed:.1f}s)"
    )


def test_criterion_7_invariant_property_suite():
    import random

    from quintic_moduli.binary_forms import BinaryQuintic
    from quintic_moduli.elimination import resultant_uni
    from quintic_moduli.invariants import (
        discriminant_invariant,
        find_fundamental_relation,
        invariants,
    )
    from quintic_moduli.scalars import QQ

    from conftest import relation_value

    start = time.perf_counter()
    rng = random.Random(2026)
    kappa = Fraction(1, 3125)  # derived constant, frozen (see test_invariants)
    weights = (10, 20, 30, 45)

    def random_quintic(lo=-9, hi=9):
        while True:
            coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(6)]
            if any(coeffs):
                return BinaryQuintic(QQ, coeffs)

    covariance_checked = 0
    while covariance_checked < 500:
        f = random_quintic(-4, 4)
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        g = BinaryQuintic(QQ, f.substituted(((a, b), (c, d))).coeffs)
        for w, value, transformed in zip(weights, invariants(f), invariants(g)):
            assert transformed == det**w * value
        covariance_checked += 1

    for _ in range(100):
        root = Fraction(rng.randint(-6, 6))
        coeffs = [Fraction(1)]
        for r in (root, root, root, Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6))):
            new = [Fraction(0)] * (len(coeffs) + 1)
            for k, cc in enumerate(coeffs):
                new[k] += cc
                new[k + 1] -= cc * r
            coeffs = new
        iv = invariants(BinaryQuintic(QQ, coeffs))
        assert tuple(iv) == (0, 0, 0, 0)

    disc_checked = 0
    while disc_checked < 500:
        f = random_quintic()
        uni = f.to_unipoly()
        if uni.degree != 5:
            continue
        disc = resultant_uni(uni, uni.derivative()) / uni.lc
        assert discriminant_invariant(invariants(f)) == kappa * disc
        disc_checked += 1

    relation = find_fundamental_relation(seed=0)  # asserts null space dim 1
    for _ in range(100):
        assert relation_value(invariants(random_quintic()), relation) == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 7: PASS - covariance on 500 substitutions, nullform "
        "vanishing on 100 triple-root quintics, discriminant = disc/3125 on "
        f"500 quintics, unique degree-36 relation ({elapsed:.1f}s)"
    )


def test_criterion_8_cross_route_agreement(fiber_runs):
    from quintic_moduli.gw_recursion import SYM_I1_A1_5, evaluate_chain
    from quintic_moduli.intersection_ledger import (
        combinatorial_degree,
        degree_via_ledger,
        plucker_counts,
    )

    ledger_degree = degree_via_ledger()
    counts = plucker_counts(5)
    configuration_degree = combinatorial_degree(counts.bitangent_count, counts.flex_count)
    chain_degree = evaluate_chain()[SYM_I1_A1_5].constant_value()
    fiber_degrees = {rep["fiber_degree"] for rep, _ in fiber_runs.values()}
    assert len(fiber_degrees) == 1
    fiber_degree = fiber_degrees.pop()
    assert ledger_degree == configuration_degree == chain_degree == fiber_degree == 420
    print(
        "ACCEPTANCE 8: PASS - all four routes agree: ledger 420, "
        "configuration count 420, degeneration chain 420, fiber count 420"
    )
