"""The four benchmark workloads: seeded items, set-up, and answer checks.

Every workload is a closed loop with one caller: items run one after
another, each through the package's public functions, and each answer is
checked.  Items come in fixed cycles, so every run sees the stated mix; the
seed draws the inputs inside a cycle (targets, arcs, quintics, frame seeds,
command order).

An item's status is one of
  ok        the answer is right;
  wrong     an answer came back and it is wrong;
  error     an exception the API does not document for this call;
  declined  the oracle's documented refusal to answer: FiberCountError from
            count_fiber (the baseline: every Fermat count exhausts its
            retries, because the oracle accepts only the generic profile),
            or the ValueError arc_limit_numeric raises when root clustering
            is ambiguous at almost every point of its default schedule.
All but ``ok`` count as failed; ``wrong`` and ``error`` make the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GENERIC = "curves/generic.json"
FERMAT = "curves/fermat.json"

FIBER_PRIMES = (10007, 3001)
EXACT_PRIMES = (2503, 3001, 5003, 10007)
GENERIC_PROFILE = ((45, 4), (420, 1))
# The degree-36 relation normalised to I18^2 coefficient 1; it is unique,
# so every sample seed must reproduce it.
RELATION = (1, 0, 0, 0, 0, 0, 0, -9216, 18432, -9216, 663552, -73728, 3981312)
WEIGHTS = (10, 20, 30, 45)
KAPPA = Fraction(1, 3125)


def _load_curves(qm):
    return {name: qm.load_curve(ROOT / name) for name in (GENERIC, FERMAT)}


def _normalise(qm):
    # the one-time normalisation solve, through the public API
    qm.invariant_triple(qm.BinaryQuintic.from_ints(qm.QQ, (1, 0, 0, 0, 0, 1)))


def setup(workload: str) -> dict:
    """Everything an item needs before the first one can start."""
    if workload == "cli-light":
        import quintic_moduli.cli  # noqa: F401  (what every CLI item pays first)

        with open(Path(__file__).with_name("cli_expected.json"), encoding="utf-8") as fh:
            return {"commands": json.load(fh)}
    import quintic_moduli as qm

    ctx = {"qm": qm, "curves": _load_curves(qm)}
    _normalise(qm)
    if workload == "arc-oracle":
        import mpmath  # noqa: F401

        ctx["normal_form"] = qm.FlexNormalForm.default()
    return ctx


# ---------------------------------------------------------------------------
# item generation (one cycle at a time)


def _nonzero(rng, lo=-6, hi=6) -> Fraction:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return Fraction(v)


# Sixteen arc shapes, four per limit regime of the test suite's arc
# generator, spanning the exponents it draws.  The shape is fixed per slot
# and the seed draws only the coefficients: an arc's cost depends mostly on
# its shape, so a run's cost does not hinge on which shapes a seed picks.
#   beta-dominant (m, n), m <= n      alpha-dominant (n, m or None), m >= 2n
#   intermediate (n, m), n < m < 2n   balanced (k, degenerate): (2k, 3k)
ARC_SHAPES = [
    (0, 1, 1), (1, 1, None), (2, 3, 4), (3, 1, False),
    (0, 1, 3), (1, 1, 2), (2, 3, 5), (3, 2, False),
    (0, 2, 2), (1, 2, 5), (2, 4, 5), (3, 1, True),
    (0, 3, 4), (1, 3, 7), (2, 4, 7), (3, 2, True),
]


def _arc(qm, rng, shape):
    """One arc of the given shape with seeded coefficients, drawn like the
    test suite's arcs (tails included)."""
    Z = Fraction(0)
    case, a, b = shape
    if case == 0:  # beta-dominant: m <= n
        m, n = a, b
        alpha = [Z] * n + [Fraction(rng.randint(-6, 6))] + [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        beta = [Z] * m + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    elif case == 1:  # alpha-dominant: beta == 0 or m >= 2n
        n, m = a, b
        alpha = [Z] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
        beta = [] if m is None else [Z] * m + [_nonzero(rng)]
    elif case == 2:  # intermediate: n < m < 2n off the balance line
        n, m = a, b
        alpha = [Z] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
        beta = [Z] * m + [_nonzero(rng)]
    else:  # balanced: (n, m) = (2k, 3k); degenerate when 4 a0^3 = 27 b0^2
        k, degenerate = a, b
        a0, b0 = _nonzero(rng), _nonzero(rng)
        if degenerate:
            c = rng.choice([1, 2, -1])
            a0, b0 = Fraction(3 * c * c), Fraction(2 * c**3)
        alpha = [Z] * (2 * k) + [a0]
        beta = [Z] * (3 * k) + [b0]
    return qm.ArcSpec(alpha, beta)


def _quintic(qm, rng, lo, hi):
    while True:
        coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(6)]
        if any(coeffs):
            return qm.BinaryQuintic(qm.QQ, coeffs)


def _substitution(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c:
            return ((a, b), (c, d))


def cycle(workload: str, rng, ctx: dict, index: int) -> list[tuple]:
    """The items of one cycle; ``index`` rotates primes between cycles."""
    if workload == "fiber-oracle":
        # nine generic counts alternating the two primes, then one Fermat count
        items = [
            ("fiber", GENERIC, FIBER_PRIMES[k % 2], rng.randrange(2**31)) for k in range(9)
        ]
        items.append(("fiber", FERMAT, FIBER_PRIMES[index % 2], rng.randrange(2**31)))
        return items
    if workload == "arc-oracle":
        # two balanced slots are engineered two-double-point arcs, so every
        # cycle checks `diverged`
        qm = ctx["qm"]
        return [("arc", _arc(qm, rng, shape)) for shape in ARC_SHAPES]
    if workload == "exact-checks":
        qm = ctx["qm"]
        items = [("genericity", GENERIC, p, rng.randrange(1000)) for p in EXACT_PRIMES]
        items.append(("genericity", FERMAT, EXACT_PRIMES[index % 4], rng.randrange(1000)))
        for _ in range(4):
            items.append(
                ("covariance", [(_quintic(qm, rng, -4, 4), _substitution(rng)) for _ in range(10)])
            )
        for _ in range(4):
            quintics = []
            while len(quintics) < 20:
                f = _quintic(qm, rng, -9, 9)
                if f.to_unipoly().degree == 5:
                    quintics.append(f)
            items.append(("discriminant", quintics))
        items.append(("relation", rng.randrange(1000)))
        items += [("ledger",), ("chain",), ("plucker",), ("fermat-degree",)]
        return items
    if workload == "cli-light":
        commands = list(ctx["commands"])
        rng.shuffle(commands)
        return [("cli", c["argv"], c["final"]) for c in commands]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running and checking one item


def run_item(ctx: dict, item: tuple) -> tuple[float, float, str, str]:
    """Run one item; returns (start, end) of the program call, status, note."""
    kind = item[0]
    qm = ctx.get("qm")
    start = perf_counter()
    try:
        if kind == "cli":
            return _run_cli(item, start)
        if kind == "fiber":
            _, curve, prime, seed = item
            try:
                report = qm.count_fiber(ctx["curves"][curve], prime, seed)
            except qm.FiberCountError as exc:
                return start, perf_counter(), "declined", f"{len(exc.causes)} attempts"
            end = perf_counter()
            if curve == FERMAT:
                ok = report.fiber_degree == 150
            else:
                ok = (
                    report.fiber_degree == 420
                    and report.resultant_degree == 600
                    and tuple(sorted(report.multiplicity_profile)) == GENERIC_PROFILE
                )
            return start, end, _status(ok), f"fiber {report.fiber_degree}"
        if kind == "arc":
            arc = item[1]
            try:
                numeric = qm.arc_limit_numeric(ctx["normal_form"], arc)
            except ValueError as exc:
                return start, perf_counter(), "declined", f"{arc!r}: {exc}"
            end = perf_counter()
            sym = qm.arc_limit(arc)
            if isinstance(sym, qm.TwoDoubles):
                return start, end, _status(numeric.diverged), "diverged"
            target = float(sym.j)
            ok = not numeric.diverged and abs(numeric.j - target) <= 1e-6 * max(1.0, abs(target))
            return start, end, _status(ok), f"j {target}"
        if kind == "genericity":
            _, curve, prime, seed = item
            report = qm.genericity_report(ctx["curves"][curve], prime, seed)
            end = perf_counter()
            ok = report.generic if curve == GENERIC else (report.smooth and not report.generic)
            return start, end, _status(ok), f"generic {report.generic}"
        if kind == "covariance":
            ok = True
            for f, m in item[1]:
                (a, b), (c, d) = m
                det = a * d - b * c
                g = qm.BinaryQuintic(qm.QQ, f.substituted(m).coeffs)
                ok &= all(
                    y == det**w * x for w, x, y in zip(WEIGHTS, qm.invariants(f), qm.invariants(g))
                )
            return start, perf_counter(), _status(ok), ""
        if kind == "discriminant":
            ok = True
            for f in item[1]:
                uni = f.to_unipoly()
                disc = qm.resultant_uni(uni, uni.derivative()) / uni.lc
                ok &= qm.discriminant_invariant(qm.invariants(f)) == KAPPA * disc
            return start, perf_counter(), _status(ok), ""
        if kind == "relation":
            relation = qm.find_fundamental_relation(seed=item[1])
            return start, perf_counter(), _status(tuple(relation) == RELATION), ""
        if kind == "ledger":
            value = qm.degree_via_ledger()
            return start, perf_counter(), _status(value == 420), str(value)
        if kind == "chain":
            from quintic_moduli.gw_recursion import SYM_I1_A1_5

            value = qm.evaluate_chain()[SYM_I1_A1_5].constant_value()
            return start, perf_counter(), _status(value == 420), str(value)
        if kind == "plucker":
            counts = qm.plucker_counts(5)
            value = qm.combinatorial_degree(counts.bitangent_count, counts.flex_count)
            ok = tuple(counts) == (20, 45, 120) and value == 420
            return start, perf_counter(), _status(ok), str(value)
        if kind == "fermat-degree":
            value = qm.fermat_degree_factorization()
            return start, perf_counter(), _status(value == 150), str(value)
        raise ValueError(f"unknown item kind {kind!r}")
    except Exception as exc:  # an item boundary: record it and keep running
        return start, perf_counter(), "error", f"{type(exc).__name__}: {exc}"


def _status(ok: bool) -> str:
    return "ok" if ok else "wrong"


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_cli(item, start):
    _, argv, expected = item
    proc = subprocess.run(
        [sys.executable, "-m", "quintic_moduli", *argv, "--format", "jsonl"],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    end = perf_counter()
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines) and lines[-1] == expected
    return start, end, _status(ok), f"{argv[0]} exit {proc.returncode}"
