"""Command-line front end; every pipeline with reproducible flags.

Two output modes: human-readable text (default) and ``--format jsonl``,
one JSON object per line with stable, sorted keys.  Every run echoes its
configuration (command, seed, primes, files) in the first record so the
output is reproducible byte for byte from the echo.  Exit status 0 means
the command produced its report; computational failures exit nonzero
after emitting a machine-readable failure record.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arc_limits import (
    ArcSpec,
    FlexNormalForm,
    arc_limit_numeric,
    classify_arc,
)
from .binary_forms import BinaryQuintic
from .fiber_counting import FiberCountError, count_fiber
from .gw_recursion import (
    SYM_I0_A1A1A1_BRM3,
    SYM_I1_A1_5,
    SYM_I1_A1A1A1A2,
    chain_trace,
    evaluate_chain,
    r_independence_check,
)
from .intersection_ledger import combinatorial_degree, degree_via_ledger, derivation_table
from .invariants import (
    UnstableQuinticError,
    discriminant_invariant,
    find_fundamental_relation,
    invariants,
    is_stable,
    moduli_point,
    RELATION_MONOMIALS,
)
from .plane_curves import (
    LineChart,
    genericity_report,
    load_curve,
    plucker_counts,
    fermat_degree_factorization,
    restrict_to_line,
)
from .scalars import GF, QQ


def _fmt(value):
    """JSON-safe rendering of exact values."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


class Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict):
        if self.fmt == "jsonl":
            print(json.dumps(_fmt(record), sort_keys=True))
        else:
            kind = record.get("record", "")
            fields = ", ".join(
                f"{k}={_fmt(v)}" for k, v in record.items() if k != "record"
            )
            print(f"[{kind}] {fields}")

    def fail(self, message: str, **extra) -> int:
        self.emit({"record": "failure", "message": message, **extra})
        return 1


def _parse_rational_list(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _field_for(prime: int | None):
    return GF(prime) if prime else QQ


def _parse_quintic(text: str, prime: int | None) -> BinaryQuintic:
    values = _parse_rational_list(text)
    if len(values) != 6:
        raise ValueError("a binary quintic needs 6 comma-separated coefficients")
    field = _field_for(prime)
    return BinaryQuintic(field, [field.from_fraction(v) for v in values])


def _parse_frame(text: str, field):
    if text == "identity":
        one, zero = field.one, field.zero
        return ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    values = _parse_rational_list(text)
    if len(values) != 9:
        raise ValueError("a frame needs 9 comma-separated entries (row major)")
    vals = [field.from_fraction(v) for v in values]
    return tuple(tuple(vals[3 * r + c] for c in range(3)) for r in range(3))


def _echo(out: Reporter, args, command: str, **extra):
    record = {"record": "config", "command": command}
    for key in ("curve", "prime", "primes", "seed", "retries", "r", "tolerance"):
        if hasattr(args, key) and getattr(args, key) is not None:
            record[key] = getattr(args, key)
    record.update(extra)
    out.emit(record)


def cmd_invariants(args, out: Reporter) -> int:
    f = _parse_quintic(args.quintic, args.prime)
    iv = invariants(f)
    out.emit(
        {
            "record": "invariants",
            "i4": iv.i4,
            "i8": iv.i8,
            "i12": iv.i12,
            "i18": iv.i18,
            "discriminant": discriminant_invariant(iv),
            "stable": is_stable(f),
        }
    )
    return 0


def cmd_moduli(args, out: Reporter) -> int:
    f = _parse_quintic(args.quintic, args.prime)
    try:
        point = moduli_point(f).normalised()
    except UnstableQuinticError as exc:
        return out.fail(str(exc), reason="unstable-quintic")
    out.emit({"record": "moduli", "point": list(point.coords()), "weights": [1, 2, 3]})
    return 0


def cmd_restrict(args, out: Reporter) -> int:
    field = _field_for(args.prime)
    curve = load_curve(args.curve, QQ)
    if args.prime:
        curve = curve.reduce_mod(field)
    frame = _parse_frame(args.frame, field)
    a = field.from_fraction(Fraction(args.a))
    b = field.from_fraction(Fraction(args.b))
    chart = LineChart(field, frame, a, b)
    f = restrict_to_line(curve, chart)
    record = {"record": "restriction", "coefficients": list(f.coeffs), "stable": is_stable(f)}
    if record["stable"]:
        record["moduli"] = list(moduli_point(f).normalised().coords())
    out.emit(record)
    return 0


def cmd_genericity(args, out: Reporter) -> int:
    curve = load_curve(args.curve, QQ)
    report = genericity_report(curve, args.prime, seed=args.seed)
    out.emit(
        {
            "record": "genericity",
            "prime": report.prime,
            "seed": report.seed,
            "smooth": report.smooth,
            "flex_cycle_ok": report.flex_cycle_ok,
            "distinct_flexes": report.distinct_flex_count,
            "flexes_verified": report.flexes_verified,
            "flex_total": report.flex_total,
            "higher_flex_ok": report.higher_flex_ok,
            "generic": report.generic,
            "frames_tried": report.frames_tried,
            "notes": report.notes,
        }
    )
    return 0


def cmd_plucker(args, out: Reporter) -> int:
    counts = plucker_counts(args.d)
    out.emit(
        {
            "record": "plucker",
            "d": args.d,
            "dual_degree": counts.dual_degree,
            "flex_count": counts.flex_count,
            "bitangent_count": counts.bitangent_count,
            "combinatorial_degree": combinatorial_degree(
                counts.bitangent_count, counts.flex_count
            ),
        }
    )
    return 0


def cmd_degree_ledger(args, out: Reporter) -> int:
    for row in derivation_table():
        out.emit({"record": "ledger-row", **row})
    degree = degree_via_ledger()
    combinatorial = combinatorial_degree(120, 45)
    agree = degree == combinatorial
    out.emit(
        {
            "record": "degree",
            "via_intersection_ledger": degree,
            "via_degenerate_configuration_count": combinatorial,
            "agree": agree,
        }
    )
    return 0 if agree else out.fail("the two degree routes disagree")


def cmd_fermat_check(args, out: Reporter) -> int:
    degree = fermat_degree_factorization()
    out.emit({"record": "fermat-degree", "degree": degree, "factor_degrees": [25, 6, 1]})
    return 0


def cmd_arc_limit(args, out: Reporter) -> int:
    alpha = _parse_rational_list(args.alpha) if args.alpha else []
    beta = _parse_rational_list(args.beta) if args.beta else []
    arc = ArcSpec(alpha, beta, truncation=args.truncation)
    label, limit = classify_arc(arc)
    record = {"record": "arc-limit", "case": label}
    j_exact = None
    if hasattr(limit, "j"):
        j_exact = limit.j
        record["configuration"] = "one-double"
        record["j"] = j_exact
    else:
        record["configuration"] = "two-doubles"
        record["j"] = "infinity"
    out.emit(record)
    if args.numeric:
        numeric = arc_limit_numeric(
            FlexNormalForm.default(), arc, target_error=args.tolerance / 100
        )
        rec = {
            "record": "arc-limit-numeric",
            "diverged": numeric.diverged,
            "points_used": numeric.points_used,
        }
        if numeric.diverged:
            agree = j_exact is None
            rec["agrees_with_symbolic"] = agree
        else:
            rec["j_numeric"] = numeric.j
            rec["error_estimate"] = numeric.error
            if j_exact is None:
                agree = False
            else:
                jv = float(j_exact)
                agree = abs(numeric.j - jv) <= args.tolerance * max(1.0, abs(jv))
            rec["agrees_with_symbolic"] = agree
        out.emit(rec)
        if not agree:
            return out.fail("numeric oracle disagrees with the symbolic case table")
    return 0


def cmd_fiber_count(args, out: Reporter) -> int:
    curve = load_curve(args.curve, QQ)
    primes = args.prime or [10007]
    fiber_degrees = []
    for prime in primes:
        try:
            report = count_fiber(curve, prime, seed=args.seed, max_retries=args.retries)
        except FiberCountError as exc:
            return out.fail(str(exc), prime=prime, causes=list(exc.causes))
        out.emit(
            {
                "record": "fiber-report",
                "prime": report.prime,
                "seed": report.seed,
                "frame": [list(r) for r in report.frame],
                "target": list(report.target),
                "resultant_degree": report.resultant_degree,
                "multiplicity_profile": [list(p) for p in report.multiplicity_profile],
                "fiber_degree": report.fiber_degree,
                "flex_part": list(report.flex_part),
                "retries": report.retries,
                "causes": list(report.causes),
            }
        )
        fiber_degrees.append(report.fiber_degree)
    if len(set(fiber_degrees)) > 1:
        return out.fail(
            "fiber degrees disagree across primes", degrees=fiber_degrees
        )
    out.emit({"record": "fiber-degree", "degree": fiber_degrees[0], "primes": primes})
    return 0


def cmd_gw_recursion(args, out: Reporter) -> int:
    values = evaluate_chain()
    for line in chain_trace():
        out.emit({"record": "trace", "line": line})
    final = values[SYM_I1_A1_5]
    out.emit(
        {
            "record": "gw-values",
            "I1(a1^5)": str(final),
            "I1(a1^3 a2)": str(values[SYM_I1_A1A1A1A2]),
            "I0(a1^3 b{r-3})": str(values[SYM_I0_A1A1A1_BRM3]),
            "r_free": final.is_constant(),
            "degree": final.constant_value(),
        }
    )
    if args.r:
        ok = r_independence_check(args.r)
        out.emit({"record": "r-spot-check", "r_values": args.r, "all_equal_420": ok})
        if not ok:
            return out.fail("numeric spot check disagrees with the symbolic value")
    return 0


def cmd_relation(args, out: Reporter) -> int:
    coefficients = find_fundamental_relation(seed=args.seed)
    out.emit(
        {
            "record": "fundamental-relation",
            "monomials": [list(m) for m in RELATION_MONOMIALS],
            "monomial_exponents_of": ["i4", "i8", "i12", "i18"],
            "coefficients": coefficients,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintic-moduli",
        description=(
            "Exact workbench for the degree of the map sending a line to the "
            "moduli of its 5 intersection points with a fixed plane quintic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve=False, prime=False, primes=False, seed=False, retries=False):
        p.add_argument("--format", choices=("text", "jsonl"), default="text")
        if curve:
            p.add_argument("--curve", required=True, help="curve file (JSON records)")
        if prime:
            p.add_argument("--prime", type=int, default=None)
        if primes:
            p.add_argument(
                "--prime",
                type=int,
                action="append",
                dest="prime",
                help="repeatable; defaults to 10007",
            )
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if retries:
            p.add_argument("--retries", type=int, default=8)
        return p

    p = common(sub.add_parser("invariants", help="invariants of a binary quintic"), prime=True)
    p.add_argument("--quintic", required=True, help="6 comma-separated coefficients")
    p.set_defaults(func=cmd_invariants)

    p = common(sub.add_parser("moduli", help="moduli point of a binary quintic"), prime=True)
    p.add_argument("--quintic", required=True)
    p.set_defaults(func=cmd_moduli)

    p = common(sub.add_parser("restrict", help="restrict a curve to a chart line"), curve=True, prime=True)
    p.add_argument("--frame", default="identity", help="'identity' or 9 comma values")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_restrict)

    p = common(sub.add_parser("genericity", help="exact genericity checks mod p"), curve=True, seed=True)
    p.add_argument("--prime", type=int, default=10007)
    p.set_defaults(func=cmd_genericity)

    p = common(sub.add_parser("plucker", help="dual degree / flex / bitangent counts"))
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_plucker)

    p = common(sub.add_parser("degree-ledger", help="degree via the blow-up intersection ledger"))
    p.set_defaults(func=cmd_degree_ledger)

    p = common(sub.add_parser("fermat-check", help="Fermat quintic closed forms and degree 150"))
    p.set_defaults(func=cmd_fermat_check)

    p = common(sub.add_parser("arc-limit", help="limit configuration along an arc"))
    p.add_argument("--alpha", default="", help="comma coefficients from t^0")
    p.add_argument("--beta", default="", help="comma coefficients from t^0")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--numeric", action="store_true", help="run the numeric cross-check")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_arc_limit)

    p = common(
        sub.add_parser("fiber-count", help="count the fiber over a random moduli target"),
        curve=True,
        primes=True,
        seed=True,
        retries=True,
    )
    p.set_defaults(func=cmd_fiber_count)

    p = common(sub.add_parser("gw-recursion", help="degeneration-axiom chain, exact in r"))
    p.add_argument("--r", type=lambda s: [int(x) for x in s.split(",")], default=None)
    p.set_defaults(func=cmd_gw_recursion)

    p = common(sub.add_parser("relation", help="the degree-36 relation among the invariants"), seed=True)
    p.set_defaults(func=cmd_relation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Reporter(args.format)
    _echo(out, args, args.command)
    try:
        return args.func(args, out)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        return out.fail(str(exc), error_type=type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
