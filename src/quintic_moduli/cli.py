"""Command-line front end; every pipeline with reproducible flags.

Two output modes: human-readable text (default) and ``--format jsonl``,
one JSON object per line with stable, sorted keys.  Every run echoes its
configuration (command, seed, primes, files) in the first record so the
output is reproducible byte for byte from the echo.  Exit status 0 means
the command produced its report; computational failures exit nonzero
after emitting a machine-readable failure record, and so do command-line
usage errors (exit 2, usage on stderr).

Each ``cmd_*`` imports the package modules it runs when it runs, so a
process compiles only those: ``degree-ledger`` and ``plucker`` load the
intersection ledger and its linear algebra, ``gw-recursion`` the
degeneration chain alone, and none of the three loads the invariant chain
or the GF(p) kernels.
Module level holds the parser, the reporter and the scalar fields alone,
and ``import quintic_moduli`` itself loads no submodule.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

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


class UsageError(Exception):
    """A malformed command line; ``main`` reports it as a failure record."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(f"{parser.prog}: error: {message}")
        self.usage = parser.format_usage()


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit.

    A word that starts with ``-`` and a digit (``-1,0,0,0,0,1``, ``-1/2``)
    is a value, not an option name.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,/.]*$")

    def error(self, message):
        raise UsageError(self, message)


class _Primes(argparse.Action):
    """A repeatable ``--prime`` whose first use replaces the default list."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [value] if given is self.default else [*given, value])


def _requested_format(argv: list[str]) -> str:
    """The ``--format`` of a command line that failed to parse; text if unreadable."""
    pre = _Parser(add_help=False)
    pre.add_argument("--format", choices=("text", "jsonl"), default="text")
    try:
        return pre.parse_known_args(argv)[0].format
    except UsageError:
        return "text"


def _parse_rational_list(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _field_for(prime: int | None):
    return QQ if prime is None else GF(prime)


def _parse_quintic(text: str, prime: int | None):
    from .binary_forms import BinaryQuintic

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


def _echo(out: Reporter, args):
    record = {"record": "config", "command": args.command}
    for key in ("curve", "prime", "seed", "r"):
        if hasattr(args, key) and getattr(args, key) is not None:
            record[key] = getattr(args, key)
    out.emit(record)


def cmd_invariants(args, out: Reporter) -> int:
    from .invariants import discriminant_invariant, invariants, is_stable

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
    from .invariants import UnstableQuinticError, moduli_point

    f = _parse_quintic(args.quintic, args.prime)
    try:
        point = moduli_point(f).normalised()
    except UnstableQuinticError as exc:
        return out.fail(str(exc), reason="unstable-quintic")
    out.emit({"record": "moduli", "point": list(point.coords()), "weights": [1, 2, 3]})
    return 0


def cmd_restrict(args, out: Reporter) -> int:
    from .invariants import is_stable, moduli_point
    from .plane_curves import LineChart, load_curve, restrict_to_line

    field = _field_for(args.prime)
    curve = load_curve(args.curve)
    if args.prime is not None:
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
    from .plane_curves import genericity_report, load_curve

    curve = load_curve(args.curve)
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
    from .intersection_ledger import combinatorial_degree, plucker_counts

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
    from .intersection_ledger import combinatorial_degree, derivation_table, plucker_counts

    rows = derivation_table()
    for row in rows:
        out.emit({"record": "ledger-row", **row})
    degree = next(row["value"] for row in rows if row["quantity"] == "degree")
    counts = plucker_counts(5)
    combinatorial = combinatorial_degree(counts.bitangent_count, counts.flex_count)
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
    from .invariants import FERMAT_FACTOR_DEGREES, fermat_degree_factorization

    degree = fermat_degree_factorization()
    out.emit(
        {"record": "fermat-degree", "degree": degree, "factor_degrees": FERMAT_FACTOR_DEGREES}
    )
    return 0


#: Relative agreement asked of the numeric j with the case table's.
ARC_AGREEMENT = 1e-6


def cmd_arc_limit(args, out: Reporter) -> int:
    from .arc_limits import ArcSpec, FlexNormalForm, arc_limit_numeric, classify_arc

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
        numeric = arc_limit_numeric(FlexNormalForm.default(), arc)
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
                agree = abs(numeric.j - jv) <= ARC_AGREEMENT * max(1.0, abs(jv))
            rec["agrees_with_symbolic"] = agree
        out.emit(rec)
        if not agree:
            return out.fail("numeric oracle disagrees with the symbolic case table")
    return 0


def cmd_fiber_count(args, out: Reporter) -> int:
    from .fiber_counting import FiberCountError, count_fiber
    from .plane_curves import load_curve

    curve = load_curve(args.curve)
    fiber_degrees = []
    for prime in args.prime:
        try:
            report = count_fiber(curve, prime, seed=args.seed)
        except FiberCountError as exc:
            return out.fail(str(exc), prime=prime, causes=list(exc.causes))
        out.emit({"record": "fiber-report", **vars(report)})
        fiber_degrees.append(report.fiber_degree)
    if len(set(fiber_degrees)) > 1:
        return out.fail(
            "fiber degrees disagree across primes", degrees=fiber_degrees
        )
    out.emit({"record": "fiber-degree", "degree": fiber_degrees[0], "primes": args.prime})
    return 0


def cmd_gw_recursion(args, out: Reporter) -> int:
    from .gw_recursion import (
        SYM_I0_A1A1A1_BRM3,
        SYM_I1_A1_5,
        SYM_I1_A1A1A1A2,
        chain_trace,
        evaluate_chain,
        r_independence_check,
    )

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
    from .invariants import RELATION_MONOMIALS, find_fundamental_relation

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
    parser = _Parser(
        prog="quintic-moduli",
        description=(
            "Exact workbench for the degree of the map sending a line to the "
            "moduli of its 5 intersection points with a fixed plane quintic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve=False, prime=False, primes=False, seed=False):
        p.add_argument("--format", choices=("text", "jsonl"), default="text")
        if curve:
            p.add_argument("--curve", required=True, help="curve file (JSON records)")
        if prime:
            p.add_argument("--prime", type=int, default=None)
        if primes:
            p.add_argument(
                "--prime",
                type=int,
                action=_Primes,
                default=[10007],
                help="repeatable; defaults to 10007",
            )
        if seed:
            p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(func=cmd_arc_limit)

    p = common(
        sub.add_parser("fiber-count", help="count the fiber over a random moduli target"),
        curve=True,
        primes=True,
        seed=True,
    )
    p.set_defaults(func=cmd_fiber_count)

    p = common(sub.add_parser("gw-recursion", help="degeneration-axiom chain, exact in r"))
    p.add_argument("--r", type=lambda s: [int(x) for x in s.split(",")], default=None)
    p.set_defaults(func=cmd_gw_recursion)

    p = common(sub.add_parser("relation", help="the degree-36 relation among the invariants"), seed=True)
    p.set_defaults(func=cmd_relation)

    return parser


def _run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(exc.usage)
        Reporter(_requested_format(argv)).fail(str(exc), error_type="UsageError")
        return 2
    out = Reporter(args.format)
    _echo(out, args)
    try:
        return args.func(args, out)
    except BrokenPipeError:
        raise
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        return out.fail(str(exc), error_type=type(exc).__name__)


def main(argv=None) -> int:
    """Run one command line; its exit status.  A reader that closes stdout
    early (``| head -1``) ends the run with status 1 and nothing on stderr:
    stdout then points at ``os.devnull``, so the interpreter's last flush
    cannot fail."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
