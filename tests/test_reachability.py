"""Every def under src/ is called by a README or cli-light command, or sits
on an allowlist with the one reason it stays.

The README commands (every ``$`` line of ``tests/golden/readme_commands.txt``)
and the cli-light commands of the benchmark (``perfbench/cli_expected.json``)
run in-process through ``cli.main``, in one fresh interpreter under
``sys.setprofile``, which sees the code object of every Python call.  A def
(a function or method at any depth, found by ``ast``) counts as called when
its code object ran.  The fresh interpreter keeps the caches that earlier
tests filled (``functools.lru_cache``) from hiding a call, and a fixed
``PYTHONHASHSEED`` keeps calls that hashing could steer the same.

A def no command calls must be on ``ALLOWED`` with one of ``REASONS``, or
move out of src/ (into the tests or perfbench) or go.  An entry whose def
is gone fails too, and so does one whose def a command now calls, so the
list cannot outlive its defs or their reasons.

The polynomial products are on the list on purpose: ``BinaryForm.__mul__``,
``UniPoly.__mul__`` and their body ``polys.dense_product`` serve the tests
only, and a product back on a command's path fails the test as
"allowlisted defs a command calls".
"""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys

from conftest import REPO_ROOT
from test_tracer_names import TRACER, tracer_names

PACKAGE_DIR = REPO_ROOT / "src" / "quintic_moduli"

REASONS = {
    "tracer-wrapped": "perfbench/tracing.py wraps it by name; no command calls it",
    "benchmark API": "a perfbench workload or its checker calls it",
    "test reference": "only tests call it, as a reference or a helper",
    "user-reachable path": "user input reaches it (an error, or a prime past every seeded one)",
    "Ring interface": "an abstract method, or a Ring method generic code may call",
    "dunder": "the data model calls it, for objects no command compares, hashes or prints",
}

#: "module.qualname" -> reason, for every def no README or cli-light
#: command calls: 64 of the 304 defs under src/.
ALLOWED = {
    "__init__.__dir__": "dunder",
    "arc_limits.ArcSpec.__repr__": "dunder",
    "arc_limits.arc_limit": "benchmark API",
    "arc_limits.exceptional_coordinate": "test reference",
    "binary_forms.BinaryForm.__eq__": "dunder",
    "binary_forms.BinaryForm.__hash__": "dunder",
    "binary_forms.BinaryForm.__mul__": "dunder",
    "binary_forms.BinaryForm.__repr__": "dunder",
    "binary_forms.BinaryQuintic.from_ints": "benchmark API",
    "binary_forms.transvectant": "tracer-wrapped",
    "cli.Reporter.fail": "user-reachable path",
    "cli.UsageError.__init__": "user-reachable path",
    "cli._Parser.error": "user-reachable path",
    "cli._requested_format": "user-reachable path",
    "elimination.resultant_uni": "benchmark API",
    "fiber_counting.FiberCountError.__init__": "user-reachable path",
    "gw_recursion.RationalInR.__eq__": "dunder",
    "gw_recursion.RationalInR.__hash__": "dunder",
    "intersection_ledger.degree_via_ledger": "benchmark API",
    "invariants.WPPoint.__eq__": "dunder",
    "invariants.WPPoint.__hash__": "dunder",
    "invariants.WPPoint.__repr__": "dunder",
    "plane_curves.PlaneCurve.__eq__": "dunder",
    "plane_curves.PlaneCurve.__repr__": "dunder",
    "polys.MultiPoly.__hash__": "dunder",
    "polys.MultiPoly.__neg__": "dunder",
    "polys.MultiPoly.__repr__": "dunder",
    "polys.MultiPoly.derivative": "test reference",
    "polys.MultiPoly.sorted_terms": "test reference",
    "polys.PolynomialRing.__repr__": "dunder",
    "polys.PolynomialRing.from_fraction": "Ring interface",
    "polys.PolynomialRing.from_int": "Ring interface",
    "polys.UniPoly.__add__": "dunder",
    "polys.UniPoly.__eq__": "dunder",
    "polys.UniPoly.__hash__": "dunder",
    "polys.UniPoly.__mul__": "dunder",
    "polys.UniPoly.__repr__": "dunder",
    "polys.UniPoly.__rmul__": "dunder",
    "polys.UniPoly.eval": "test reference",
    "polys.UniPoly.from_ints": "test reference",
    "polys.UniPoly.x": "test reference",
    "polys._KroneckerRing.__repr__": "dunder",
    "polys._divided_differences": "test reference",
    "polys._newton_to_monomial": "test reference",
    "polys.dense_product": "test reference",
    "polys.interpolate_bivariate": "tracer-wrapped",
    "residue_rings.ResidueRing.__repr__": "dunder",
    "residue_rings.ResidueRing.from_fraction": "Ring interface",
    "residue_rings.ResidueRing.from_int": "Ring interface",
    "residue_rings.ResidueRing.generator": "test reference",
    "residue_rings.ResidueRing.is_zero": "Ring interface",
    "residue_rings.split_modulus": "tracer-wrapped",
    "scalars.Field.inv": "Ring interface",
    "scalars.PrimeField.__repr__": "dunder",
    "scalars.RationalField.__repr__": "dunder",
    "scalars.Ring.from_fraction": "Ring interface",
    "scalars.Ring.from_int": "Ring interface",
    "scalars.Ring.is_zero": "Ring interface",
    "scalars.Ring.pow": "benchmark API",
    "scalars._IntegerRing.__repr__": "dunder",
    "scalars._IntegerRing.from_int": "Ring interface",
    "scalars._IntegerRing.is_zero": "Ring interface",
    "scalars._jacobi": "user-reachable path",
    "scalars._strong_lucas_probable_prime": "user-reachable path",
}


def _defs() -> dict[tuple, str]:
    """(path, first line, name) -> "module.qualname" for every def under
    src/, the first line being a decorator's where there is one, as in the
    def's code object."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{prefix}{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        found[str(path), first, child.name] = f"{module}.{qualname}"
                    visit(child, qualname + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _commands() -> list[list[str]]:
    """The argv of every README command, then of every cli-light command."""
    golden = (REPO_ROOT / "tests" / "golden" / "readme_commands.txt").read_text(encoding="utf-8")
    commands = [shlex.split(line[2:]) for line in golden.splitlines() if line.startswith("$ ")]
    with open(REPO_ROOT / "perfbench" / "cli_expected.json", encoding="utf-8") as fh:
        commands += [item["argv"] for item in json.load(fh)]
    return commands


#: Runs in the child: argv[1] the package directory, stdin the commands as
#: JSON; prints the (path, first line, name) of every code object called.
_CHILD = """
import contextlib, io, json, sys
package = sys.argv[1]
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

commands = json.load(sys.stdin)
sys.setprofile(profile)
from quintic_moduli import cli
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _called(commands: list[list[str]]) -> set[tuple]:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": "0"}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(PACKAGE_DIR)],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        check=True,
    )
    return {tuple(key) for key in json.loads(child.stdout)}


def test_every_def_under_src_is_called_or_allowed():
    defs = _defs()
    called = _called(_commands())
    uncalled = {name for key, name in defs.items() if key not in called}
    assert sorted(uncalled - ALLOWED.keys()) == [], "defs no command calls"
    assert sorted(ALLOWED.keys() - set(defs.values())) == [], "allowlisted defs that are gone"
    assert sorted(ALLOWED.keys() - uncalled) == [], "allowlisted defs a command calls"
    assert set(ALLOWED.values()) <= REASONS.keys()


def test_every_tracer_wrapped_def_is_one_the_tracer_wraps_or_patches():
    wrapped, patched = tracer_names(TRACER.read_text(encoding="utf-8"))
    traced = {f"{mod}.{attr}" for mod, attr in [*wrapped, *patched]}
    listed = {name for name, reason in ALLOWED.items() if reason == "tracer-wrapped"}
    assert sorted(listed - traced) == []


def test_the_profile_sees_called_and_uncalled_defs():
    # the one command `plucker` calls plucker_counts and not the arc oracle
    called = _called([["plucker", "--d", "5"]])
    names = {name for key, name in _defs().items() if key in called}
    assert "intersection_ledger.plucker_counts" in names
    assert "arc_limits.arc_limit_numeric" not in names
