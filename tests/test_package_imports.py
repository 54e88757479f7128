"""The lazy package namespace and the per-command imports of the CLI.

Which modules a process has loaded depends on everything it imported
before, so each check runs in a fresh interpreter with ``PYTHONPATH=src``
and prints one JSON value for the test to read.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import REPO_ROOT

#: The public names of the package when every submodule was imported eagerly.
PUBLIC_NAMES = frozenset(
    """
    ArcSpec BinaryForm BinaryQuintic ConfigClass FiberCountError
    FiberReport Field FlexNormalForm GF GWSymbol GenericityReport InvariantVector
    LineChart LineInCurveError MultiPoly NumericLimit OneDouble PlaneCurve
    PluckerCounts PolynomialRing PrimeField QQ RationalField
    RationalInR TwoDoubles UniPoly UnstableQuinticError WPPoint
    arc_limit arc_limit_numeric arc_limits base_values
    binary_forms build_fiber_system chain_trace combinatorial_degree
    count_fiber degree_via_ledger derivation_table discriminant_invariant
    elimination evaluate_chain exceptional_coordinate fermat_degree_factorization
    fiber_counting find_fundamental_relation gcd_uni
    genericity_report gw_recursion interpolate intersection_ledger
    invariant_triple invariants is_stable linalg load_curve
    m05_cross_check moduli_point plane_curves plucker_counts polys
    r_independence_check residue_rings restrict_to_line resultant_bivar_elim
    resultant_uni scalars self_intersection solve_pullback_multiplicities
    squarefree_decomposition transvectant wps_section_self_intersection
    """.split()
)


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_public_names_match_the_eager_package():
    names = fresh(
        """
        import json, quintic_moduli
        print(json.dumps(quintic_moduli.__all__))
        """
    )
    assert len(names) == len(PUBLIC_NAMES) == 72
    assert set(names) == PUBLIC_NAMES


def test_every_public_name_resolves_to_its_defining_object():
    mismatches = fresh(
        """
        import json, sys, types
        import quintic_moduli as qm

        # read every name lazily first, then compare with the defining modules
        values = {name: getattr(qm, name) for name in qm.__all__}
        bad = []
        for name, value in values.items():
            if isinstance(value, types.ModuleType):
                home, value = qm, sys.modules["quintic_moduli." + name]
            else:
                home = sys.modules["quintic_moduli." + qm._HOME[name]]
                # a class or function must come from where it is defined,
                # not from a module that re-imports it
                defined_in = getattr(value, "__module__", "")
                if defined_in.startswith("quintic_moduli.") and defined_in != home.__name__:
                    bad.append(name)
            if getattr(home, name) is not value:
                bad.append(name)
        print(json.dumps(bad))
        """
    )
    assert mismatches == []


def test_star_import_binds_every_public_name():
    missing = fresh(
        """
        import json, quintic_moduli
        namespace = {}
        exec("from quintic_moduli import *", namespace)
        print(json.dumps([n for n in quintic_moduli.__all__
                          if namespace.get(n) is not getattr(quintic_moduli, n)]))
        """
    )
    assert missing == []


def test_unknown_names_raise_attribute_error():
    assert fresh(
        """
        import json, quintic_moduli
        print(json.dumps(hasattr(quintic_moduli, "no_such_name")))
        """
    ) is False


@pytest.mark.parametrize(
    "imports",
    [
        "import quintic_moduli.invariants\nimport quintic_moduli as qm",
        "import quintic_moduli as qm\nimport quintic_moduli.invariants",
    ],
    ids=["submodule-first", "package-first"],
)
def test_invariants_stays_the_function(imports):
    is_function = fresh(
        imports
        + """
import json, sys
module = sys.modules["quintic_moduli.invariants"]
print(json.dumps(qm.invariants is module.invariants))
"""
    )
    assert is_function is True


@pytest.mark.parametrize(
    "imports",
    [
        "import quintic_moduli.invariants\nimport quintic_moduli as qm",
        "import quintic_moduli as qm\nimport quintic_moduli.invariants",
    ],
    ids=["submodule-first", "package-first"],
)
def test_the_namespace_binds_the_function(imports):
    """The package's own namespace holds the function, not the module, so
    code that rebinds a function by scanning ``vars`` of each module finds it."""
    is_function = fresh(
        imports
        + """
import json, sys
module = sys.modules["quintic_moduli.invariants"]
print(json.dumps(vars(qm)["invariants"] is module.invariants))
"""
    )
    assert is_function is True


def test_bare_import_loads_no_submodule():
    loaded = fresh(
        """
        import json, sys
        import quintic_moduli
        print(json.dumps([m for m in sys.modules if m.startswith("quintic_moduli.")]))
        """
    )
    assert loaded == []


HEAVY = ("arc_limits", "plane_curves", "fiber_counting", "gw_recursion")


def loaded_after(argv: list[str]):
    """The exit code of one ``cli.main`` run and the package modules it
    loaded, by full name, plus ``mpmath`` if it was loaded."""
    return fresh(
        f"""
        import contextlib, io, json, sys
        from quintic_moduli import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        loaded = sorted(m for m in sys.modules if m.startswith("quintic_moduli."))
        print(json.dumps([code, loaded + ["mpmath"] * ("mpmath" in sys.modules)]))
        """
    )


def test_degree_ledger_loads_no_heavy_module():
    code, loaded = loaded_after(["degree-ledger", "--format", "jsonl"])
    assert code == 0
    assert not set(loaded) & ({"quintic_moduli." + m for m in HEAVY} | {"mpmath"})


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["degree-ledger"], {"cli", "scalars", "linalg", "intersection_ledger"}),
        (["plucker", "--d", "5"], {"cli", "scalars", "linalg", "intersection_ledger"}),
        (["gw-recursion"], {"cli", "scalars", "gw_recursion"}),
        (["fermat-check"], {"cli", "scalars", "invariants", "binary_forms", "polys"}),
    ],
    ids=["degree-ledger", "plucker", "gw-recursion", "fermat-check"],
)
def test_command_loads_only_its_modules(argv, modules):
    """The three counts of 420 in rational arithmetic never load the
    invariant chain or the GF(p) kernels; the Fermat check loads the chain
    but no curve module and no elimination."""
    code, loaded = loaded_after(argv)
    assert code == 0
    assert set(loaded) == {"quintic_moduli." + m for m in modules}


def test_genericity_loads_neither_invariants_nor_ledger():
    code, loaded = loaded_after(["genericity", "--curve", str(REPO_ROOT / "curves" / "generic.json")])
    assert code == 0
    assert "quintic_moduli.plane_curves" in loaded
    assert not set(loaded) & {"quintic_moduli.invariants", "quintic_moduli.intersection_ledger"}


def test_symbolic_arc_limit_leaves_mpmath_out():
    code, loaded = loaded_after(["arc-limit", "--alpha", "0,0,1", "--beta", "0,0,0,1"])
    assert code == 0
    assert "quintic_moduli.arc_limits" in loaded
    assert "mpmath" not in loaded


def test_no_module_of_the_package_imports_mpmath():
    importing = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importing.append(path.name)
    assert importing == []


def test_numeric_arc_limit_runs_without_mpmath():
    """README's numeric arc-limit command with mpmath unimportable prints
    the golden record."""
    command = ["arc-limit", "--alpha", "0,0,1", "--beta", "0,0,0,1", "--numeric", "--format", "jsonl"]
    golden = (REPO_ROOT / "tests" / "golden" / "readme_commands.txt").read_text(encoding="utf-8")
    block = golden.split("$ " + " ".join(command) + "\n", 1)[1].split("\nexit ", 1)[0]
    record = fresh(
        f"""
        import sys
        sys.modules["mpmath"] = None  # every import of mpmath now fails
        from quintic_moduli import cli
        sys.exit(cli.main({command!r}))
        """
    )
    assert record == json.loads(block.splitlines()[-1])
