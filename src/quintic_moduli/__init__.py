"""Exact tools for counting lines with a prescribed intersection moduli.

Fix a general plane quintic.  Sending a line to the PGL(2)-moduli of its
five intersection points with the curve defines a generically finite map
from the dual plane to the weighted projective plane WP(1, 2, 3); this
package computes its degree (420) by independent exact routes — an
intersection-theory ledger on the resolved dual plane, a degenerate-
configuration count (2 per bitangent + 4 per flex), a degeneration-axiom
chain, and a finite-field fiber count — plus the special Fermat value 150.

Submodules load on first use (PEP 562): ``quintic_moduli.count_fiber``
imports ``fiber_counting`` the first time it is read, so a process pays
only for the modules it runs, and ``import quintic_moduli`` loads no
submodule at all.  The public names are the same as with eager imports.
One name needs care: the function ``invariants`` shares its name with the
submodule ``quintic_moduli.invariants``, and the import system binds the
package attribute to the module when that submodule is first imported.
The package's module class turns that binding into the function, so
``quintic_moduli.invariants`` is the function whichever is imported first.
"""

import sys
import types
from importlib import import_module


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule to its name on the package
        if name == "invariants" and isinstance(value, types.ModuleType):
            value = value.invariants
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

_EXPORTS = {
    "arc_limits": (
        "ArcSpec",
        "FlexNormalForm",
        "NumericLimit",
        "arc_limit",
        "arc_limit_numeric",
        "exceptional_coordinate",
    ),
    "binary_forms": ("BinaryForm", "BinaryQuintic", "transvectant"),
    "elimination": (
        "gcd_uni",
        "resultant_bivar_elim",
        "resultant_uni",
        "squarefree_decomposition",
    ),
    "fiber_counting": ("FiberCountError", "FiberReport", "build_fiber_system", "count_fiber"),
    "gw_recursion": (
        "GWSymbol",
        "RationalInR",
        "base_values",
        "chain_trace",
        "evaluate_chain",
        "r_independence_check",
    ),
    "intersection_ledger": (
        "PluckerCounts",
        "combinatorial_degree",
        "degree_via_ledger",
        "derivation_table",
        "m05_cross_check",
        "plucker_counts",
        "self_intersection",
        "solve_pullback_multiplicities",
        "wps_section_self_intersection",
    ),
    "invariants": (
        "ConfigClass",
        "InvariantVector",
        "OneDouble",
        "TwoDoubles",
        "UnstableQuinticError",
        "WPPoint",
        "discriminant_invariant",
        "fermat_degree_factorization",
        "find_fundamental_relation",
        "invariant_triple",
        "invariants",
        "is_stable",
        "moduli_point",
    ),
    "plane_curves": (
        "GenericityReport",
        "LineChart",
        "LineInCurveError",
        "PlaneCurve",
        "genericity_report",
        "load_curve",
        "restrict_to_line",
    ),
    "polys": ("MultiPoly", "PolynomialRing", "UniPoly", "interpolate"),
    "scalars": ("GF", "QQ", "Field", "PrimeField", "RationalField"),
}
# Submodules reachable as package attributes; `invariants` is the function.
_SUBMODULES = frozenset(_EXPORTS.keys() - {"invariants"} | {"linalg", "residue_rings"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME.keys() | _SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
