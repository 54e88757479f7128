"""Exact tools for counting lines with a prescribed intersection moduli.

Fix a general plane quintic.  Sending a line to the PGL(2)-moduli of its
five intersection points with the curve defines a generically finite map
from the dual plane to the weighted projective plane WP(1, 2, 3); this
package computes its degree (420) by independent exact routes — an
intersection-theory ledger on the resolved dual plane, a degenerate-
configuration count (2 per bitangent + 4 per flex), a degeneration-axiom
chain, and a finite-field fiber count — plus the special Fermat value 150.
"""

from .arc_limits import (
    ArcSpec,
    FlexNormalForm,
    NumericLimit,
    ProjectivePair,
    arc_case_label,
    arc_limit,
    arc_limit_numeric,
    exceptional_coordinate,
)
from .binary_forms import BinaryForm, BinaryQuintic, transvectant
from .elimination import (
    gcd_uni,
    resultant_bivar_elim,
    resultant_uni,
    squarefree_decomposition,
    xgcd_uni,
)
from .fiber_counting import (
    FiberCountError,
    FiberReport,
    build_fiber_system,
    count_fiber,
)
from .gw_recursion import (
    GWSymbol,
    RationalInR,
    base_values,
    chain_trace,
    evaluate_chain,
    r_independence_check,
)
from .intersection_ledger import (
    DivisorClass,
    Ledger,
    build_ledger,
    combinatorial_degree,
    degree_via_ledger,
    derivation_table,
    m05_cross_check,
    self_intersection,
    solve_pullback_multiplicities,
    wps_section_self_intersection,
)
from .invariants import (
    ConfigClass,
    InvariantVector,
    OneDouble,
    Smooth5,
    TwoDoubles,
    UnstableQuinticError,
    WPPoint,
    discriminant_invariant,
    find_fundamental_relation,
    invariant_triple,
    invariants,
    is_stable,
    j_from_cross_ratio,
    moduli_point,
)
from .plane_curves import (
    GenericityReport,
    LineChart,
    LineInCurveError,
    PlaneCurve,
    PluckerCounts,
    fermat_degree_factorization,
    fermat_quintic,
    genericity_report,
    hessian,
    load_curve,
    phi,
    plucker_counts,
    restrict_to_line,
)
from .polys import MultiPoly, PolynomialRing, UniPoly, interpolate
from .scalars import GF, QQ, Field, PrimeField, RationalField

__all__ = [name for name in dir() if not name.startswith("_")]
