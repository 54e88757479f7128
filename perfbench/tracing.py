"""Span tracing from outside the package, and the per-layer arithmetic.

The tracer never edits the package: it replaces a function by a timing
wrapper at every place a caller looks the name up (the defining module,
each module that imported it with ``from ... import``, the package
namespace, or the class for a method).  Spans stay in memory as tuples
and are written out once, when the traced run ends.

A span is ``(name, start, end, parent, item, size)``: ``parent`` is the
index of the enclosing span or -1, ``item`` the benchmark item id and
``size`` an optional work count (interpolation points).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (span name, module, attribute).  `scalars` is deliberately absent: its
# per-operation calls would swamp the timing; their cost lands in the
# callers' self time.
WRAPPED = (
    ("binary_forms.transvectant", "binary_forms", "transvectant"),
    ("invariants.invariants", "invariants", "invariants"),
    ("invariants.invariant_triple", "invariants", "invariant_triple"),
    ("invariants.normalisation", "invariants", "_normalisation"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("polys.interpolate", "polys", "interpolate"),
    ("polys.interpolate_bivariate", "polys", "interpolate_bivariate"),
    ("elimination.resultant_bivar_elim", "elimination", "resultant_bivar_elim"),
    ("elimination.resultant_modp", "elimination", "_resultant_modp"),
    ("elimination.resultant_uni", "elimination", "resultant_uni"),
    ("elimination.squarefree_decomposition", "elimination", "squarefree_decomposition"),
    ("fiber_counting.count_fiber", "fiber_counting", "count_fiber"),
    ("fiber_counting.build_fiber_system", "fiber_counting", "build_fiber_system"),
    ("plane_curves.genericity_report", "plane_curves", "genericity_report"),
    ("plane_curves.probe_flexes", "plane_curves", "_probe_flexes"),
    ("plane_curves.composed_with_frame", "plane_curves", "PlaneCurve.composed_with_frame"),
    ("residue_rings.split_modulus", "residue_rings", "split_modulus"),
    ("intersection_ledger.degree_via_ledger", "intersection_ledger", "degree_via_ledger"),
    ("gw_recursion.evaluate_chain", "gw_recursion", "evaluate_chain"),
    ("arc_limits.arc_limit_numeric", "arc_limits", "arc_limit_numeric"),
    ("arc_limits.j_at_parameter", "arc_limits", "_j_at_parameter"),
    ("arc_limits.spread_chart", "arc_limits", "_spread_chart"),
    ("arc_limits.extrapolate", "arc_limits", "_extrapolate"),
)

PACKAGE = "quintic_moduli"


class Tracer:
    """In-memory span recorder with call wrappers and plain counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.item = None
        self._stack = [-1]

    def wrap(self, name, fn, size=None, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                n = size(args) if size else None
                spans[idx] = (name, start, end, parent, self.item, n)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_calls(self, name, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, size in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "item": item, "size": size}
                    )
                    + "\n"
                )


def replace_everywhere(original, replacement) -> int:
    """Rebind every package-level name bound to ``original``; returns the count."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer, on_result: dict) -> None:
    """Wrap every layer entry point of the package, plus mpmath's root finder.

    ``on_result`` maps a span name to a callback that reads counters off
    the value the call returned.
    """
    import importlib

    for name, mod, attr in WRAPPED:
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), on_result=on_result.get(name)))
            continue
        original = getattr(module, attr)
        size = (lambda args: len(args[0])) if name == "polys.interpolate" else None
        traced = tracer.wrap(name, original, size=size, on_result=on_result.get(name))
        if replace_everywhere(original, traced) == 0:
            raise RuntimeError(f"no call site found for {mod}.{attr}")

    # The chart restriction is a closure returned per frame; wrap what the
    # factory returns, which is what build_fiber_system calls at each point.
    fc = importlib.import_module(f"{PACKAGE}.fiber_counting")
    factory = fc._restriction_coefficients

    def traced_factory(*args, **kwargs):
        return tracer.wrap("fiber_counting.restrict", factory(*args, **kwargs))

    fc._restriction_coefficients = traced_factory

    # One sample tried = two slice evaluations (one per input polynomial).
    el = importlib.import_module(f"{PACKAGE}.elimination")
    el._eval_slices = tracer.count_calls("elimination.eval_slices", el._eval_slices)

    # arc_limit_numeric does `import mpmath as mp` and calls mp.polyroots.
    import mpmath

    mpmath.polyroots = tracer.wrap("arc_limits.polyroots", mpmath.polyroots)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by direct children."""
    children: dict[int, list] = {}
    for name, start, end, parent, item, size in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, item, size) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach, start), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost spans of that name only,
    so recursion is not double counted), self_s and summed sizes."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, item, size) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "points": 0})
        t["calls"] += 1
        t["self_s"] += selfs[idx]
        t["points"] += size or 0
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            t["busy_s"] += end - start
    return totals


def samples_used(spans) -> int:
    """Interpolation points whose interpolate span sits directly under the
    bivariate elimination: exactly the samples the eliminant was built from."""
    return sum(
        size or 0
        for name, start, end, parent, item, size in spans
        if name == "polys.interpolate"
        and parent >= 0
        and spans[parent][0] == "elimination.resultant_bivar_elim"
    )
