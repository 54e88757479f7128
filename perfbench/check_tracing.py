"""Self-test of the span arithmetic in tracing.py.

    python3 perfbench/check_tracing.py

Runs before every traced benchmark run as well.  Covers a parent with two
back-to-back children (one of which has a nested grandchild), a recursive
name whose busy time must not be counted twice, and children that stick
out of their parent's interval.
"""

from __future__ import annotations

import sys

from tracing import samples_used, span_totals, self_times


def _expect(label, got, want):
    if abs(got - want) > 1e-12:
        raise ArithmeticError(f"{label}: got {got!r}, want {want!r}")


def check() -> None:
    #        name   start end  parent item size
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),  # 0
        ("a", 1.0, 3.0, 0, 0, None),  # 1: back-to-back with 2
        ("b", 3.0, 6.0, 0, 0, None),  # 2
        ("c", 4.0, 5.0, 2, 0, None),  # 3: grandchild of root, child of b
        ("a", 7.0, 9.0, 0, 0, None),  # 4: recursive a ...
        ("a", 7.5, 8.0, 4, 0, None),  # 5: ... nested in a
        ("out", 20.0, 30.0, -1, 1, None),  # 6: children overhanging it
        ("d", 19.0, 21.0, 6, 1, None),  # 7
        ("d", 29.0, 31.0, 6, 1, None),  # 8
    ]
    selfs = self_times(spans)
    _expect("root self", selfs[0], 10 - (2 + 3 + 2))
    _expect("b self", selfs[2], 3 - 1)
    _expect("outer a self", selfs[4], 2 - 0.5)
    _expect("overhang self", selfs[6], 10 - 1 - 1)
    totals = span_totals(spans)
    _expect("a calls", totals["a"]["calls"], 3)
    _expect("a busy", totals["a"]["busy_s"], 2 + 2)  # the nested a is inside the outer one
    _expect("a self", totals["a"]["self_s"], 2 + 1.5 + 0.5)
    _expect("c busy", totals["c"]["busy_s"], 1)

    elim = [
        ("elimination.resultant_bivar_elim", 0.0, 2.0, -1, 0, None),
        ("polys.interpolate", 1.0, 2.0, 0, 0, 601),
        ("polys.interpolate", 3.0, 4.0, -1, 0, 31),
    ]
    _expect("samples used", samples_used(elim), 601)


if __name__ == "__main__":
    check()
    print("span arithmetic ok")
    sys.exit(0)
