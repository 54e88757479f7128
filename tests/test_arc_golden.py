"""Seeded ``arc_limit_numeric`` reports, pinned line by line.

The sixteen arc shapes of the benchmark's ``arc-oracle`` cycle (four per
limit regime, two of them engineered two-double-point arcs), with
coefficients drawn at three fixed seeds: one JSON line per arc with re(j),
the error estimate, the points used and skipped, and whether the sequence
diverged.  Im(j) is left out: it is float noise around zero, and a change
to the root solver may move it below 1e-100.  A faster solver must leave
every line as it is.  Regenerate the golden file (after a deliberate
change to what the oracle computes) with

    PYTHONPATH=src python tests/test_arc_golden.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from quintic_moduli.arc_limits import ArcSpec, FlexNormalForm, arc_limit_numeric

from conftest import REPO_ROOT, _nonzero

GOLDEN = REPO_ROOT / "tests" / "golden" / "arc_reports.jsonl"
SEEDS = (11, 12, 13)

# (regime, a, b) as in the benchmark:
#   0 beta-dominant (m, n), m <= n      1 alpha-dominant (n, m or None), m >= 2n
#   2 intermediate (n, m), n < m < 2n   3 balanced (k, degenerate): (2k, 3k)
ARC_SHAPES = [
    (0, 1, 1), (1, 1, None), (2, 3, 4), (3, 1, False),
    (0, 1, 3), (1, 1, 2), (2, 3, 5), (3, 2, False),
    (0, 2, 2), (1, 2, 5), (2, 4, 5), (3, 1, True),
    (0, 3, 4), (1, 3, 7), (2, 4, 7), (3, 2, True),
]


def _arc(rng, shape) -> ArcSpec:
    """One arc of the given shape with seeded coefficients (tails included)."""
    Z = Fraction(0)
    case, a, b = shape
    if case == 0:
        m, n = a, b
        alpha = [Z] * n + [Fraction(rng.randint(-6, 6))]
        alpha += [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        beta = [Z] * m + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    elif case == 1:
        n, m = a, b
        alpha = [Z] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
        beta = [] if m is None else [Z] * m + [_nonzero(rng)]
    elif case == 2:
        n, m = a, b
        alpha = [Z] * n + [_nonzero(rng)] + [Fraction(rng.randint(-3, 3))]
        beta = [Z] * m + [_nonzero(rng)]
    else:
        k, degenerate = a, b
        a0, b0 = _nonzero(rng), _nonzero(rng)
        if degenerate:
            c = rng.choice([1, 2, -1])
            a0, b0 = Fraction(3 * c * c), Fraction(2 * c**3)  # 4 a0^3 = 27 b0^2
        alpha = [Z] * (2 * k) + [a0]
        beta = [Z] * (3 * k) + [b0]
    return ArcSpec(alpha, beta)


def render() -> str:
    """The golden text: one report per line, seeds outer, shapes inner."""
    nf = FlexNormalForm.default()
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for shape in ARC_SHAPES:
            arc = _arc(rng, shape)
            limit = arc_limit_numeric(nf, arc)
            record = {
                "seed": seed,
                "alpha": [str(c) for c in arc.alpha],
                "beta": [str(c) for c in arc.beta],
                "re_j": None if limit.j is None else limit.j.real,
                "error": limit.error,
                "points_used": limit.points_used,
                "points_skipped": limit.points_skipped,
                "diverged": limit.diverged,
            }
            lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def test_arc_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
