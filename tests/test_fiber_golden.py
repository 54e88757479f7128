"""Seeded ``count_fiber`` reports on the generic quintic, pinned line by line.

One JSON line per (prime, seed) for seeds 1-6 at each acceptance prime,
then at the two further primes of the exact checks (2503, 5003): the
measured multiplicity profile, the drawn frame and target, and the retries
used.  A faster kernel must leave every line as it is.  Regenerate the
golden file (after a deliberate change to what a count draws or measures)
with

    PYTHONPATH=src python tests/test_fiber_golden.py
"""

from __future__ import annotations

import json

from quintic_moduli.fiber_counting import count_fiber
from quintic_moduli.plane_curves import PlaneCurve

from conftest import ACCEPTANCE_PRIMES, GENERIC_QUINTIC_RECORDS, REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden" / "fiber_reports.jsonl"
SEEDS = range(1, 7)
PRIMES = ACCEPTANCE_PRIMES + (2503, 5003)


def render() -> str:
    """The golden text: one report per line, primes outer, seeds inner."""
    curve = PlaneCurve.from_records(GENERIC_QUINTIC_RECORDS)
    lines = []
    for prime in PRIMES:
        for seed in SEEDS:
            report = count_fiber(curve, prime, seed)
            record = {
                "prime": prime,
                "seed": seed,
                "profile": report.multiplicity_profile,
                "frame": report.frame,
                "target": report.target,
                "retries": report.retries,
            }
            lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def test_count_fiber_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
