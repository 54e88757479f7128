"""Seeded ``genericity_report`` results, pinned field by field.

One JSON line per (curve, prime, seed): the generic quintic, the Fermat
quintic (15 hyperflexes of contact 5), the flex-bitangent quintic (44 of
45 flexes honest) and the contact-4 hyperflex (seed 0), at 2503, 3001,
10007 and 2^31 - 1, seeds 0 and 1.  Every field of the report is
recorded, notes and frames tried included.  A rewrite of the flex probe
or the singularity certificate must leave every line as it is.
Regenerate the golden file (after a deliberate change to what a report
decides) with

    PYTHONPATH=src python tests/test_genericity_golden.py
"""

from __future__ import annotations

import dataclasses
import json

from quintic_moduli.plane_curves import PlaneCurve, genericity_report

from conftest import (
    FLEX_BITANGENT_RECORDS,
    GENERIC_QUINTIC_RECORDS,
    REPO_ROOT,
    contact_four_hyperflex,
    fermat_quintic,
)

GOLDEN = REPO_ROOT / "tests" / "golden" / "genericity_reports.jsonl"
PRIMES = (2503, 3001, 10007, 2**31 - 1)
SEEDS = (0, 1)


def curves() -> dict[str, PlaneCurve]:
    return {
        "generic": PlaneCurve.from_records(GENERIC_QUINTIC_RECORDS),
        "fermat": fermat_quintic(),
        "flex-bitangent": PlaneCurve.from_records(FLEX_BITANGENT_RECORDS),
        "contact-4-hyperflex": contact_four_hyperflex(0),
    }


def render() -> str:
    """The golden text: curves outer, then primes, seeds inner."""
    lines = []
    for name, curve in curves().items():
        for prime in PRIMES:
            for seed in SEEDS:
                record = {"curve": name, **dataclasses.asdict(genericity_report(curve, prime, seed))}
                lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def test_genericity_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
