import importlib
import json
import re

import pytest

from quintic_moduli.cli import main

from conftest import CURVES_DIR, REPO_ROOT

GENERIC = str(CURVES_DIR / "generic.json")
FERMAT = str(CURVES_DIR / "fermat.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def by_kind(out, kind):
    return [r for r in records(out) if r["record"] == kind]


def test_console_script_targets_cli_main():
    # a regex, not tomllib: Python 3.10 has no TOML reader in the standard library
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, "pyproject.toml declares no [project.scripts]"
    target = re.search(r'^quintic-moduli\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    assert target, "no quintic-moduli console script"
    module, attr = target.groups()
    assert (module, attr) == ("quintic_moduli.cli", "main")
    assert getattr(importlib.import_module(module), attr) is main


def test_plucker(capsys):
    code, out = run_cli(capsys, "plucker", "--d", "5", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "plucker")[0]
    assert (rec["dual_degree"], rec["flex_count"], rec["bitangent_count"]) == (20, 45, 120)
    assert rec["combinatorial_degree"] == 420


def test_degree_ledger(capsys):
    code, out = run_cli(capsys, "degree-ledger", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "degree")[0]
    assert rec["via_intersection_ledger"] == "420"
    assert rec["via_degenerate_configuration_count"] == 420
    assert rec["agree"] is True
    rows = {r["quantity"]: r for r in by_kind(out, "ledger-row")}
    assert rows["delta_sq_weighted_plane"]["value"] == "2/3"
    assert rows["pullback_multiplicities"]["value"] == ["2/3", "1", "2"]
    assert rows["pullback_sq"]["value"] == "280"


def test_gw_recursion(capsys):
    code, out = run_cli(capsys, "gw-recursion", "--r", "4,5,6,7,8,9,10", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "gw-values")[0]
    assert rec["I1(a1^5)"] == "420" and rec["r_free"] is True
    assert rec["I1(a1^3 a2)"] == "330"
    assert by_kind(out, "r-spot-check")[0]["all_equal_420"] is True


def test_fermat_check(capsys):
    code, out = run_cli(capsys, "fermat-check", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "fermat-degree")[0]
    assert rec["degree"] == 150 and rec["factor_degrees"] == [25, 6, 1]


def test_moduli_and_unstable_exit_code(capsys):
    code, out = run_cli(capsys, "moduli", "--quintic", "1,0,0,0,0,1", "--format", "jsonl")
    assert code == 0
    assert by_kind(out, "moduli")[0]["point"] == ["1", "0", "0"]
    code, out = run_cli(capsys, "moduli", "--quintic", "0,0,0,1,-1,0", "--format", "jsonl")
    assert code == 1
    assert by_kind(out, "failure")[0]["reason"] == "unstable-quintic"


def test_invariants_echoes_config(capsys):
    code, out = run_cli(
        capsys, "invariants", "--quintic", "1,0,0,0,0,1", "--prime", "10007", "--format", "jsonl"
    )
    assert code == 0
    config = by_kind(out, "config")[0]
    assert config["command"] == "invariants" and config["prime"] == 10007
    rec = by_kind(out, "invariants")[0]
    assert rec["i4"] == 1 and rec["stable"] is True


def test_restrict(capsys):
    code, out = run_cli(
        capsys, "restrict", "--curve", FERMAT, "--a", "-1", "--b", "-1", "--format", "jsonl"
    )
    assert code == 0
    rec = by_kind(out, "restriction")[0]
    assert rec["coefficients"] == ["0", "-5", "-10", "-10", "-5", "0"]
    assert rec["moduli"] == ["1", "1/3", "-1/27"]


def test_arc_limit_with_numeric_check(capsys):
    code, out = run_cli(
        capsys,
        "arc-limit",
        "--alpha", "0,0,1",
        "--beta", "0,0,0,1",
        "--numeric",
        "--format", "jsonl",
    )
    assert code == 0
    sym = by_kind(out, "arc-limit")[0]
    assert sym["case"] == "balanced" and sym["j"] == "-6912/23"
    num = by_kind(out, "arc-limit-numeric")[0]
    assert num["agrees_with_symbolic"] is True


def _deep_arc(zeros):
    """alpha = t**zeros, beta = t: the roots spread the faster, the larger zeros."""
    return ["arc-limit", "--alpha", ",".join(["0"] * zeros + ["1"]), "--beta", "0,1",
            "--numeric", "--format", "jsonl"]


def test_deep_arc_at_the_fixed_point_floor(capsys):
    """A deep arc that still converges: its figures pin where the
    fixed-point floor sits."""
    code, out = run_cli(capsys, *_deep_arc(30))
    assert code == 0
    num = by_kind(out, "arc-limit-numeric")[0]
    assert num["error_estimate"] == 1.7362358152445616e-11
    assert num["j_numeric"] == {"re": -1.1790704022037568e-11, "im": 7.857039520732555e-12}
    assert num["points_used"] == 10


def test_deep_arc_past_the_floor_fails_cleanly(capsys):
    code, out = run_cli(capsys, *_deep_arc(36))
    assert code == 1
    (failure,) = by_kind(out, "failure")
    assert failure["error_type"] == "NoConvergence"


def test_arc_limit_two_doubles(capsys):
    code, out = run_cli(
        capsys, "arc-limit", "--alpha", "0,0,3", "--beta", "0,0,0,2", "--format", "jsonl"
    )
    assert code == 0
    rec = by_kind(out, "arc-limit")[0]
    assert rec["configuration"] == "two-doubles" and rec["j"] == "infinity"


def test_genericity(capsys):
    code, out = run_cli(
        capsys, "genericity", "--curve", GENERIC, "--prime", "3001", "--seed", "1", "--format", "jsonl"
    )
    assert code == 0
    rec = by_kind(out, "genericity")[0]
    assert rec["generic"] is True and rec["flexes_verified"] == 45


def test_fiber_count_cli(capsys, generic_quintic):
    code, out = run_cli(
        capsys,
        "fiber-count",
        "--curve", GENERIC,
        "--prime", "10007",
        "--seed", "1",
        "--format", "jsonl",
    )
    assert code == 0
    rec = by_kind(out, "fiber-report")[0]
    assert rec["fiber_degree"] == 420
    assert rec["resultant_degree"] == 600
    assert sorted(map(tuple, rec["multiplicity_profile"])) == [(45, 4), (420, 1)]
    assert by_kind(out, "fiber-degree")[0]["degree"] == 420


def test_fermat_fiber_count_answers_150(capsys):
    # the oracle divides the eliminant by Fermat's 15 flex lines, each of
    # multiplicity 30, and answers in one attempt at both primes
    code, out = run_cli(
        capsys,
        "fiber-count", "--curve", FERMAT,
        "--prime", "10007", "--prime", "3001",
        "--seed", "1",
        "--format", "jsonl",
    )
    assert code == 0
    reports = by_kind(out, "fiber-report")
    assert [r["prime"] for r in reports] == [10007, 3001]
    for rec in reports:
        assert rec["fiber_degree"] == 150
        assert rec["multiplicity_profile"] == [[15, 30], [150, 1]]
        assert rec["flex_part"] == [15, 30]
        assert rec["retries"] == 0
    assert records(out)[-1] == {"record": "fiber-degree", "degree": 150, "primes": [10007, 3001]}


def test_fiber_count_reports_every_flex_part(capsys):
    # with two kinds of flex, flex_part lists one (degree, multiplicity)
    # pair per flex-line part
    klein = str(CURVES_DIR / "klein.json")
    code, out = run_cli(capsys, "fiber-count", "--curve", klein, "--seed", "1", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "fiber-report")[0]
    assert rec["multiplicity_profile"] == [[3, 18], [39, 4], [390, 1]]
    assert rec["flex_part"] == [[39, 4], [3, 18]]
    assert records(out)[-1] == {"record": "fiber-degree", "degree": 390, "primes": [10007]}
    code, text = run_cli(capsys, "fiber-count", "--curve", klein, "--seed", "1")
    assert code == 0 and "390" in text


def test_structured_output_is_reproducible(capsys):
    argv = ["fiber-count", "--curve", GENERIC, "--prime", "10007", "--seed", "4", "--format", "jsonl"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # reproducible from the echoed config: seed and primes appear in it
    config = by_kind(out1, "config")[0]
    assert config["seed"] == 4 and config["prime"] == [10007]


def test_relation_subcommand(capsys):
    code, out = run_cli(capsys, "relation", "--format", "jsonl")
    assert code == 0
    rec = by_kind(out, "fundamental-relation")[0]
    assert len(rec["coefficients"]) == 13
    assert rec["coefficients"][0] == "1"
    assert rec["monomials"][0] == [0, 0, 0, 2]


def test_malformed_curve_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[[5, 0, 0, "1"], [3, 0, 0, "1"]]')
    code, out = run_cli(
        capsys, "genericity", "--curve", str(bad), "--prime", "10007", "--format", "jsonl"
    )
    assert code == 1
    assert by_kind(out, "failure")


def test_bad_curve_record_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[[5, 0, 0, "1"], [0, "5", 0, 1]]')
    code, out = run_cli(capsys, "restrict", "--curve", str(bad), "--a", "1", "--b", "2", "--format", "jsonl")
    assert code == 1
    (failure,) = by_kind(out, "failure")
    assert failure["error_type"] == "ValueError" and "[0, '5', 0, 1]" in failure["message"]


def test_negative_retries_fail_cleanly(capsys):
    code, out = run_cli(capsys, "fiber-count", "--curve", GENERIC, "--retries", "-1", "--format", "jsonl")
    assert code == 1
    (failure,) = by_kind(out, "failure")
    assert failure["error_type"] == "ValueError" and "-1" in failure["message"]


def test_text_mode_prints_human_lines(capsys):
    code, out = run_cli(capsys, "plucker", "--d", "5")
    assert code == 0
    assert "[plucker]" in out and "bitangent_count=120" in out


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_arc_limit_rejects_bad_tolerance(capsys, tolerance):
    code, out = run_cli(
        capsys,
        "arc-limit",
        "--alpha", "0,0,1",
        "--beta", "0,0,0,1",
        "--numeric",
        "--tolerance", tolerance,
        "--format", "jsonl",
    )
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out  # strict JSON only
    (failure,) = records(out)
    assert failure["record"] == "failure" and "--tolerance" in failure["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gw-recursion", "--r", "x"],
        ["relation", "--seed", "x"],
        ["invariants", "--quintic", "1,0,0,0,0,1", "--prime", "x"],
        ["fiber-count", "--curve", GENERIC, "--retries", "x"],
    ],
    ids=["r", "seed", "prime", "retries"],
)
def test_usage_errors_give_failure_records(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == 2
    last = json.loads(out.strip().splitlines()[-1])
    assert last["record"] == "failure" and last["error_type"] == "UsageError"
    assert argv[-2] in last["message"]


QUINTIC = ["--quintic", "1,0,0,0,0,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", *QUINTIC, "--prime", "0"],
        ["moduli", *QUINTIC, "--prime", "0"],
        ["restrict", "--curve", GENERIC, "--a", "1", "--b", "2", "--prime", "0"],
        ["plucker", "--d", "3"],
        ["arc-limit", "--alpha", "0,1", "--beta", "0,1", "--truncation", "0"],
        ["arc-limit", "--alpha", "0,1", "--truncation", "6"],
        ["invariants", *QUINTIC, "--prime", "7"],
        ["moduli", *QUINTIC, "--prime", "10006"],
        ["genericity", "--curve", GENERIC, "--prime", "4"],
        ["fiber-count", "--curve", GENERIC, "--prime", "2"],
        ["gw-recursion", "--r", "3"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_out_of_range_flags_give_failure_records(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == 1
    last = records(out)[-1]
    assert last["record"] == "failure" and last["error_type"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [["moduli", "--quintic", "1,2,3,4,5,7"], ["fiber-count", "--curve", GENERIC]],
    ids=lambda argv: argv[0],
)
def test_a_strong_pseudoprime_to_bases_2_to_37_is_no_prime(capsys, argv):
    # 1287836182261 * 2575672364521: Miller-Rabin to the bases 2..37 passes it
    code, out = run_cli(capsys, *argv, "--prime", "3317044064679887385961981", "--format", "jsonl")
    assert code == 1
    last = records(out)[-1]
    assert last["record"] == "failure" and last["error_type"] == "ValueError"
    assert last["message"] == "3317044064679887385961981 is not prime"


@pytest.mark.parametrize("truncation", ["0", "-1"])
def test_truncation_below_one_is_rejected_as_such(capsys, truncation):
    # no coefficients at all: the truncation itself is the fault
    code, out = run_cli(capsys, "arc-limit", "--truncation", truncation, "--format", "jsonl")
    assert code == 1
    last = records(out)[-1]
    assert last["record"] == "failure" and last["error_type"] == "ValueError"
    assert last["message"] == f"truncation must be at least 1, not {truncation}"


@pytest.mark.parametrize(
    "argv, last_kind",
    [
        (["invariants", "--quintic", "-1,0,0,0,0,1"], "invariants"),
        (["moduli", "--quintic", "-1/2,0,0,0,0,1"], "moduli"),
        (["restrict", "--curve", FERMAT, "--frame", "-1,0,0,0,1,0,0,0,1", "--a", "1", "--b", "2"],
         "restriction"),
        (["restrict", "--curve", FERMAT, "--a", "-1/2", "--b", "1"], "restriction"),
        (["gw-recursion", "--r", "-2,3"], "failure"),
    ],
    ids=["quintic", "quintic-fraction", "frame", "a-fraction", "r"],
)
def test_values_starting_with_a_minus_sign_parse(capsys, argv, last_kind):
    code, out = run_cli(capsys, *argv, "--format", "jsonl")
    last = records(out)[-1]
    assert last["record"] == last_kind
    if last_kind == "failure":
        assert code == 1 and last["error_type"] == "ValueError"
        assert "rooting order must be at least 4" in last["message"]
    else:
        assert code == 0


def test_negative_value_reads_like_its_equals_form(capsys):
    spaced = run_cli(capsys, "invariants", "--quintic", "-1,0,0,0,0,1", "--format", "jsonl")
    joined = run_cli(capsys, "invariants", "--quintic=-1,0,0,0,0,1", "--format", "jsonl")
    assert spaced == joined
    assert spaced[0] == 0
