"""The CI gate reads the tier-1 junit report and gives the suite's verdict.

.github/scripts/tier1_gate.py passes only when acceptance criterion 10 is
the sole failure, nothing was skipped and both reference-bytes cases ran.
These tests feed it small hand-written reports.
"""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "tier1_gate.py"

CRITERION_10 = ("tests.test_acceptance", "test_criterion_10_sensitivity_dominance")
REFERENCE = [("tests.test_reference_bytes",
              f"test_artifacts_match_reference_hashes[{workload}]")
             for workload in ("query-sweeps", "cli-cold")]
PASSING = ("tests.test_cli", "test_config_error_exits")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("tier1_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(tmp_path, cases):
    # cases: (classname, name, child tag or None) triples.
    body = "".join(
        f'<testcase classname="{classname}" name="{name}" time="0.1">'
        + (f'<{tag} message="x">x</{tag}>' if tag else "")
        + "</testcase>"
        for classname, name, tag in cases)
    path = tmp_path / "tier1.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest">{body}</testsuite></testsuites>')
    return str(path)


def expected_cases():
    return [(*CRITERION_10, "failure"), *((*ref, None) for ref in REFERENCE),
            (*PASSING, None)]


def verdict(gate, tmp_path, capsys, cases):
    rc = gate.main(report(tmp_path, cases))
    return rc, capsys.readouterr().out


def test_only_criterion_10_failing_passes(gate, tmp_path, capsys):
    rc, out = verdict(gate, tmp_path, capsys, expected_cases())
    assert rc == 0, out
    assert out.splitlines()[-1] == "4 tests, 3 passed, 1 failed: gate passed"


@pytest.mark.parametrize("tag", ["failure", "error"])
def test_another_failure_fails_and_is_named(gate, tmp_path, capsys, tag):
    cases = [*expected_cases(), ("tests.test_samples", "test_round_trip", tag)]
    rc, out = verdict(gate, tmp_path, capsys, cases)
    assert rc == 1
    assert "unexpected failure: tests.test_samples::test_round_trip" in out


def test_criterion_10_passing_fails(gate, tmp_path, capsys):
    cases = [(*CRITERION_10, None), *expected_cases()[1:]]
    rc, out = verdict(gate, tmp_path, capsys, cases)
    assert rc == 1
    assert ("expected failure did not fail: "
            "tests.test_acceptance::test_criterion_10_sensitivity_dominance") in out


def test_a_skip_fails_and_is_named(gate, tmp_path, capsys):
    cases = [*expected_cases(), ("tests.test_cli", "test_skipped_one", "skipped")]
    rc, out = verdict(gate, tmp_path, capsys, cases)
    assert rc == 1
    assert "skipped: tests.test_cli::test_skipped_one" in out


@pytest.mark.parametrize("missing", REFERENCE, ids=lambda case: case[1])
def test_a_missing_reference_case_fails(gate, tmp_path, capsys, missing):
    cases = [case for case in expected_cases() if case[:2] != missing]
    rc, out = verdict(gate, tmp_path, capsys, cases)
    assert rc == 1
    assert f"reference bytes not checked: {missing[0]}::{missing[1]} missing" in out
