"""The CI gate reads the tier-1 junit report and gives the suite's verdict.

.github/scripts/tier1_gate.py passes only when acceptance criterion 10 is
the sole failure, nothing was skipped and every case in its REQUIRED table
ran; REQUIRED below mirrors that table, each case with its guard label.
These tests feed the gate small hand-written reports, and check that every
required case is still collected from the test files.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / ".github" / "scripts" / "tier1_gate.py"

CRITERION_10 = ("tests.test_acceptance", "test_criterion_10_sensitivity_dominance")
# Each case the gate requires by name, with the check it guards.
REQUIRED = {
    **{("tests.test_reference_bytes", f"test_artifacts_match_reference_hashes[{workload}]"):
       "reference bytes" for workload in ("query-sweeps", "cli-cold")},
    **{("tests.test_perfbench_sites", name): "tracer sites"
       for name in ("test_tracer_call_sites_exist", "test_tracer_counts_a_traced_pass",
                    "test_tracer_sees_sensitivity_stencil", "test_tracer_counts_every_writer")},
    **{("tests.test_csvio", name): "writer equivalence"
       for name in ("test_write_csv_matches_format_cell",
                    "test_write_csv_memo_and_joined_rows_match_csv_writer")},
    **{case: "cold start"
       for case in (("tests.test_cli", "test_import_does_not_load_scipy_special"),
                    ("tests.test_cli", "test_cached_optimize_does_not_load_scipy_special"),
                    ("tests.test_special",
                     "test_later_scipy_special_import_exports_the_same_ufuncs"),
                    ("tests.test_special",
                     "test_placeholder_import_error_falls_back_to_the_package"))},
    **{("tests.test_special",
        f"test_scipy_special_import_during_the_first_load_gets_the_full_package[{statement}]"):
       "import race" for statement in ("attribute", "from-import")},
    **{case: "bit identity"
       for case in (("tests.test_special",
                     "test_generating_run_loads_only_the_ufuncs_and_writes_the_same_bytes"),
                    *(("tests.test_cli",
                       f"test_first_generation_in_two_threads_matches_one[{kind}]")
                      for kind in ("benchmark", "stochastic")))},
    **{("tests.test_samples", name): "memory bound"
       for name in ("test_load_peak_memory_is_not_k_sized",
                    *(f"test_generation_peak_memory_per_worker[{workers}]"
                      for workers in (2, 1)))},
    **{("tests.test_samples", name): "cache record"
       for name in (*(f"test_failing_cache_is_never_recorded[{fault}]"
                      for fault in ("outside-domain", "unsorted")),
                    "test_in_place_rewrite_after_the_check_is_caught")},
}
PASSING = ("tests.test_cli", "test_sample_then_optimize_from_cache")


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
    return [(*CRITERION_10, "failure"), *((*case, None) for case in REQUIRED),
            (*PASSING, None)]


def verdict(gate, tmp_path, capsys, cases):
    rc = gate.main(report(tmp_path, cases))
    return rc, capsys.readouterr().out


def test_only_criterion_10_failing_passes(gate, tmp_path, capsys):
    rc, out = verdict(gate, tmp_path, capsys, expected_cases())
    assert rc == 0, out
    total = len(expected_cases())
    assert out.splitlines()[-1] == f"{total} tests, {total - 1} passed, 1 failed: gate passed"


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


@pytest.mark.parametrize("missing", REQUIRED,
                         ids=[f"{case[1]}-{guard}" for case, guard in REQUIRED.items()])
def test_a_missing_required_case_fails(gate, tmp_path, capsys, missing):
    cases = [case for case in expected_cases() if case[:2] != missing]
    rc, out = verdict(gate, tmp_path, capsys, cases)
    assert rc == 1
    assert f"{REQUIRED[missing]} not checked: {missing[0]}::{missing[1]} missing" in out


def test_every_required_case_exists(gate):
    # A fresh collection of the files the gate names: a required case that
    # was renamed or deleted fails here, not only in CI's gate step.
    nodes = {f"{module.replace('.', '/')}.py::{name}"
             for module, _, name in (test.partition("::") for test in gate.REQUIRED)}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *sorted({node.partition("::")[0] for node in nodes})],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    missing = sorted(nodes - set(proc.stdout.splitlines()))
    assert not missing, f"required cases not collected: {missing}"
