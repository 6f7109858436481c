#!/usr/bin/env python3
"""Verdict of the tier-1 suite, read from its junit report.

    python3 .github/scripts/tier1_gate.py tier1.xml

Acceptance criterion 10 fails on purpose: the paper's dominance claim is
false on the reference channel (see README).  So pytest's own exit code is
always 1, and this gate decides instead.  It exits 1 and names the problem
unless the failed and errored tests are exactly EXPECTED_FAILURES, no test
was skipped and every REQUIRED case ran.  REQUIRED pairs each case with the
label of the check it guards, which the report of a missing case names:
renaming or deleting a required case must fail here, not pass silently.
CI installs the versions perfbench/reference.json records, so nothing
should skip there: a skip can only be a check dropped silently, such as a
skipif whose condition drifted.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_10_sensitivity_dominance"}
# Cases that must have run, each with the check it guards.
REQUIRED = {
    **{f"tests.test_reference_bytes::test_artifacts_match_reference_hashes[{workload}]":
       "reference bytes" for workload in ("cli-cold", "query-sweeps")},
    **{f"tests.test_perfbench_sites::{name}": "tracer sites"
       for name in ("test_tracer_call_sites_exist", "test_tracer_counts_a_traced_pass",
                    "test_tracer_counts_every_writer", "test_tracer_sees_sensitivity_stencil")},
    **{f"tests.test_csvio::{name}": "writer equivalence"
       for name in ("test_write_csv_matches_format_cell",
                    "test_write_csv_memo_and_joined_rows_match_csv_writer")},
    **{name: "cold start"
       for name in ("tests.test_cli::test_import_does_not_load_scipy_special",
                    "tests.test_cli::test_cached_optimize_does_not_load_scipy_special",
                    "tests.test_special::test_later_scipy_special_import_exports_the_same_ufuncs",
                    "tests.test_special::test_placeholder_import_error_falls_back_to_the_package")},
    **{"tests.test_special::test_scipy_special_import_during_the_first_load_gets_the_full_package"
       f"[{statement}]": "import race" for statement in ("from-import", "attribute")},
    **{name: "bit identity"
       for name in ("tests.test_special::"
                    "test_generating_run_loads_only_the_ufuncs_and_writes_the_same_bytes",
                    *(f"tests.test_cli::test_first_generation_in_two_threads_matches_one[{kind}]"
                      for kind in ("stochastic", "benchmark")))},
    **{f"tests.test_samples::{name}": "memory bound"
       for name in ("test_load_peak_memory_is_not_k_sized",
                    *(f"test_generation_peak_memory_per_worker[{workers}]"
                      for workers in (1, 2)))},
    **{f"tests.test_samples::{name}": "cache record"
       for name in ("test_in_place_rewrite_after_the_check_is_caught",
                    *(f"test_failing_cache_is_never_recorded[{fault}]"
                      for fault in ("unsorted", "outside-domain")))},
    **{f"tests.test_samples::{name}": "tail bytes"
       for name in (*(f"test_every_row_lies_inside_its_cells_bounds[{law}]"
                      for law in ("stochastic", "atom-heavy", "mirrored-fixed-eta", "noise-floor",
                                  "eta-near-one", "volatile")),
                    *(f"test_a_values_bits_do_not_depend_on_its_position[{kernel}]"
                      for kernel in ("lognormal", "gaussian", "gaussian-mirrored", "exponential",
                                     "covertness_constant", "depolarizing", "achievable_rate")))},
}


def main(report: str) -> int:
    outcome = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        kinds = {child.tag for child in case} & {"failure", "error", "skipped"}
        outcome[test] = "failed" if kinds & {"failure", "error"} else (
            "skipped" if kinds else "passed")
    failed = {test for test, result in outcome.items() if result == "failed"}
    problems = [f"unexpected failure: {test}" for test in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"expected failure did not fail: {test}"
                 for test in sorted(EXPECTED_FAILURES - failed)]
    problems += [f"skipped: {test}"
                 for test, result in sorted(outcome.items()) if result == "skipped"]
    problems += [f"{guard} not checked: {test} missing"
                 for test, guard in REQUIRED.items() if test not in outcome]
    for problem in problems:
        print(problem)
    passed = sum(result == "passed" for result in outcome.values())
    print(f"{len(outcome)} tests, {passed} passed, {len(failed)} failed: "
          + ("gate failed" if problems else "gate passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
