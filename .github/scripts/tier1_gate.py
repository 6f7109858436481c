#!/usr/bin/env python3
"""Verdict of the tier-1 suite, read from its junit report.

    python3 .github/scripts/tier1_gate.py tier1.xml

Acceptance criterion 10 fails on purpose: the paper's dominance claim is
false on the reference channel (see README).  So pytest's own exit code is
always 1, and this gate decides instead.  It exits 1 and names the problem
unless the failed and errored tests are exactly EXPECTED_FAILURES, no test
was skipped and both reference-bytes cases ran.  CI installs the versions
perfbench/reference.json records, so nothing should skip there: a skip can
only be a check dropped silently, such as a skipif whose condition drifted.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_10_sensitivity_dominance"}
REFERENCE_BYTES = {
    "tests.test_reference_bytes::test_artifacts_match_reference_hashes[query-sweeps]",
    "tests.test_reference_bytes::test_artifacts_match_reference_hashes[cli-cold]",
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
    problems += [f"reference bytes not checked: {test} missing"
                 for test in sorted(REFERENCE_BYTES - outcome.keys())]
    for problem in problems:
        print(problem)
    passed = sum(result == "passed" for result in outcome.values())
    print(f"{len(outcome)} tests, {passed} passed, {len(failed)} failed: "
          + ("gate failed" if problems else "gate passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
