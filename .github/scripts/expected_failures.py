"""Pass only if the failing tests in the given JUnit reports are exactly the
documented criterion-2 failure (README, "Acceptance suite"), and the tier-1
runs from the checkout and against the installed package ran the same tests.

    python3 .github/scripts/expected_failures.py tier1.xml bench.xml installed.xml

A test counts as failing when its <testcase> holds a <failure> or an
<error>, which is how pytest reports collection errors too. A test is named
by its (classname, name) pair.
"""

import os
import sys
import xml.etree.ElementTree as ET

EXPECTED = {("tests.test_acceptance",
             "test_criterion_02_powers_of_two_reference_angles_and_pruned_length")}
# Both runs of the one tier-1 suite: a run that collects fewer tests fails.
SAME_TESTS = ("tier1.xml", "installed.xml")


def read(path: str) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """The ids of the report's tests, and of those failing."""
    ids, failing = set(), set()
    for case in ET.parse(path).getroot().iter("testcase"):
        test = (case.get("classname"), case.get("name"))
        ids.add(test)
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(test)
    return ids, failing


def main(paths: list[str]) -> int:
    failed: set[tuple[str, str]] = set()
    ids_of: dict[str, set[tuple[str, str]]] = {}
    for path in paths:
        ids, failing = read(path)
        print(f"{path}: {len(ids)} tests, {len(failing)} failing")
        if not ids:
            print(f"{path}: no tests ran")
            return 1
        failed |= failing
        ids_of[os.path.basename(path)] = ids
    ok = failed == EXPECTED
    for test in sorted(failed ^ EXPECTED):
        state = "unexpected failure" if test in failed else "expected failure passed"
        print(f"{state}: {'::'.join(test)}")
    if all(name in ids_of for name in SAME_TESTS):
        first, second = (ids_of[name] for name in SAME_TESTS)
        for report, only in ((SAME_TESTS[0], first - second), (SAME_TESTS[1], second - first)):
            for test in sorted(only):
                print(f"only in {report}: {'::'.join(test)}")
        ok = ok and first == second
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
