"""Pass only if the failing tests in the given JUnit reports are exactly the
documented criterion-2 failure (README, "Acceptance suite").

    python3 .github/scripts/expected_failures.py tier1.xml bench.xml installed.xml

A test counts as failing when its <testcase> holds a <failure> or an
<error>, which is how pytest reports collection errors too.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"test_criterion_02_powers_of_two_reference_angles_and_pruned_length"}


def failing(path: str) -> tuple[set[str], int]:
    cases = ET.parse(path).getroot().iter("testcase")
    names, total = set(), 0
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            names.add(case.get("name"))
    return names, total


def main(paths: list[str]) -> int:
    failed: set[str] = set()
    for path in paths:
        names, total = failing(path)
        print(f"{path}: {total} tests, {len(names)} failing")
        if total == 0:
            print(f"{path}: no tests ran")
            return 1
        failed |= names
    for name in sorted(failed ^ EXPECTED):
        state = "unexpected failure" if name in failed else "expected failure passed"
        print(f"{state}: {name}")
    return 0 if failed == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
