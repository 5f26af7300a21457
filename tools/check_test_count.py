"""CI guard against silent test-collection breakage.

An import error in a test module, a renamed directory, or a bad conftest can
make pytest silently collect a fraction of the suite while everything that
*is* collected stays green.  This script collects the suite and fails when
fewer tests are found than the recorded floor.

Raise MIN_TEST_COUNT whenever a PR adds tests (set it to the new collected
count); never lower it without removing tests on purpose.

Run with:  PYTHONPATH=src python tools/check_test_count.py
"""

from __future__ import annotations

import sys

import pytest

#: Collected-test floor; the suite held 668 tests when this was last set.
MIN_TEST_COUNT = 668


class _CollectionCounter:
    def __init__(self) -> None:
        self.count = 0

    def pytest_collection_finish(self, session) -> None:
        self.count = len(session.items)


def main() -> int:
    counter = _CollectionCounter()
    exit_code = pytest.main(["--collect-only", "-q", "--no-header", "-p", "no:cacheprovider"], plugins=[counter])
    if exit_code not in (0, pytest.ExitCode.NO_TESTS_COLLECTED):
        print(f"collection itself failed with exit code {exit_code}", file=sys.stderr)
        return int(exit_code)
    if counter.count < MIN_TEST_COUNT:
        print(
            f"FAIL: collected {counter.count} tests, below the recorded floor of {MIN_TEST_COUNT}. "
            "If tests were removed on purpose, lower MIN_TEST_COUNT in tools/check_test_count.py; "
            "otherwise a conftest/import problem is silently dropping tests.",
            file=sys.stderr,
        )
        return 1
    print(f"OK: collected {counter.count} tests (floor {MIN_TEST_COUNT})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
