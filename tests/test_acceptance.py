"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failed run) and asserts the criterion's own pass
flag.  The same suites back the ``jmatrix verify`` CLI command.
"""

import pytest

from jmatrix.verify import SUITES


@pytest.mark.parametrize("name", list(SUITES), ids=list(SUITES))
def test_criterion(name):
    result = SUITES[name]()
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_budgets_read_a_monotonic_clock(monkeypatch):
    # a wall clock that steps an hour at each reading would blow the 1 s
    # budget of morse-bound-states; the suites time themselves without it
    import itertools
    import time

    steps = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(steps))
    result = SUITES["morse-bound-states"]()
    assert result.passed and 0.0 <= result.elapsed < 1.0, result.detail
