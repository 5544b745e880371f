"""Shared test plumbing: collects acceptance verdict lines and prints them
in the terminal summary so they are visible even with output capture on,
and pins hypothesis to a reproducible, bounded profile."""

import pytest
from hypothesis import settings

# Same examples on every run and machine, no timing-based failures, and a
# bounded example count so the property tests stay a few seconds of tier-1.
settings.register_profile("heal", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("heal")

_CRITERIA: list = []


@pytest.fixture(scope="session")
def criteria_log():
    return _CRITERIA


def pytest_terminal_summary(terminalreporter):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERIA:
            terminalreporter.write_line(line)
