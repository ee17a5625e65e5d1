"""Shared test configuration.

The acceptance tests in test_acceptance.py register one summary line each via
:func:`record_criterion`; a terminal-summary hook prints the collected lines
after the run so the pass/fail status of every criterion is visible in one
block regardless of output capturing.
"""

from __future__ import annotations

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# pytest puts src/ on its own sys.path (pyproject's ``pythonpath``); the CLI and
# script runs that tests start in fresh interpreters import graphlap from there too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    """Register the outcome of one acceptance criterion.

    Called before the test's own assertions so the line is recorded even when
    the test subsequently fails.
    """
    status = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES.append((number, f"[ACCEPTANCE] criterion {number}: {status} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
