"""Shared pytest plumbing: the acceptance summary block and the fixture that
makes the CSV writer split every table.

Acceptance tests append one "[PASS]/[FAIL] criterion" line each; the
terminal-summary hook prints the block after the run so the lines are
visible whether or not output capture is on.
"""

import os

import pytest

from penmfg import measures

ACCEPTANCE_LINES: list = []


@pytest.fixture
def split_writes(monkeypatch):
    """Every CSV table of two or more steps writes its second half in a
    forked helper, whatever its size and the host's CPU count; yields the
    list of forks made, one entry each."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(measures, "SPLIT_MIN_CELLS", 0)
    monkeypatch.setattr(measures, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
