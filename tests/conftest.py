"""Prints the acceptance verdict lines after the normal pytest output, and
fails any test that leaves a child process behind.

The acceptance tests record one "[PASS]/[FAIL] <criterion>" line each; fd
capture would eat a plain print, so a terminal-summary hook emits them.
"""

import os
import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """A test must end every process it started and reap it."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all, running or exited
    state = "running" if pid == 0 else f"unreaped (pid {pid}, status {status})"
    pytest.fail(f"the test left a child process {state}")


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
