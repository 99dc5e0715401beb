"""Session-wide guard: no test leaves a child process running.

A child that outlives its test outlives the session too; if the run's
output feeds a pipe, the child holds it open and the command that timed
the run waits for it.  At the end of the session every process whose
parent is this one is found from ``/proc/*/stat`` and, unless it has
already exited (a zombie), fails the run by name.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def live_children(pid: int) -> list[str]:
    """``"<pid> <command>"`` of each running child of ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # it ended while the directory was read
            continue
        command, _, fields = text.rpartition(")")
        state, parent = fields.split()[:2]
        if int(parent) == pid and state != "Z":
            found.append(f"{stat.parent.name} {command.partition('(')[2]}")
    return found


def pytest_sessionfinish(session, exitstatus):
    children = live_children(os.getpid())
    if children:
        writer = session.config.get_terminal_writer()
        writer.line()
        writer.line(
            f"child processes outlived the session: {', '.join(children)}",
            red=True,
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
