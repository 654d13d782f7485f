"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    ``simulate`` forks a CSV writer; every way out of a run must reap it.
    """
    yield
    if not hasattr(os, "WNOHANG"):  # no POSIX child processes to poll
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"unreaped, status {status}"
    pytest.fail(f"the test left a child process behind ({state})")
