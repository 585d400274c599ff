import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_process_or_thread_left_behind():
    """Fail a test that leaves a child process unreaped or a thread
    running: every worker thread is joined and every child process reaped
    before the call that made it returns, on success and on error."""
    threads = threading.active_count()
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process at all
        left = None
    assert left is None, f"a child process is left behind: {left}"
    assert threading.active_count() == threads, (
        f"threads left running: {threading.enumerate()}")
