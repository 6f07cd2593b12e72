"""A check that a test left no child process behind."""

import os

import pytest


def assert_no_child_process() -> None:
    """This process has no child, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
