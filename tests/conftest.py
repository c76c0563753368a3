"""Fixtures shared by the tests of the fork fan-out and its callers."""

import multiprocessing as mp
import os

import pytest

from lmcflab import fanout


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process (fan-out children)."""
    count = []
    fork = os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the fan-out see n usable CPUs."""
    return lambda n: monkeypatch.setattr(fanout, "usable_cpus", lambda: n)


@pytest.fixture
def no_child_left():
    """A check that this process has no child left, running or unreaped."""
    def check():
        assert mp.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
