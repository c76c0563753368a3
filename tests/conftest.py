"""Fixtures shared by the tests of the fork fan-out and its callers, and
the scenario bundles that the acceptance tests and the digest gate read."""

import multiprocessing as mp
import os
import time

import pytest
from hypothesis import settings

from lmcflab import fanout, scenarios

SEEDS = (0, 1)

# the property tests draw the same examples on every run and write no
# example database into the tree
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


def write_bundles(root):
    """Write every scenario's bundle for each seed in SEEDS under
    root/seed-<n>/<scenario>; {(seed, scenario): seconds it took}."""
    seconds = {}
    for seed in SEEDS:
        for name in scenarios.SCENARIOS:
            t0 = time.perf_counter()
            scenarios.run_scenario({"scenario": name, "seed": seed},
                                   out_dir=root / f"seed-{seed}" / name)
            seconds[seed, name] = time.perf_counter() - t0
    return seconds


@pytest.fixture(scope="session")
def bundles(tmp_path_factory):
    """(root, seconds): the bundles of write_bundles, written once per
    session."""
    root = tmp_path_factory.mktemp("bundles")
    return root, write_bundles(root)
