"""The fork fan-out: shares, typed failures and no process left behind."""

import os
import signal
import threading
import time

import pytest

from lmcflab import errors
from lmcflab.fanout import fan_out

from test_errors import ARGS, LAB_ERRORS


@pytest.fixture(autouse=True)
def deadline():
    """Fails a test whose fan-out hangs instead of hanging the suite."""
    def hung(signum, frame):
        raise TimeoutError("fan_out did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_shares_run_in_children_and_the_last_in_the_caller(cpus, forks, no_child_left):
    cpus(2)
    out = fan_out(lambda x: (x * x, os.getpid()), range(5))
    assert [v for v, _ in out] == [0, 1, 4, 9, 16]
    pids = [pid for _, pid in out]
    # larger shares first: three items in the child, two in the caller
    assert pids[3:] == [os.getpid()] * 2
    assert len(set(pids[:3])) == 1 and pids[0] != os.getpid()
    assert len(forks) == 1
    no_child_left()


def test_at_most_one_process_per_item(cpus, forks, no_child_left):
    cpus(8)
    pids = fan_out(lambda _: os.getpid(), range(3))
    assert len(set(pids)) == 3 and pids[-1] == os.getpid()
    assert len(forks) == 2
    no_child_left()


@pytest.mark.parametrize("n_cpus, n_items", [(1, 3), (2, 1), (2, 0)])
def test_one_cpu_or_item_stays_in_process(cpus, forks, n_cpus, n_items):
    cpus(n_cpus)
    assert fan_out(lambda _: os.getpid(), range(n_items)) == [os.getpid()] * n_items
    assert forks == []


def test_stays_in_process_while_threads_run(cpus, forks):
    cpus(2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert fan_out(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3
    finally:
        stop.set()
        other.join()
    assert forks == []


@pytest.mark.parametrize("cls", LAB_ERRORS, ids=lambda c: c.__name__)
def test_every_lab_error_leaves_a_child_typed(cpus, no_child_left, cls):
    cpus(2)
    err = cls(*ARGS.get(cls, ("a message",)))

    def fail_in_child(x):
        if x == 0:
            raise err
        return x

    with pytest.raises(cls) as info:
        fan_out(fail_in_child, range(2))
    assert type(info.value) is cls and str(info.value) == str(err)
    assert vars(info.value) == vars(err)
    assert "Traceback" in str(info.value.__cause__)   # the child's traceback
    assert "fail_in_child" in str(info.value.__cause__)
    no_child_left()


def _die_with_code_3():
    os._exit(3)


def _die_killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("die, code", [(_die_with_code_3, "3"),
                                       (_die_killed, f"-{int(signal.SIGKILL)}")])
def test_a_child_that_dies_raises_worker_died(cpus, no_child_left, die, code):
    cpus(2)
    with pytest.raises(errors.WorkerDied, match=f"exited with code {code} before"):
        fan_out(lambda x: die() if x == 0 else x, range(2))
    no_child_left()


def test_the_callers_error_stops_the_children(cpus, no_child_left):
    cpus(3)

    def work(x):
        if x == 2:   # the caller's share
            raise errors.RoundingAmbiguity("in the caller")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(errors.RoundingAmbiguity, match="in the caller"):
        fan_out(work, range(3))
    assert time.monotonic() - start < 30   # terminated, not waited for
    no_child_left()
