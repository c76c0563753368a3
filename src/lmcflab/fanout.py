"""Fork fan-out: a list comprehension spread over forked child processes.

fan_out(fn, items) returns [fn(x) for x in items]. The items are cut into
contiguous shares, larger ones first, one per process: at most
usable_cpus() - 1 forked children compute the earlier shares and the
caller the last one, so a caller puts the item it should keep last. A
child inherits fn and the items by fork and sends back only its pickled
results, so the values do not depend on which process computed them.

The caller computes everything itself on one CPU, without a fork start
method or while other threads are alive (forking a threaded process can
deadlock the child). Importing this module starts no thread or process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import traceback

import numpy as np

from .errors import WorkerDied


def usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _RemoteTraceback(Exception):
    """A child's formatted traceback, the __cause__ of its re-raised error."""

    def __str__(self):
        return self.args[0]


def fan_out(fn, items):
    """[fn(x) for x in items], the last share computed by the caller and the
    others by forked children (see the module docstring).

    A child's exception is re-raised typed, with the child's traceback as
    its __cause__; a child that exits without a result raises WorkerDied.
    Every child is joined before this returns or raises, and children still
    running when an error is raised are terminated first.
    """
    items = list(items)
    procs = min(usable_cpus(), len(items))
    if (procs < 2 or threading.active_count() > 1
            or "fork" not in mp.get_all_start_methods()):
        return [fn(x) for x in items]
    *theirs, mine = np.array_split(np.arange(len(items)), procs)
    ctx = mp.get_context("fork")
    children = []
    try:
        for share in theirs:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child,
                                args=(fn, [items[i] for i in share], send))
            child.start()
            children.append((child, recv))
            send.close()   # only the child's copy stays open: EOF if it dies
        results = [fn(items[i]) for i in mine]
        return [r for child, recv in children for r in _collect(child, recv)] + results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def _child(fn, share, send):
    try:
        reply = (True, [fn(x) for x in share])
    except Exception as exc:
        reply = (False, (exc, traceback.format_exc()))
    send.send(reply)


def _collect(child, recv):
    """The results a child sent, or its error raised in the caller."""
    try:
        ok, payload = recv.recv()
    except EOFError:
        child.join()
        raise WorkerDied(f"fan-out child {child.pid} exited with code "
                         f"{child.exitcode} before sending its results") from None
    if ok:
        return payload
    exc, tb = payload
    raise exc from _RemoteTraceback(tb)
