"""Forked workers that run one function over a fixed list of items.

A :class:`Pool`'s workers persist from its first run until it closes, and
each later run sends them only its pickled job; what a worker writes for
its parent goes into memory shared before the fork (:func:`shared_arrays`).
This is the layout of Nallapati, Cohen & Lafferty (*Parallelized
Variational EM for LDA*, 2007).  The pool needs ``os.fork`` alone, not the
``multiprocessing`` import.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import threading

import numpy as np


def _usable_cpus():
    """The CPUs this process may run on, or 1 where workers cannot be
    forked safely: without ``os.fork`` or ``os.sched_getaffinity``, or
    while other threads are alive (a forked child keeps only the calling
    thread, and any lock another thread held stays held in it)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _balanced_cuts(sizes, w):
    """Bounds of ``w`` non-empty runs of ``sizes`` (``w`` <= their number):
    the k-th cut lies where the running total comes nearest k/w of the
    whole, the first of equally near places winning."""
    total = np.cumsum(sizes)
    cuts = [0]
    for k in range(1, w):
        lo, hi = cuts[-1] + 1, len(sizes) - (w - k)  # leave every later run one size
        before = total[lo - 1:hi]  # the running total before each candidate cut
        cuts.append(lo + int(np.argmin(np.abs(before - total[-1] * k / w))))
    return cuts + [len(sizes)]


def shared_arrays(specs):
    """Zero-filled arrays of the ``(shape, dtype)`` pairs ``specs``, laid end
    to end in one new shared anonymous mapping: a process forked after the
    call writes them in place, and its parent reads what it wrote."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    arena = mmap.mmap(-1, max(sum(sizes), 1))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        arrays.append(np.frombuffer(arena, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


def is_shared(array):
    """Whether ``array`` views a shared anonymous mapping."""
    while isinstance(array, (np.ndarray, memoryview)):
        array = array.base if isinstance(array, np.ndarray) else array.obj
    return isinstance(array, mmap.mmap)


def _write_all(fd, data):
    """Writes all of ``data`` to ``fd``, which may take more than one write."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Pool:
    """Workers that run ``fn(i, job)`` for the items i = 0 .. n-1, whose
    sizes are ``sizes``, in w = min(:func:`_usable_cpus`, n) runs of about
    equal total size (:func:`_balanced_cuts`).

    The calling process runs the first run of every :meth:`run`, and each
    other run has a worker, forked at the first run, which inherits
    ``fn``, all it reads and that run's job.  Each later run sends a
    worker only its pickled job, through a pipe.  A worker replies through
    a second pipe, then blocks on the first until the next job, and leaves
    by ``os._exit`` at that pipe's end, which comes when :meth:`close`
    closes it or the parent dies.  With w = 1 nothing is forked.  Used as
    a context manager, the pool closes when its block ends, by return or
    by error.
    """

    def __init__(self, sizes, fn):
        self.fn = fn
        self.cuts = _balanced_cuts(sizes, min(_usable_cpus(), len(sizes)))
        self.procs = []     # each live worker's (pid, command fd, reply file), in run order
        self.owing = set()  # the pids of the workers that owe a reply

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def run(self, job):
        """``fn(i, job)`` of every item, in item order, each computed in the
        process that holds its run.  Of the errors the items raise, the one
        of the lowest item is raised, as a loop over the items in turn
        would raise it; a run that raises closes the pool first, and the
        next run forks anew."""
        try:
            if self.procs:
                payload = pickle.dumps(job)
                for pid, commands, _ in self.procs:
                    self.owing.add(pid)
                    try:
                        _write_all(commands, payload)
                    except BrokenPipeError:  # a dead worker: reading its reply reports it
                        pass
            else:
                for lo, hi in zip(self.cuts[1:-1], self.cuts[2:]):
                    self._fork(lo, hi, job)
            results = [self.fn(i, job) for i in range(self.cuts[1])]
            for worker in list(self.procs):
                results += self._reply(worker)
        except BaseException:
            self.close()
            raise
        return results

    def _fork(self, lo, hi, job):
        commands, replies = os.pipe(), os.pipe()  # (read end, write end) each
        try:
            pid = os.fork()
        except BaseException:
            for fd in commands + replies:
                os.close(fd)
            raise
        if pid == 0:  # the worker, which never returns into its parent's code
            try:
                for _, fd, file in self.procs:  # the other workers' pipe ends are the parent's
                    os.close(fd)
                    file.close()
                os.close(commands[1])
                os.close(replies[0])
                _serve(self.fn, lo, hi, job, commands[0], replies[1])
            finally:
                os._exit(0)
        os.close(commands[0])
        os.close(replies[1])
        self.procs.append((pid, commands[1], open(replies[0], "rb")))
        self.owing.add(pid)

    def _reply(self, worker):
        """``worker``'s results for its items in this run; raises the
        exception it sent instead, or RuntimeError if it ended without a
        reply, which reaps it."""
        pid, commands, replies = worker
        try:
            ok, value = pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):
            self.procs.remove(worker)
            self.owing.discard(pid)
            os.close(commands)
            replies.close()
            _, status = os.waitpid(pid, 0)
            raise RuntimeError(f"E-step worker {pid} ended without a reply "
                               f"(exit code {os.waitstatus_to_exitcode(status)})") from None
        self.owing.discard(pid)
        if not ok:
            raise value
        return value

    def close(self):
        """Ends and reaps every worker: closing its command pipe ends an
        idle one, and one that owes a reply is killed."""
        procs, self.procs = self.procs, []
        for pid, commands, replies in procs:
            os.close(commands)
            replies.close()
            if pid in self.owing:
                os.kill(pid, signal.SIGKILL)
        self.owing.clear()
        for pid, _, _ in procs:
            os.waitpid(pid, 0)


def _serve(fn, lo, hi, job, commands, replies):
    """A forked worker's loop: runs ``fn(i, job)`` for items ``lo``..``hi``,
    writes the pickled ``(True, [each item's result])``, or ``(False,
    exception)`` if one raised, to ``replies``, and reads its next job from
    ``commands``, until that pipe ends."""
    with open(commands, "rb") as jobs:
        while True:
            try:
                reply = (True, [fn(i, job) for i in range(lo, hi)])
            except BaseException as exc:  # interrupts too: the parent re-raises it
                reply = (False, exc)
            try:
                payload = pickle.dumps(reply)
            except Exception:  # an exception that does not pickle is sent as its text
                payload = pickle.dumps((False, RuntimeError(repr(reply[1]))))
            _write_all(replies, payload)
            try:
                job = pickle.load(jobs)
            except EOFError:
                return
