"""Tests of the fork pool (``mlpalda.pool``).

The pool runs a function over items in forked workers that live from the
first run until the pool closes.  These tests check its cuts and CPU
count, that a run returns each item's result in item order, and that a
worker that died or was killed fails the run, and one whose command pipe
ends leaves on its own.  ``tests/test_inference.py`` checks the E-step on
the pool: its results bit for bit, and that no worker or pipe end
outlives a pass or a ``train`` call that raises.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

import mlpalda.inference as inference
import mlpalda.pool as pool
from mlpalda.inference import EStepConfig, e_step_corpus, predict_corpus
from states import packed
from test_inference import (assert_no_child_left, elog_of, one_term_pair_corpus, random_params,
                            with_cpus)


def test_balanced_cuts_take_the_nearest_place_to_each_share():
    assert pool._balanced_cuts([4] * 12, 1) == [0, 12]
    assert pool._balanced_cuts([4] * 12, 2) == [0, 6, 12]
    assert pool._balanced_cuts([4] * 12, 3) == [0, 4, 8, 12]
    # one wide chunk at the end: the cut lies before it, not after one small chunk
    assert pool._balanced_cuts([5, 5, 5, 5, 5, 5, 30], 2) == [0, 6, 7]
    assert pool._balanced_cuts([10, 10, 10, 10, 11, 20, 21, 30], 2) == [0, 5, 8]
    # every run keeps at least one chunk, however lopsided the sizes
    assert pool._balanced_cuts([100, 1, 1], 3) == [0, 1, 2, 3]
    assert pool._balanced_cuts([1, 1, 100], 3) == [0, 1, 2, 3]
    assert pool._balanced_cuts([1, 1, 1, 1], 4) == [0, 1, 2, 3, 4]


def test_usable_cpus_is_one_while_another_thread_runs_or_fork_is_missing(monkeypatch):
    assert pool._usable_cpus() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert pool._usable_cpus() == 1
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert pool._usable_cpus() == 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_run_returns_each_items_result_in_item_order(monkeypatch, cpus):
    """Each run's results come back in item order, each computed in the
    process that holds its item's run: the calling process holds the
    first, and the workers, forked once, the others.  Of two failing
    items, the lower one's error is raised, and the next run forks anew."""
    forks = with_cpus(monkeypatch, cpus)
    parent = os.getpid()
    cuts = pool._balanced_cuts([1] * 6, cpus)

    def item(i, job):
        if job == "fail" and i in (2, 5):
            raise ValueError(f"item {i}")
        return i * job, os.getpid()

    with pool.Pool([1] * 6, item) as workers:
        for job in (3, 5):
            results = workers.run(job)
            assert [value for value, _ in results] == [i * job for i in range(6)]
            where = [pid for _, pid in results]
            assert where[:cuts[1]] == [parent] * cuts[1]
            assert [where[lo] for lo in cuts[1:-1]] == forks
            assert all(where[i] == where[lo] for lo, hi in zip(cuts, cuts[1:])
                       for i in range(lo, hi))
        assert len(forks) == cpus - 1
        with pytest.raises(ValueError, match="^item 2$"):
            workers.run("fail")
        assert_no_child_left()
        assert [value for value, _ in workers.run(1)] == list(range(6))
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()


def test_a_worker_that_dies_without_a_reply_fails_the_pass(monkeypatch):
    rng = np.random.default_rng(75)
    params = random_params(rng, 2, 2, 40)
    docs = one_term_pair_corpus(())
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    with_cpus(monkeypatch, 2)
    parent, step = os.getpid(), inference._e_step_chunk

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step(*args)

    monkeypatch.setattr(inference, "_e_step_chunk", dying)
    with pytest.raises(RuntimeError, match=r"^E-step worker \d+ ended without a reply "
                                           r"\(exit code 3\)$"):
        predict_corpus(docs, params)
    assert_no_child_left()


def test_a_worker_killed_between_passes_fails_the_next_pass(monkeypatch):
    rng = np.random.default_rng(77)
    params = random_params(rng, 2, 2, 40)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, 3)
    store = packed(one_term_pair_corpus(()), params, 40)
    with inference._pool(store):
        e_step_corpus(store, params, elog_of(params), EStepConfig())
        os.kill(forks[1], signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"^E-step worker {forks[1]} ended without a "
                                               r"reply \(exit code -9\)$"):
            e_step_corpus(store, params, elog_of(params), EStepConfig())
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_leaves_on_its_own_when_its_command_pipe_ends(monkeypatch):
    """An idle worker whose command pipe loses its write end, as when its
    parent dies, exits by itself with code 0; closing the workers kills
    none of them."""
    rng = np.random.default_rng(79)
    params = random_params(rng, 2, 2, 40)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, 3)
    store = packed(one_term_pair_corpus(()), params, 40)
    with inference._pool(store) as workers:
        e_step_corpus(store, params, elog_of(params), EStepConfig())
        pid, commands, _ = workers.procs[0]
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, commands)  # the pipe's only write end closes
        os.close(null)
        deadline = time.monotonic() + 30.0
        while (ended := os.waitid(os.P_PID, pid,
                                  os.WEXITED | os.WNOWAIT | os.WNOHANG)) is None:
            assert time.monotonic() < deadline, "the worker did not leave"
            time.sleep(0.01)
        assert (ended.si_code, ended.si_status) == (os.CLD_EXITED, 0)
        monkeypatch.setattr(os, "kill", lambda *args: pytest.fail(f"killed {args}"))
    assert len(forks) == 2
    assert_no_child_left()
