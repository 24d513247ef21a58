"""fork_map: what ``map`` yields, then its exception, on any number of workers,
and usable_cpus, the number of workers the CLI deals to."""

from __future__ import annotations

import os
import pickle
import signal
import threading

import numpy as np
import pytest

import natreg._forkjoin
from natreg._forkjoin import fork_map, usable_cpus

_ITEMS = range(10)


class _Failed(Exception):
    pass


def _mapper(raising=(), killed=None):
    """``fn`` of ``i``: ``i % 3`` rows of ``i``, two wide, or ``_Failed`` for
    an item in ``raising``.  A child that reaches item ``killed`` is
    SIGKILLed.  Returns ``fn`` and the items it ran in this process."""
    parent, calls = os.getpid(), []

    def fn(i):
        if os.getpid() == parent:
            calls.append(i)
        elif i == killed:
            os.kill(os.getpid(), signal.SIGKILL)
        if i in raising:
            raise _Failed(f"item {i}")
        return np.full((i % 3, 2), float(i))

    return fn, calls


def _outcome(results) -> list:
    """Each result that iterating ``results`` yields, as its shape and bytes,
    then the exception it raises."""
    outcome = []
    try:
        for value in results:
            outcome.append((value.shape, value.tobytes()))
    except _Failed as exc:
        outcome.append((type(exc), str(exc)))
    return outcome


def _sent(workers: int, raising=(), killed=None, forked=None) -> set:
    """The items whose results a child sends: those of its share before the
    first that raises, in each of the first ``forked`` children but one
    that is killed."""
    forked = workers - 1 if forked is None else forked
    sent = set()
    for worker in range(1, 1 + forked):
        share = list(_ITEMS[worker::workers])
        if killed in share:
            continue
        for i in share:
            if i in raising:
                break
            sent.add(i)
    return sent


def _check(workers: int, raising=(), killed=None, forked=None) -> None:
    fn, _ = _mapper(raising)
    serial = _outcome(map(fn, _ITEMS))
    fn, calls = _mapper(raising, killed)
    assert _outcome(fork_map(fn, _ITEMS, workers)) == serial
    assert not set(calls) & _sent(workers, raising, killed, forked)
    assert all(calls.count(i) == 1 for i in calls)  # a failing item runs here once too


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_rows_are_the_serial_loops(workers):
    _check(workers)


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("item", ("first", "later"))
def test_an_item_of_this_process_raises(workers, item):
    _check(workers, raising={0 if item == "first" else 2 * workers})


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_an_item_of_a_child_raises(workers):
    _check(workers, raising={workers + 1})


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_a_childs_failing_item_before_this_processs_raises_first(workers):
    # item 1 is the first child's, item 2 * workers this process's
    _check(workers, raising={2 * workers, 1})


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("raising", ((), (8,)))
def test_the_second_fork_fails(monkeypatch, workers, raising):
    real, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no process to spare")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    _check(workers, raising=raising, forked=min(1, workers - 1))
    assert len(forks) == min(2, workers - 1)


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("raising", ((), (9,)))
def test_a_child_killed_mid_share(workers, raising):
    # the first child is killed on its second item
    _check(workers, raising=raising, killed=1 + workers)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_a_child_that_sends_a_truncated_pickle(monkeypatch, workers):
    def truncated(done, pipe):
        with open(pipe, "wb") as out:
            out.write(pickle.dumps(done, pickle.HIGHEST_PROTOCOL)[:-1])
        os._exit(0)

    monkeypatch.setattr(natreg._forkjoin, "_send", truncated)  # only children send
    for raising in ((), (9,)):
        # no child's results arrive, so this process runs every child's items
        _check(workers, raising=raising, forked=0)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_results_that_are_not_arrays_are_the_serial_loops(workers):
    def unpicklable():  # a child's item: its share is run again here
        pass

    def fn(i):
        return unpicklable if i == 5 else (i, None) if i % 2 else i * i

    assert list(fork_map(fn, _ITEMS, workers)) == list(map(fn, _ITEMS))


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_no_items_give_an_empty_list(workers):
    assert list(fork_map(lambda i: np.zeros((1, 1)), [], workers)) == []


@pytest.mark.parametrize("workers", (2, 3))
def test_an_iterator_abandoned_after_its_first_result_leaves_no_child(workers):
    fn, calls = _mapper()
    results = fork_map(fn, _ITEMS, workers)
    assert calls == []  # nothing runs before the first result is asked for
    assert next(results).shape == (0, 2)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    results.close()
    assert calls == list(_ITEMS[::workers])  # this process's share, run once


@pytest.mark.parametrize("raising", ((), (7,)))
def test_a_caller_with_another_thread_forks_nothing(monkeypatch, raising):
    # a fork of a multi-threaded process may deadlock in the child
    real, forks = os.fork, []

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    fn, _ = _mapper(raising)
    serial = _outcome(map(fn, _ITEMS))
    idle = threading.Event()
    thread = threading.Thread(target=idle.wait)
    thread.start()
    try:
        assert _outcome(fork_map(fn, _ITEMS, 3)) == serial
    finally:
        idle.set()
        thread.join()
    assert forks == []


def test_usable_cpus_are_the_ones_this_process_may_run_on(monkeypatch):
    # so under `taskset -c 0` the audit and the CSV parse fork no process
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "fork")
    assert usable_cpus() == 1
