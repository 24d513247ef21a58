"""Fork-join: a function mapped over items in processes, as ``map`` maps it."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable[[Item], Result], items: Sequence[Item], workers: int) -> Iterator[Result]:
    """``map(fn, items)``: ``fn(item)`` for each item in turn, then the
    exception ``map`` raises there, whatever the number of workers and
    whether a fork, pipe or child fails.

    Item i is dealt to worker ``i % workers``: this process is worker 0 and
    a forked child each other one.  A worker runs its items in order until
    one raises; a child then pickles the results of the items before it.
    Before the first result is yielded, this process reads what each child
    sent, unless all its items come after the first of this process's
    items that raised, and kills and reaps every child.  It then yields the
    results in item order, running each item whose result it lacks, so the
    first exception it meets is ``map``'s.  No item whose result a child
    sent runs again, and an item that raises runs at most twice.  A result
    that does not pickle cuts its child's pickle short, so that child's
    share runs here.
    """
    workers = max(1, min(workers, len(items)))
    results: dict[int, Result] = {}
    children: list[tuple[int, int]] = []
    with contextlib.suppress(OSError):  # no pipe or process to spare: their items run here
        for worker in range(1, workers):
            children.append(_fork(fn, items[worker::workers]))
    stop = len(items)  # where this process's own items raised
    try:
        for i in range(0, len(items), workers):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                stop, raised = i, exc
                break
        for worker, (_, pipe) in enumerate(children, start=1):
            if worker < stop:  # else every item of its share comes after the failure
                results.update(zip(range(worker, len(items), workers), _receive(pipe)))
    finally:
        for pid, pipe in children:
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)  # done, or its results are not needed
            os.waitpid(pid, 0)
    for i, item in enumerate(items):
        if i == stop:
            raise raised
        yield results.pop(i) if i in results else fn(item)


def _fork(fn: Callable[[Item], Result], share: Sequence[Item]) -> tuple[int, int]:
    """Fork a child that runs ``fn`` over ``share`` and sends the results of
    the items before the first that raises: (pid, the pipe's read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child never returns, nor writes to stdout or stderr
        try:
            os.close(read_end)
            done = []
            for item in share:
                try:
                    done.append(fn(item))
                except Exception:
                    break
            _send(done, write_end)
        finally:
            os._exit(0)  # what the parent reads is what it sent, not this code
    os.close(write_end)
    return pid, read_end


def _send(done: list, pipe: int) -> None:
    """Pickle the list of results ``done`` to ``pipe``."""
    with open(pipe, "wb") as out:
        pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)


def _receive(pipe: int) -> list:
    """The results a child sent, in order; none when what it sent does not
    unpickle, as when it was cut short."""
    with open(pipe, "rb", closefd=False) as stream:
        try:
            return pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            return []
