"""Fork-join: a function that returns float64 rows, mapped over items in processes."""

from __future__ import annotations

import contextlib
import os
import signal
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

Item = TypeVar("Item")


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable[[Item], np.ndarray], items: Sequence[Item], workers: int) -> np.ndarray:
    """``np.concatenate([fn(item) for item in items])``, or the exception it
    raises, whatever the number of workers and whether a fork, pipe or
    child fails.

    ``fn`` returns a 2-D float64 array.  Item i is dealt to worker
    ``i % workers``: this process is worker 0 and a forked child each other
    one.  A worker runs its items in order until one raises; a child then
    sends the rows of the items before it.  When item 0 raises, the children
    are killed and the exception propagates.  Otherwise this process reads
    every child's rows and reaps every child, then runs each item whose rows
    it lacks, in item order, so the first exception it meets is the serial
    loop's.  No item whose rows a child sent runs again, and an item that
    raises runs at most twice.
    """
    workers = max(1, min(workers, len(items)))
    rows: list[np.ndarray | None] = [None] * len(items)
    children: list[tuple[int, int]] = []
    with contextlib.suppress(OSError):  # no pipe or process to spare: their items run here
        for worker in range(1, workers):
            children.append(_fork(fn, items[worker::workers]))
    stop = len(items)  # where this process's own items raised
    try:
        for i in range(0, len(items), workers):
            try:
                rows[i] = fn(items[i])
            except Exception as exc:
                if i == 0:
                    raise
                stop, raised = i, exc
                break
        for worker, (_, pipe) in enumerate(children, start=1):
            for i, values in zip(range(worker, len(items), workers), _receive(pipe)):
                rows[i] = values
    finally:
        for pid, pipe in children:
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)  # done, or its rows are not needed
            os.waitpid(pid, 0)
    for i, item in enumerate(items):
        if i == stop:
            raise raised
        if rows[i] is None:
            rows[i] = fn(item)
    return np.concatenate(rows)


def _fork(fn: Callable[[Item], np.ndarray], share: Sequence[Item]) -> tuple[int, int]:
    """Fork a child that runs ``fn`` over ``share`` and sends the rows of the
    items before the first that raises: (pid, the pipe's read end)."""
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
            _send_rows(done, write_end)
        finally:
            os._exit(0)  # what the parent reads is what it sent, not this code
    os.close(write_end)
    return pid, read_end


def _send_rows(done: list[np.ndarray], pipe: int) -> None:
    """Write the item count, the row width and each item's row count as
    int64, then every item's float64 rows."""
    width = done[0].shape[1] if done else 0
    with open(pipe, "wb") as out:
        out.write(np.array([len(done), width, *map(len, done)], dtype=np.int64))
        if done:
            out.write(np.concatenate(done))


def _receive(pipe: int) -> list[np.ndarray]:
    """The rows of each item a child sent, in order; none when what it
    sent is cut short."""
    with open(pipe, "rb", closefd=False) as stream:
        sent = stream.read()
    words = np.frombuffer(sent, dtype=np.int64, count=len(sent) // 8)
    if len(words) < 2 or len(words) < 2 + words[0]:
        return []
    done, width = words[:2]
    bounds = np.cumsum([0, *words[2 : 2 + done]])
    if len(sent) != 8 * (2 + done + bounds[-1] * width):
        return []
    values = words[2 + done :].view(np.float64).reshape(bounds[-1], width)
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]
