"""Fork-join: a function that returns float64 rows, mapped over items in processes."""

from __future__ import annotations

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


def fork_map(fn: Callable[[Item], np.ndarray | None], items: Sequence[Item]) -> np.ndarray | None:
    """The rows of ``fn(item)`` for every item (at least one), in order, or
    None if any item fails.

    ``fn`` returns a 2-D float64 array, of as many columns for every item,
    or None when its item fails.  This process runs the first item; a forked
    child runs each other one and hands its rows to :func:`send_rows`.  An
    item also fails when its child exits nonzero or sends too few rows, and
    every item fails when a pipe or a process cannot be had.  An exception
    of the first item propagates.  Every child is reaped before this returns
    or raises, and killed first when its rows are not needed.
    """
    children: list[tuple[int, int]] = []
    values = None
    try:
        for item in items[1:]:
            children.append(_fork(fn, item))
        values = _gather(fn(items[0]), children)
    except OSError:
        values = None  # no pipe or process to spare
    finally:
        for pid, pipe in children:
            os.close(pipe)
            if values is None:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    return None if any(statuses) else values


def send_rows(values: np.ndarray | None, pipe: int) -> int:
    """Write the row count as one int64, then the float64 rows: the exit code.

    Writes nothing and returns 1 when ``values`` is None.
    """
    if values is None:
        return 1
    with open(pipe, "wb") as out:
        out.write(np.int64(len(values)))
        out.write(values)
    return 0


def _fork(fn: Callable[[Item], np.ndarray | None], item: Item) -> tuple[int, int]:
    """Fork a child that sends ``fn(item)`` down a pipe: (pid, the pipe's read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child never returns, nor writes to stdout or stderr
        code = 1
        try:
            os.close(read_end)
            code = send_rows(fn(item), write_end)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _gather(first: np.ndarray | None, children: list[tuple[int, int]]) -> np.ndarray | None:
    """``first`` followed by each child's rows, read straight into one array."""
    if first is None or not children:
        return first
    counts = [len(first)]
    for _, pipe in children:
        count = np.zeros(1, dtype=np.int64)
        if not _read_into(pipe, count):
            return None
        counts.append(int(count[0]))
    values = np.empty((sum(counts), first.shape[1]))
    at = len(first)
    values[:at] = first
    for rows, (_, pipe) in zip(counts[1:], children):
        if rows and not _read_into(pipe, values[at : at + rows]):  # cast("B") rejects 0 rows
            return None
        at += rows
    return values


def _read_into(pipe: int, array: np.ndarray) -> bool:
    """Fill ``array`` from ``pipe``; False if the pipe ends first."""
    view = memoryview(array).cast("B")
    while view:
        count = os.readv(pipe, [view])
        if not count:
            return False
        view = view[count:]
    return True
