"""Outside-in tracer: wraps natreg's public functions where callers find them.

A wrapper records a span (name, start, end, parent) per call, or only a
count where a span would cost more than the call.  Spans stay in memory and
are written once, by :meth:`Tracer.dump`.  :func:`summarize` turns a dump
into per-name call counts, inclusive time and self time (a span's duration
minus the part of it its child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records a span; ``on_call(args, result)``
        may add counts at the same boundary."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @staticmethod
    def replace_everywhere(package: str, original, new) -> None:
        """Rebind every module-level name under ``package`` bound to ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or module_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, new)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, handle)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return dict(out)
