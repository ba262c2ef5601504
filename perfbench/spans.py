"""In-memory spans recorded around calls into dataecon's modules.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  The program runs single-threaded, so a span's
direct children never overlap and its self time is its duration minus
theirs.  Spans are kept in a list and written once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


def span_name(fn) -> str:
    """``<module>.<function>`` with the ``dataecon.`` prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    """Wraps functions so that every call records a span, plus counters
    that ``count(args, result)`` extracts from the call after it returns."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, count=None):
        name = span_name(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                counts.update(count(args, result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child_time[i]
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


def import_times(stderr_text: str, packages=("numpy", "scipy", "dataecon")) -> dict:
    """Seconds of import self time per top-level package, summed over its
    modules, from the lines that ``python -X importtime`` writes to stderr."""
    out = dict.fromkeys(packages, 0.0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        root = parts[2].strip().split(".", 1)[0]
        if root in out:
            out[root] += int(parts[0]) * 1e-6
    return out
