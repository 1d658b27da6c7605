"""Spans around the package's public callables, installed from outside it.

A wrap point is (owner, attribute, span name, measure).  The owner is the
namespace the caller looks the name up in: a module's globals for calls
inside the package, the package itself for calls from the benchmark, or a
class for methods.  Several wrap points may feed one span name.  measure,
when given, turns the call's result into a count added to the span.

Each call records [name, start, end, parent index, count].  The benchmark
runs single-threaded, so spans nest and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self, wrap_points):
        self.wrap_points = list(wrap_points)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, measure in self.wrap_points:
            namespace = vars(owner)
            if attr not in namespace:
                self.restore()
                raise LookupError(f"wrap point {owner.__name__}.{attr} does not exist")
            original = namespace[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def restore(self) -> None:
        """Undo every patch, newest first, and check that each one is undone."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed count, and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, count) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["count"] += count
            entry["self_s"] += end - start - child_time[k]
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent, i.e. spent in the package."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of span `name` made while a span `ancestor` was open."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent index, count."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
