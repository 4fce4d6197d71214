"""Spans recorded from outside the program.

The tracer wraps public functions of safelift by replacing the module
attributes its callers look them up through, and records one span per call:
name, start, end and the index of the enclosing span. Spans stay in memory;
the workload process aggregates them after each round.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, on_result=None):
        """fn with a span around every call; on_result(args, result) may count."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str, exclude_children: set[str]) -> list[float]:
        """Duration of each `name` span minus its direct children named in
        exclude_children (children not named count as the span's own work)."""
        child = {}
        for s in self.spans:
            if s[3] >= 0 and s[0] in exclude_children:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        return [s[2] - s[1] - child.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set (owner, attribute) -> value; restores on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
