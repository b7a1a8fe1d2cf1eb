"""Spans and counts around dcnsim's public functions, installed from outside.

A traced function is replaced in the namespace of the module that
imports it (for a method, on its class), so dcnsim's own source carries
no timers.  Spans are kept in memory as [name, start, end, parent], with
parent the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records spans and call counts of the functions it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name, fn, note=None):
        """Wrap `fn` in a span; `note(counts, args, kwargs, result)` may count more."""
        spans, counts, stack = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[name] += 1
            if note is not None:
                note(counts, args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        """Wrap `fn` in a bare call counter, for functions called millions of times."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def total_s(self, name) -> float:
        return sum((end - start for span_name, start, end, _ in self.spans
                    if span_name == name), 0.0)

    def self_s(self, name) -> float:
        """Time in spans called `name` not covered by their child spans."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return sum((end - start - children[index]
                    for index, (span_name, start, end, _) in enumerate(self.spans)
                    if span_name == name), 0.0)


@contextlib.contextmanager
def installed(replacements):
    """Set each (owner, attribute, replacement) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
