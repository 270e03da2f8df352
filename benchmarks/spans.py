"""In-memory spans recorded around calls into the evreflex modules.

A traced run swaps selected public functions of the program's modules for
wrappers that open a span, call the original and close the span.  Calls made
by the benchmark and calls the program makes through the patched module
attribute (for example ``simulate_sequence`` calling ``render_frame``) both
land in the trace, so nested spans appear where one public function calls
another.  Nothing in the program itself is changed: the originals are put
back when the ``instrument`` block exits.

Spans live in a list until the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    root: int  # index of the root span: spans of one operation share it


class Tracer:
    """Records nested spans from a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        self.spans.append(Span(name, self.clock(), float("nan"), parent, root))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, points: Iterable[tuple[object, str, str]]):
        """Patch ``module.attribute`` with a traced wrapper named ``span_name``
        for each (module, attribute, span_name); restore the originals on exit."""
        saved = []
        try:
            for module, attribute, span_name in points:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(span_name, original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_total_s: float
    self_median_ms: float


def summarize(spans: Sequence[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, total and self time, median self time per call."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s.end - s.start, own))
    return {
        name: SpanStats(
            calls=len(rows),
            total_s=sum(d for d, _ in rows),
            self_total_s=sum(o for _, o in rows),
            self_median_ms=1e3 * statistics.median(o for _, o in rows),
        )
        for name, rows in by_name.items()
    }
