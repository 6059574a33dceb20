"""In-memory spans and per-layer self time.

A span is one timed call into a layer: name, start, end, the index of the
span that caused it (None at top level) and the id of the operation it
belongs to. Spans stay in memory while the benchmark runs and are written
out once at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Records nested spans; `run` tags every span opened afterwards."""

    def __init__(self, run: int = 0):
        self.spans: list[Span] = []
        self.run = run
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self.add(name, time.perf_counter(), 0.0)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a span timed elsewhere, by default under the open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append(Span(name, start, end, parent, self.run))
        return len(self.spans) - 1


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its children cover; overlapping children (pool chunks running in
    parallel) are counted once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i]
            if c.end > s.start and c.start < s.end
        ]
        out[s.name] += (s.end - s.start) - _covered(clipped)
    return dict(out)


def top_level_total(spans: list[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)
