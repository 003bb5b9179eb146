"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): parent is the index of the span that
was open when this one started, or None.  Spans stay in memory while the run
measures and are written out once, at the end, so recording costs two clock
reads and a list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def write(path: str, tracers: list[Tracer]) -> None:
    """One JSON line per span; sweep numbers the tracers, id and parent index within one."""
    with open(path, "w", encoding="ascii") as fh:
        for sweep, tracer in enumerate(tracers):
            for i, s in enumerate(tracer.spans):
                fh.write(json.dumps({"sweep": sweep, "id": i, **s._asdict()}) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered(kids, s.start, s.end) for s, kids in zip(spans, children)
    ]


def totals(spans: list[Span], use_self: bool = False) -> dict[str, float]:
    """Summed duration (or self time) per span name."""
    values = self_times(spans) if use_self else [s.duration for s in spans]
    out: dict[str, float] = {}
    for s, v in zip(spans, values):
        out[s.name] = out.get(s.name, 0.0) + v
    return out
