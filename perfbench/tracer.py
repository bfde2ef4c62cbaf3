"""In-memory spans for the traced benchmark run.

A span carries a name, an optional tag, a start, an end, its parent's
id and the id of the run it belongs to. Spans stay in memory while the
run works and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: str
    name: str
    tag: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(next(self._ids), parent, self.run_id, name, tag, time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def covered(span: Span, kids: list[Span]) -> float:
    """Length of span's interval covered by the union of kids."""
    total = 0.0
    reach = span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo = max(k.start, reach)
        hi = min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered(s, kids.get(s.id, [])) for s in spans}


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems found: a child outside its parent, or a dangling parent."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} {s.name}: parent {s.parent} missing")
        elif s.start < p.start or s.end > p.end or s.run != p.run:
            problems.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    return problems
