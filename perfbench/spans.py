"""Spans recorded by the benchmark around its calls into each pwpolicy module.

A span is (id, name, parent, start, end). Spans are kept in memory and
written out once, when the run ends. Self time is a span's duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its [id, name, parent, start, end]."""
        record = [len(self.spans), name, self._stack[-1] if self._stack else None,
                  time.perf_counter() - self._origin, None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = time.perf_counter() - self._origin

    def duration(self, record: list) -> float:
        return record[4] - record[3]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[list]] = {}
        for s in self.spans:
            if s[2] is not None:
                children.setdefault(s[2], []).append(s)
        out = []
        for s in self.spans:
            covered = 0.0
            reach = s[3]
            for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
                start, end = max(c[3], reach), min(c[4], s[4])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(self.duration(s) - covered)
        return out

    def totals(self, parent: int) -> dict[str, float]:
        """Summed duration of every descendant of `parent`, by span name."""
        below = {parent}
        sums: dict[str, float] = {}
        for s in self.spans:  # parents are always recorded before children
            if s[2] in below:
                below.add(s[0])
                sums[s[1]] = sums.get(s[1], 0.0) + self.duration(s)
        return sums

    def write(self, path: str) -> None:
        selfs = self.self_times()
        doc = [
            {"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4], "self": t}
            for s, t in zip(self.spans, selfs)
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def span_cost(samples: int = 20_000) -> float:
    """Seconds one span adds: a loop of empty spans minus the same bare loop."""
    scratch = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with scratch.span("x"):
            pass
    t1 = time.perf_counter()
    for _ in range(samples):
        pass
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / samples
