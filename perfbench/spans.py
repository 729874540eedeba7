"""In-memory spans recorded around calls into the package's layers.

A span has a name (the per-layer metric it feeds, without the ``_s``
suffix), a start and an end on the ``time.perf_counter`` clock, the index
of the span that encloses it, and the id of the traced iteration it belongs
to.  Spans stay in memory while the run measures and are written out once,
when it ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; ``run_id`` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_seconds(self, index: int) -> float:
        """Duration of a span minus the part of it its children cover."""
        span = self.spans[index]
        covered, reach = 0.0, span.start
        for child in sorted(self.children(index), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.seconds - covered

    def median_seconds(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0 if the layer never ran."""
        values = [s.seconds for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def summary(self) -> dict:
        """Per span name: call count, median duration and median self time."""
        by_name: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(index)
        return {
            name: {
                "calls": len(indices),
                "median_s": statistics.median(self.spans[i].seconds for i in indices),
                "median_self_s": statistics.median(
                    self.self_seconds(i) for i in indices
                ),
            }
            for name, indices in by_name.items()
        }

    def write(self, path) -> None:
        records = [
            dict(asdict(span), seconds=span.seconds, self_s=self.self_seconds(i))
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "summary": self.summary()}, fh, indent=1)


class NullTracer:
    """Tracer stand-in for the untraced copy of a traced operation."""

    def span(self, name: str):
        return contextlib.nullcontext()
