"""In-memory span recorder for the traced benchmark run.

A span is a name, a start, an end, the index of its parent span and the
id of the item it belongs to. Spans are opened only by the benchmark's own
code around its calls into ``bsqpt``; the package is never patched. They
are kept in memory and written out once, when the run ends. With tracing
off, ``NULL`` hands out one shared no-op context manager and records
nothing, so the untraced run pays for an attribute lookup and a call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None

    @property
    def layer(self) -> str:
        """The module a span belongs to: the part of its name before the first dot."""
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread and nest, so the children of a span are
        disjoint and their durations simply add up.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class _NullTracer:
    item: int | None = None
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop


NULL = _NullTracer()
