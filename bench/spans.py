"""In-memory spans around the calls the benchmark makes into emisim.

A :class:`Tracer` wraps module-level functions and methods of ``emisim`` in
place, from outside the package, so that every call through the CLI opens a
span. A span has a name, a start, an end and the index of the span open when
it began. Spans stay in memory until :meth:`Tracer.dump` writes them out.

When ``tracemalloc`` is tracing, the spans named in ``alloc_spans`` also
record the traced-memory peak above what was live when they opened. These
spans must not nest inside each other, because each resets the peak.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    alloc_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, alloc_spans=frozenset()):
        self.alloc_spans = alloc_spans
        self.spans: list[Span] = []
        self.op = 0  # operation the next spans belong to; 0 is set-up
        self._open: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.op, parent, 0.0)
        self.spans.append(record)
        self._open.append(index)
        alloc = tracemalloc.is_tracing() and name in self.alloc_spans
        if alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if alloc:
                record.alloc_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr: str, name: str, replacement=None) -> None:
        """Replace ``owner.attr`` by a traced version (or by ``replacement``,
        which opens its own spans) until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement or self.wrap(original, name))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def op_spans(self, op: int) -> list:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def self_times(self, op: int) -> dict[int, float]:
        """Span duration minus the durations of its direct children."""
        spans = self.op_spans(op)
        own = {i: s.duration for i, s in spans}
        for _, s in spans:
            if s.parent in own:
                own[s.parent] -= s.duration
        return own

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, **s.__dict__}) + "\n")
