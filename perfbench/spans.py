"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call into a layer: name, start, end, the id of the span that
was open around it (its parent) and the id of the traced run. Each thread
keeps its own stack of open spans, so two threads never see each other's
parents; work handed to a pool is linked to the span that submitted it with
`Recorder.linked`. Spans stay in memory and are written once, by `dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self._rows: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self) -> tuple:
        """Start a span under the current one; returns the handle for `close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, handle: tuple, name: str, attrs: dict) -> None:
        end = time.perf_counter()
        span_id, parent, start = handle
        self._stack().pop()
        with self._lock:
            self._rows.append((span_id, parent, name, start, end, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; the body may add to the yielded attrs."""
        handle = self.open()
        try:
            yield attrs
        finally:
            self.close(handle, name, attrs)

    def linked(self, fn):
        """Wrap fn so that, in whichever thread runs it, its spans hang under the current span."""
        parent = self.current()

        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            rows = list(self._rows)
        return [Span(i, p, n, s, e, self.run_id, a) for i, p, n, s, e, a in rows]

    def dump(self, path) -> None:
        with self._lock:
            rows = list(self._rows)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "spans": rows}))


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [Span(i, p, n, s, e, data["run"], a) for i, p, n, s, e, a in data["spans"]]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap one another (they ran in different threads); the
    covered part is the union of their intervals, clipped to the parent's.
    """
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - covered(clipped)
    return out
