"""In-memory spans around calls into radtree, recorded from outside.

A Tracer replaces a function where its caller looks it up (a module
attribute or a classmethod) with a wrapper that records one span per call:
an id, the span name, start, end and the id of the enclosing span.  Spans
stay in memory; the benchmark aggregates them after each run.  A layer's
self time is its span's duration minus the durations of its child spans
(calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

HOOK_SPAN = "trace.hook"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``hook(counts, args, kwargs,
        result)`` runs after the call in a span of its own, so that counting
        is not charged to any layer."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent))
            if hook is not None:
                hid = self._next_id
                self._next_id += 1
                h_start = clock()
                hook(self.counts, args, kwargs, result)
                spans.append(Span(hid, HOOK_SPAN, h_start, clock(), parent))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, hook: Callable | None = None) -> bool:
        """Wrap ``owner.attr`` in place; False when the attribute does not exist."""
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            replacement = self.wrap(name, raw, hook)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def take(self) -> tuple[list[Span], Counter]:
        """Return and clear the recorded spans and counts."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and call count."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"total": 0.0, "self": 0.0, "calls": 0})
        duration = span.end - span.start
        row["total"] += duration
        row["self"] += duration - child_time[span.id]
        row["calls"] += 1
    return out


def root_time(spans: list[Span]) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(span.end - span.start for span in spans if span.parent is None)
