"""In-memory spans for the benchmark's traced runs.

A :class:`Tracer` records one span per call into a layer: name, start,
end, the span that was open when it started (its parent), and a few
attributes.  Spans stay in memory while the run executes and are written
out as JSON lines only at the end, so the cost while tracing is two clock
reads and a list append per call.

Spans are opened only at call boundaries of public entry points (see
``layers.py``), never per simulated access.  The parent link follows
``contextvars``, so concurrent asyncio tasks each see their own open span;
work handed to another thread starts a new root.

Every timestamp comes from ``time.perf_counter`` (monotonic).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded call: ``[start, end]`` in seconds on the tracer clock."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; :meth:`wrap` patches a callable to record them.

    Args:
        clock: A monotonic clock returning seconds (injectable for tests).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        # ``next`` on a count is atomic, so spans opened from several
        # threads (serve's simulation thread) never share an id.
        self._ids = itertools.count()
        self._clock = clock
        self._origin = clock()
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            f"open_span_{id(self)}", default=None)
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; yields the :class:`Span`
        so the caller can attach attributes before it closes."""
        rec = Span(next(self._ids), name, 0.0, 0.0, self._open.get(),
                   dict(attrs))
        self.spans.append(rec)  # in the order spans open
        token = self._open.set(rec.id)
        rec.start = self._clock() - self._origin
        try:
            yield rec
        finally:
            rec.end = self._clock() - self._origin
            self._open.reset(token)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``observe(span, args, kwargs, result)``, when given, runs after
        the call returns and may attach attributes to the span.
        Coroutine functions get an async wrapper, so the span covers the
        awaited work.  :meth:`unwrap_all` restores every original.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name) as rec:
                    result = await original(*args, **kwargs)
                    if observe is not None:
                        observe(rec, args, kwargs, result)
                    return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as rec:
                    result = original(*args, **kwargs)
                    if observe is not None:
                        observe(rec, args, kwargs, result)
                    return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        """Write every span, with its self time, one JSON object a line."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "self": selfs[s.id], "attrs": s.attrs,
                }, sort_keys=True, default=str) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other (concurrent tasks) are counted once,
    and any part of a child outside its parent's interval is ignored.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([iv for iv in inside
                                           if iv[1] > iv[0]])
    return out
