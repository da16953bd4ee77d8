"""Span recording around landmix's module-level names, from outside the package.

The benchmark never edits ``src/``: it replaces module attributes (and a few
class attributes) with thin wrappers while a traced cycle runs, then puts the
originals back.  Two kinds of wrapper exist:

* spans: name, start, end and parent span id, kept in memory.  Each span
  belongs to one layer (the landmix module whose code it times).  A layer's
  self time is the sum over its spans of duration minus the time covered by
  child spans.
* timers: a call count and a total duration per name, for calls made
  thousands of times per chain (update methods, the truncated
  inverse-gamma draw).  They are leaves inside a sampler span, so they add
  nothing to the self-time bookkeeping.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.timers: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._child_time: dict[int, float] = defaultdict(float)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, layer: str):
        return _SpanContext(self, name, layer)

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start, end) -> None:
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, layer, start, end))
        if parent is not None:
            self._child_time[parent] += end - start

    def _span_wrapper(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, layer, start, perf_counter())

        return wrapper

    def _timer_wrapper(self, fn, name: str):
        slot = self.timers[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += perf_counter() - start

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return  # the name does not exist in this version: nothing to time
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap_span(self, owner, attr: str, name: str, layer: str) -> None:
        self._patch(owner, attr, lambda fn: self._span_wrapper(fn, name, layer))

    def wrap_timer(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._timer_wrapper(fn, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_time(self, span: Span) -> float:
        return span.duration - self._child_time.get(span.sid, 0.0)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += self.self_time(s)
        return out

    def total(self, *names: str) -> float:
        """Summed duration of the spans with any of these names."""
        return sum(s.duration for s in self.spans if s.name in names)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self.tracer._close(self.sid, self.parent, self.name, self.layer, self.start, self.end)
