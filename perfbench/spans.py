"""In-memory spans recorded around calls into the program's layers.

A span is (id, parent, name, layer, start, end).  Spans come from two
places: stage blocks in the benchmark (``Tracer.span``) and wrappers that
the benchmark installs over the module attributes through which one layer
calls another (``Tracer.patched``).  Nothing under ``src/`` is edited; the
wrappers are removed when the ``with`` block ends.

A span's self time is its duration minus the part of its interval that its
children cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a top-level span
    name: str
    layer: str
    start: float
    end: float


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, layer: str, start: float) -> None:
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, layer, start, self.clock())

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        sid, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(sid, parent, name, layer, start)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        # the body of span() inlined over locals: this runs once per traced
        # call, up to ~10^5 times a replay, so its cost shows in the gap
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, parent, name, layer, start, end)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str]]) -> Iterator[None]:
        """Replace ``module.attr`` by a traced wrapper for each (module, attr, layer).

        A target the module no longer has is skipped: nothing calls through it.
        """
        saved = []
        try:
            for module, attr, layer in targets:
                if not hasattr(module, attr):
                    continue
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module.__name__.rsplit('.', 1)[-1]}->{attr}"
                setattr(module, attr, self.wrap(fn, name, layer))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return [s for s in self.spans if s is not None]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []))
        for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    own = self_times(spans)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.sid]
    return out


def top_level_total(spans: list[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent == -1)


def write_spans(path: Path, spans: list[Span], summary: dict) -> None:
    """Write spans (times relative to the first start) and a summary as gzip JSON."""
    t0 = min((s.start for s in spans), default=0.0)
    doc = {
        "summary": summary,
        "fields": list(Span._fields),
        "spans": [
            [s.sid, s.parent, s.name, s.layer, round(s.start - t0, 9), round(s.end - t0, 9)]
            for s in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
