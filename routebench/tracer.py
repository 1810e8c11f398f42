"""In-memory span tracer for the benchmark (stdlib only).

Every call the benchmark makes into a layer of the library is wrapped
in ``tracer.span(name)``.  With tracing off the call returns a shared
no-op context, so the untraced run executes the same code path at the
cost of one attribute check.  With tracing on, each span records
``(name, start, end, parent, thread)``; nesting follows a context
variable, so worker threads started through :func:`run_in_thread_context`
keep their parent span.

At the end of a run the spans are aggregated into per-layer self time,
written as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``), and checked for coverage of the traced wall time.
"""

from __future__ import annotations

import contextvars
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: spans whose names start with this prefix are the benchmark's own
#: phases (set-up, measurement, verification); every other span is a
#: call into a layer and counts towards coverage
PHASE_PREFIX = "phase."

_parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "routebench_parent", default=None
)
_suspended: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "routebench_suspended", default=False
)


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter_ns`` values."""

    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: int
    end: int = 0

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / 1e9


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Collects nested spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def span(self, name: str):
        """Context manager timing one call named ``name``."""
        if not self.enabled or _suspended.get():
            return _NULL
        return self._record(name)

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                parent=_parent.get(),
                thread=threading.get_ident(),
                start=0,
            )
            self.spans.append(span)
        token = _parent.set(span.id)
        span.start = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            _parent.reset(token)

    @contextmanager
    def untraced(self, name: str = "bench.untraced") -> Iterator[None]:
        """Run a block as one opaque span with recording of nested
        spans switched off (the untraced half of the overhead
        comparison)."""
        with self.span(name):
            token = _suspended.set(True)
            try:
                yield
            finally:
                _suspended.reset(token)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> self time in seconds (duration minus the time its
        direct children on the same thread cover; children on worker
        threads run alongside their parent rather than inside it)."""
        child_s: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].thread == s.thread:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration_s
        return {s.id: s.duration_s - child_s.get(s.id, 0.0) for s in self.spans}

    def median_s(self, name: str) -> float:
        """Median inclusive duration of the spans called ``name``, in
        seconds (0.0 when the workload never called that layer)."""
        values = [s.duration_s for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def layer_table(self) -> List[Tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` per span name, by self time."""
        self_s = self.self_times()
        rows: Dict[str, List[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration_s
            row[2] += self_s[s.id]
        return sorted(
            ((name, int(c), t, st) for name, (c, t, st) in rows.items()),
            key=lambda r: -r[3],
        )

    def coverage(self) -> float:
        """Share of the phases' wall time covered by layer spans (the
        union over all threads), in percent."""
        phases = _union(
            (s.start, s.end) for s in self.spans if s.name.startswith(PHASE_PREFIX)
        )
        layers = _union(
            (s.start, s.end)
            for s in self.spans
            if not s.name.startswith(PHASE_PREFIX)
        )
        wall = sum(e - b for b, e in phases)
        if wall == 0:
            return 0.0
        return 100.0 * _overlap(layers, phases) / wall

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON ("X" events)."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        threads: Dict[int, int] = {}
        events = []
        for s in self.spans:
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - t0) / 1000.0,
                "dur": (s.end - s.start) / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {"id": s.id, "parent": s.parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": meta,
            }),
            encoding="utf-8",
        )


def _union(intervals) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for b, e in sorted(intervals):
        if merged and b <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((b, e))
    return merged


def _overlap(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> int:
    """Total length of the intersection of two sorted disjoint unions."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def run_in_thread_context(target, *args) -> threading.Thread:
    """A thread that runs ``target`` inside a copy of the caller's
    context, so spans it opens nest under the caller's current span."""
    ctx = contextvars.copy_context()
    return threading.Thread(target=ctx.run, args=(target, *args), daemon=True)
