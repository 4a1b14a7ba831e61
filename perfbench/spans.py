"""In-memory span recorder and the arithmetic over its spans.

A span is one call of a wrapped function: its name, start and end on the
recorder's clock, its parent span, the thread it ran on, a work count and
whether the call raised.  The parent is the span open on the calling thread
when the call began, or a span named explicitly, which is how a block run on
a pool thread is tied to the ``map_blocks`` call that submitted it.  Spans
stay in memory until the run ends; metrics are computed from the list.

Self time is a span's duration minus the part of it that its children cover.
Children on other threads can overlap each other, so the covered part is the
length of the union of the children's intervals, clipped to the parent's.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int
    error: bool
    cpu: float  # thread CPU seconds inside the span; measured for pool blocks only

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.ident = threading.get_ident()  # one int object per thread, not per span
        return stack

    def current(self) -> int | None:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, work=None, parent=None, cpu=False):
        """Run ``fn(*args, **kwargs)`` inside a new span and return its result.

        ``parent`` defaults to the span open on this thread.  ``work(args,
        kwargs, result)`` gives the work count, 1 when omitted; a call that
        raises records work 0.  With ``cpu`` the span also records the
        thread CPU time it used.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        cpu0 = time.thread_time() if cpu else 0.0
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, name, start, parent, 0, True, cpu, cpu0)
            raise
        count = 1 if work is None else work(args, kwargs, result)
        self._close(sid, name, start, parent, count, False, cpu, cpu0)
        return result

    def _close(self, sid, name, start, parent, count, error, cpu, cpu0):
        end = self.clock()
        used = time.thread_time() - cpu0 if cpu else 0.0
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, self._local.ident, count, error, used))

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        """``fn`` wrapped so that every call records one span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over one run's spans: counts, work, busy time, self time."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s.sid: s for s in self.spans}
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, names: Iterable[str]) -> list[Span]:
        return [s for n in names for s in self.by_name.get(n, ())]

    def calls(self, *names: str) -> int:
        return len(self.named(names))

    def errors(self, *names: str) -> int:
        return sum(s.error for s in self.named(names))

    def work(self, *names: str) -> int:
        return sum(s.work for s in self.named(names))

    def has_ancestor(self, s: Span, names) -> bool:
        p = s.parent
        while p is not None:
            anc = self.by_id.get(p)
            if anc is None:
                return False
            if anc.name in names:
                return True
            p = anc.parent
        return False

    def busy(self, *names: str, under: Iterable[str] = ()) -> float:
        """Summed duration of the outermost spans among ``names``.

        A span nested (at any depth) inside another span of the set is not
        counted again.  With ``under``, only spans that have an ancestor
        named in ``under`` count.  Spans on different threads add up, so
        the result is in thread-seconds.
        """
        nameset, underset = set(names), set(under)
        return sum(
            (
                s.duration
                for s in self.named(names)
                if not self.has_ancestor(s, nameset)
                and (not underset or self.has_ancestor(s, underset))
            ),
            0.0,
        )

    def self_time(self, s: Span) -> float:
        """``s``'s duration minus the union of its children's intervals."""
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in self.children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ]
        return s.duration - _union_length(clipped)

    def own_time(self, prefix: str, root: str) -> float:
        """Self time of the spans named ``prefix...`` inside spans named ``root``
        (those included): the time ``root`` spends in its own module's code."""
        return sum(
            (
                self.self_time(s)
                for name, spans in self.by_name.items()
                if name.startswith(prefix)
                for s in spans
                if s.name == root or self.has_ancestor(s, {root})
            ),
            0.0,
        )

    def waited(self, *names: str) -> float:
        """Wall time minus thread CPU time, summed over spans measured with ``cpu``."""
        return sum((s.duration - s.cpu for s in self.named(names)), 0.0)
