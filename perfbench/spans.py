"""In-memory span recorder and the arithmetic the benchmark reports.

Spans are recorded from the benchmark's own code, around calls into
each layer's public functions: either at the call site
(:meth:`Tracer.span`, :meth:`Tracer.iter_spans`) or by temporarily
replacing a function or method with a timing wrapper
(:meth:`Tracer.patch`). Nothing under ``src/`` is edited; every patch
is undone by :meth:`Tracer.restore`.

A span is ``(name, start, end, parent, span_id, run_id)``. The parent
is the innermost span open in the same thread or asyncio task, which
a :class:`contextvars.ContextVar` tracks. Spans stay in memory until
:meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import math
import statistics
import time
from collections import Counter
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    span_id: int
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merged(intervals: Iterable[Tuple[float, float]]
            ) -> List[Tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    return sum(end - start for start, end in _merged(intervals))


def overlap_length(outer: Iterable[Tuple[float, float]],
                   inner: Iterable[Tuple[float, float]]) -> float:
    """Length of ``union(outer) ∩ union(inner)``."""
    a, b = _merged(outer), _merged(inner)
    total = 0.0
    i = j = 0
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


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (overlapping children are
    counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - overlap_length(
                [(span.start, span.end)], children.get(span.span_id, ()))
            for span in spans}


#: Percentiles :func:`tail_percentile` may report, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)


def tail_percentile(values: Sequence[float], min_beyond: int = 10,
                    ladder: Sequence[float] = TAIL_LADDER
                    ) -> Tuple[Optional[float], float]:
    """The highest percentile in ``ladder`` that still has at least
    ``min_beyond`` samples above it, as ``(pct, value)``.

    When no percentile in the ladder has that support, the sample is
    too small for a tail estimate and its median is reported as
    ``(None, median)``."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in sorted(ladder, reverse=True):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return None, statistics.median(ordered)


class Tracer:
    """Collects spans and counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None)
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------ recording
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._parent.get()
        token = self._parent.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._parent.reset(token)
            self.spans.append(
                Span(name, start, end, parent, span_id, self.run_id))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def iter_spans(self, name: str, iterable: Iterable,
                   rows: Optional[Callable[[object], int]] = None
                   ) -> Iterator:
        """Yield from ``iterable``, recording one span per item for
        the time spent producing it (and ``rows(item)`` in counter
        ``name + ".rows"``)."""
        iterator = iter(iterable)
        while True:
            parent = self._parent.get()
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            self.spans.append(Span(name, start, time.perf_counter(), parent,
                                   next(self._ids), self.run_id))
            if rows is not None:
                self.count(name + ".rows", rows(item))
            yield item

    def wrap(self, name: str, fn: Callable,
             rows: Optional[Callable[..., int]] = None) -> Callable:
        """A timing wrapper around ``fn`` (sync or coroutine).
        ``rows(result, *args)`` adds to counter ``name + ".rows"``."""
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with self.span(name):
                    return await fn(*args, **kwargs)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if rows is not None:
                self.count(name + ".rows", rows(result, *args))
            return result
        return wrapper

    # -------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str,
              rows: Optional[Callable[..., int]] = None) -> None:
        """Replace ``owner.attr`` (a module function or a class's own
        method) with a span-recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, rows))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- reporting
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def busy_s(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_s(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        own = self_times(self.spans)
        return sum(own[span.span_id] for span in self.named(name))

    def dump(self, path) -> None:
        """Write spans (JSON lines) and counters to ``path``."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
