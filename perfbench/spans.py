"""Span recording and the arithmetic the benchmark reports from spans.

Pure logic with no dependency on the simulator, so the tests in this
directory pin it directly:

* :class:`Recorder` keeps spans in memory (name, start, end, parent,
  attributes); parents follow a per-thread stack, so a span opened inside
  another on the same thread is its child.
* :func:`self_time` is a span's duration minus the part of it that its
  child spans cover.
* :func:`wall_breakdown` splits a root span's wall time over the layers
  beneath it: each instant goes to the deepest span active then (the most
  recently started one when concurrent spans tie), so the layers' shares
  plus the root's self time -- the *unaccounted* remainder -- sum to the
  root's duration exactly.
* :func:`tail` is the highest percentile with at least ten samples beyond
  it.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    name: str
    start: float
    end: float
    sid: int
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name without the last part."""
        return self.name.rsplit(".", 1)[0]


class Recorder:
    """In-memory span store; safe to record into from several threads."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as a child of the calling thread's open span."""
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        with self._lock:
            sid = next(self._ids)
        span = Span(name, self.clock(), 0.0, sid, parent, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> Span:
        """Record a span whose interval was measured elsewhere."""
        with self._lock:
            span = Span(name, start, end, next(self._ids), parent, attrs)
            self.spans.append(span)
        return span


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, lo), min(end, hi)) for lo, hi in intervals
                     if hi > start and lo < end)
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the part of it its children cover."""
    return span.duration - covered(span.start, span.end,
                                   [(c.start, c.end) for c in children])


def children_of(spans) -> dict[int | None, list[Span]]:
    """Index spans by parent id."""
    index: dict[int | None, list[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def wall_breakdown(root: Span, index: dict[int | None, list[Span]]
                   ) -> dict[str, float]:
    """Split ``root``'s duration over the layers of its subtree.

    Each instant of the root goes to the deepest span of the subtree that
    is active then; among concurrent spans of equal depth, the most
    recently started one (then the highest id) wins.  Instants no span
    below the root covers are left out: they sum to ``self_time(root,
    ...)``.  Where no spans below the root overlap, each layer's share is
    the sum of its spans' self times.
    """
    entries = []  # (span, depth)
    pending = [(root, 0)]
    while pending:
        span, depth = pending.pop()
        entries.append((span, depth))
        pending.extend((child, depth + 1) for child in index.get(span.sid, ()))
    edges = []
    for span, depth in entries:
        lo, hi = max(span.start, root.start), min(span.end, root.end)
        if hi > lo:
            rank = (depth, span.start, span.sid)
            edges.append((lo, 1, rank, span))
            edges.append((hi, 0, rank, span))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    shares: dict[str, float] = {}
    active: dict[tuple, Span] = {}
    last = root.start
    for at, opening, rank, span in edges:
        if active and at > last:
            top = active[max(active)]
            if top is not root:
                shares[top.layer] = shares.get(top.layer, 0.0) + (at - last)
        last = at
        if opening:
            active[rank] = span
        else:
            active.pop(rank, None)
    return shares


def median(samples) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples beyond.

    Returns ``(value, percentile, count)``.  With ``n`` samples sorted
    ascending, the sample at rank ``n - 10`` has ten beyond it, so it sits
    at percentile ``100 * (n - 10) / n``.  With twenty samples or fewer
    that rank is at or below the median, which is no tail; the maximum
    stands in, reported as percentile 100 so a reader sees the rule could
    not apply.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not ordered:
        raise ValueError("no samples")
    if count <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, count
