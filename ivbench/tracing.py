"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only around calls into ivadapt's public functions:
the tracer replaces the names a module looks up (for example
``ivadapt.estimator.basis_matrix``) with timing wrappers and puts the
originals back when the run ends.  Nothing inside the package is
edited.  A name that a later version no longer has is an error, not a
silently untraced layer whose metrics would read zero.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: name, start and end in seconds, parent span id or None."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counters in memory while a traced study runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        start = self.clock()
        self._stack.append((span_id, name, start))
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, self.clock(), parent))

    def inside(self, name: str) -> bool:
        """True when a span of this name is open on the stack."""
        return any(entry[1] == name for entry in self._stack)

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrapper timing each call of fn as a span.

        before(args, kwargs) and after(args, kwargs, result) run outside
        the span, so their bookkeeping is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the time its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so every traced second is counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out


def root_time(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def tail_percentile(values) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, and its value.

    Nearest-rank definition: percentile p is the sample of rank
    ceil(p/100 * N), and N - rank samples lie beyond it.  The result is
    never below the median; with fewer than 20 samples no tail
    percentile qualifies and the median (p = 50) is returned.
    """
    data = sorted(values)
    if not data:
        raise ValueError("need at least one sample")
    n = len(data)
    pct = 50
    for p in range(99, 50, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            pct = p
            break
    if pct == 50:
        return pct, statistics.median(data)
    return pct, data[math.ceil(pct / 100 * n) - 1]


@contextlib.contextmanager
def patched(bindings):
    """Temporarily replace attributes: bindings lists (owner, name, make) and
    each attribute becomes make(original).

    Raises AttributeError, before replacing anything, if an owner lacks
    its attribute.  Originals are restored in reverse order even if the
    body raises.
    """
    bindings = list(bindings)
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in bindings if not hasattr(owner, name)]
    if missing:
        raise AttributeError(f"traced names no longer exist: {', '.join(missing)}")
    saved = []
    try:
        for owner, name, make in bindings:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
