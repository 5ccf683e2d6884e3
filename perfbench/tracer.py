"""Spans and call counters around the program's layer entry points.

The tracer wraps functions where the program looks them up (a module
attribute or a class attribute) and restores them on exit, so the
program itself carries no tracing code. Two kinds of probe exist:

* a *span* records (name, start, end, parent, execution id) and is kept
  in memory until the run ends;
* a *counted* probe, for functions called hundreds of thousands of
  times per pass (``CostModel.loop``, ``primitives.charge``), keeps only
  a call count and a total time.

Both kinds sit on one stack, so a span's self time is its duration minus
the time of every probe directly below it.
"""
from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "execution", "start", "end", "child_s")

    def __init__(self, name, parent, execution):
        self.name = name
        self.parent = parent
        self.execution = execution
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.execution = None
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, *, counted: bool = False, observe=None):
        """Return ``fn`` wrapped in a span (or a counted probe).

        ``observe(tracer, args, result)`` runs after the call, outside the
        timed interval, to record layer counts such as rows or entries.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            s = Span(name, parent, self.execution)
            stack.append(s)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += s.end - s.start
                if counted:
                    self.calls[name] += 1
                    self.call_s[name] += s.end - s.start
                else:
                    self.spans.append(s)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- aggregation over recorded spans ----------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of ``name`` spans, counting a recursive call
        once (a span nested in a span of the same name is skipped)."""
        total = 0.0
        for s in self.spans:
            if s.name == name and not _has_ancestor(s, name):
                total += s.duration
        return total

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def total_s_under(self, name: str, parent: str) -> float:
        """Summed duration of ``name`` spans called directly by ``parent``."""
        return sum(
            s.duration
            for s in self.spans
            if s.name == name and s.parent is not None and s.parent.name == parent
        )


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


@contextlib.contextmanager
def patched(targets):
    """Set ``(owner, attr, value)`` triples for the duration of the block,
    restoring each owner's own attribute (or its absence) afterwards."""
    saved = []
    try:
        for owner, attr, value in targets:
            own = vars(owner).get(attr, _ABSENT)
            saved.append((owner, attr, own))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


_ABSENT = object()
