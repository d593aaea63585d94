"""In-memory spans around the calls the benchmark makes into each layer.

The tracer replaces a function at the place where callers look it up (a
module global, or a class attribute for methods) with a wrapper that records
a span: name, start, end, the index of the enclosing span, and an optional
work count.  Nothing in the package under test is edited; ``restore`` puts
the original objects back.  Names that a later version of the package no
longer has are skipped, so the same benchmark runs on every commit.

Spans stay in memory while the traced repetition runs and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for a root span
    count: object = None  # work done, as the target's counter reports it

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, count=None) -> bool:
        """Record a span for every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments
        returning one.  ``count(args, kwargs, result)`` gives the work done.
        Returns False when ``owner`` has no such attribute.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(_label(name, args, kwargs), start, end,
                                    stack[-1] if stack else -1)
                raise
            end = time.perf_counter_ns()
            stack.pop()
            work = count(args, kwargs, result) if count else None
            spans[index] = Span(_label(name, args, kwargs), start, end,
                                stack[-1] if stack else -1, work)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as TSV: index, name, start and end (ns from the first
        span's start), parent index."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for k, s in enumerate(self.spans):
                fh.write(f"{k}\t{s.name}\t{s.start_ns - origin}\t"
                         f"{s.end_ns - origin}\t{s.parent}\n")


def _label(name, args, kwargs) -> str:
    return name(args, kwargs) if callable(name) else name


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Calls are synchronous and single-threaded, so children never overlap
    and their durations simply add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration_s
    return [s.duration_s - c for s, c in zip(spans, child)]


def covered_s(spans) -> float:
    """Wall time inside at least one span (the root spans' total)."""
    return sum(s.duration_s for s in spans if s.parent < 0)


def enclosing(spans, predicate) -> list[int]:
    """Per span, the index of the nearest span (itself included) for which
    ``predicate(span)`` holds, or -1."""
    out = []
    for k, s in enumerate(spans):
        if predicate(s):
            out.append(k)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out
