"""Span timer that wraps public hamforge functions from outside the library.

Each wrapped call records its duration under a span name.  Spans nest: a
span's self time is its duration minus the time covered by wrapped calls
made inside it.  Totals are kept in memory and read out when the run ends.

Functions are patched under the name the caller looks them up by (for
example ``toggling.batch_step_cints``, which ``objectives`` reaches as
``tg.batch_step_cints``), and every patch is undone on exit.
"""
from __future__ import annotations

import time
from collections import defaultdict


class SpanStats:
    __slots__ = ("total", "child", "calls")

    def __init__(self):
        self.total = 0.0
        self.child = 0.0
        self.calls = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self, targets):
        # targets: (owner, attr, span name or label(args, kwargs), observe or None)
        self.targets = list(targets)
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []       # child time of each open span
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, observe in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dur
                stats = tracer.spans[label]
                stats.total += dur
                stats.child += child
                stats.calls += 1
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper
