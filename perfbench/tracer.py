"""Outside-in tracer: wraps module attributes, records spans in memory.

The tracer never edits the package. It replaces functions as they are
bound in the calling modules (``wishartgpi.checks.mc_mean`` rather than
``wishartgpi.montecarlo.mc_mean`` alone), records one span per call and
puts the originals back when the ``patched`` block ends. Spans are
thread-safe and carry a parent, so the draw callbacks an estimator runs
on pool threads still nest under that estimator.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def current(self) -> int | None:
        return getattr(self._local, "span", None)

    def call(self, name: str, fn, args, kwargs, parent=None, count=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `parent` defaults to the calling thread's open span. `count`
        maps (args, kwargs, result) to the span's work count.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            span = Span(next(self._ids), parent, name, 0.0)
            self.spans.append(span)
        outer = self.current()
        self._local.span = span.id
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._local.span = outer
        if count is not None:
            span.count = int(count(args, kwargs, result))
        return result

    def wrap(self, name: str, fn, count=None, callback_arg: str | None = None):
        """A stand-in for fn that records a span per call.

        With `callback_arg`, the first positional argument (or that
        keyword) is a draw callback; it is wrapped too, so each of its
        calls becomes a child span counting its `m` draws, on whatever
        thread runs it.
        """
        tracer = self

        def traced(*args, **kwargs):
            if callback_arg is None:
                return tracer.call(name, fn, args, kwargs, count=count)
            owner = []  # the estimator's span id, once its span is open
            inner = args[0] if args else kwargs[callback_arg]

            def callback(gen, m):
                return tracer.call(f"{name}.callback", inner, (gen, m), {}, parent=owner[0],
                                   count=lambda a, k, r: a[1])

            if args:
                args = (callback,) + args[1:]
            else:
                kwargs = {**kwargs, callback_arg: callback}

            def run(*a, **k):
                owner.append(tracer.current())
                return fn(*a, **k)

            return tracer.call(name, run, args, kwargs, count=count)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, wrapper) triples; restore on exit."""
        saved = []
        try:
            for module, attr, wrapper in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals.

    Children on other threads may overlap one another; taking the union
    counts the parent's covered time once, so parallel chunks are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out
