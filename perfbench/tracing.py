"""Spans around the public functions of the readoutmap modules.

The tracer works from outside the package: `install` replaces every public
function of the layer modules, in every module namespace that holds a
reference to it, with a wrapper that records a span. Spans stay in memory
until `write` puts them in a file; `uninstall` restores the original
functions. Nothing inside `src/` changes.

A span records its name, start, end, parent span and product id. An observer
may add attributes read from a call's arguments (by parameter name) and result,
after the span has ended. Spans opened in a worker thread (the eigensolves of a
threaded drive sweep) take the span open in the main thread as their parent.
Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    product: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self, observers: dict):
        self.spans: list[Span] = []
        self.product: str | None = None
        self._observers = observers
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main) or [None]
                parent = main_stack[-1] if tid != self._main else None
            span = Span(len(self.spans), parent, name, self.product, time.perf_counter())
            self.spans.append(span)
            stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        observe = self._observers.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.attrs.update(observe(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap each public function defined in `modules`, wherever referenced."""
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON object per span and line; times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"sid": s.sid, "parent": s.parent, "name": s.name,
                                     "product": s.product, "start": s.start - t0,
                                     "end": s.end - t0, **s.attrs}, default=float) + "\n")

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out
