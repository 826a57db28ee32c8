"""Layer spans recorded from the benchmark's own files.

The program is not edited: in a traced run, :class:`Tracer` replaces a
layer's public entry point *where its caller looks it up* (a module
global such as ``repro.algorithms.chains.solve_lp1``, or the
``Solver.build`` method of the registry) with a wrapper that records a
span, and puts the original back afterwards.  Spans nest per thread, so
a layer's self time is its span's duration minus the time its child
spans cover.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

#: A span name, or a function of the call's arguments that returns one
#: (or ``None`` to let the call through untimed).
SpanName = str | Callable[..., "str | None"]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` becomes a span ``name``."""

    owner: object
    attr: str
    name: SpanName


class Tracer:
    """Per-thread span stacks and per-name self time."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.self_ns: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        with self._lock:
            self.self_ns.clear()

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, fn: Callable, name: SpanName) -> Callable:
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(*args, **kwargs)
            if span is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            children = [0]
            stack.append(children)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    self.self_ns[span] += dur - children[0]

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the ``with`` block."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9
