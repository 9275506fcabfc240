"""Outside-in tracing: spans around qsim's public functions, no edit to qsim.

``Tracer.install`` rebinds each traced function, in every qsim module that
holds it under any name, to a wrapper that records a span: name, start,
end, parent and op id. Spans stay in memory. Outside ``Tracer.op`` the
wrappers call straight through, so the output checks leave no spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable

ROOT_SPAN = "op"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end")

    def __init__(self, name: str, op: int, parent: int | None):
        self.name = name
        self.op = op
        self.parent = parent  # index of the parent span, None for an op's root
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """Records spans of the traced functions while an op runs.

    observers maps a traced name to ``f(args, result)``, whose cheap return
    value is kept with the op id in ``observations`` for derived counters.
    """

    def __init__(self, names: tuple[str, ...], observers: dict[str, Callable] | None = None):
        self.names = names
        self.observers = observers or {}
        self.spans: list[Span] = []
        self.observations: list[tuple[int, str, Any]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Rebind every traced function in every loaded qsim module.

        A name qsim no longer defines is skipped; its metrics then read 0.
        """
        modules = [
            m for name, m in list(sys.modules.items()) if name == "qsim" or name.startswith("qsim.")
        ]
        for name in self.names:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules.get(f"qsim.{module_name}"), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one op; traced calls inside it become its spans."""
        span = Span(ROOT_SPAN, op_id, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._op = None
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            span = Span(name, op, stack[-1])
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                self.observations.append((op, name, observe(args, result)))
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover (seconds).

    One thread runs the ops, so children never overlap and the time they
    cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]
