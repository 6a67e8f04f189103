"""Spans recorded around the benchmark's calls into lyprobe's layers.

The benchmark calls every public layer function through ``call(name, fn,
*args)``.  Untraced runs use :func:`direct`, which only forwards the call;
traced runs use a :class:`Tracer`, which records one span per call (name,
start, end, parent span, op id) and counts the numpy ``RuntimeWarning``s the
call raised.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from dataclasses import dataclass


def direct(_name, fn, *args, **kwargs):
    """Untraced call: no span, no warning bookkeeping beyond the op's own."""
    return fn(*args, **kwargs)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    runtime_warnings: int
    failed: bool


class Tracer:
    """Span recorder for one traced run; ``open_op`` starts each op's root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = -1

    def open_op(self, name: str, op_id: int) -> int:
        self._op_id = op_id
        self.spans.append(Span(name, time.perf_counter(), 0.0, None, op_id, 0, False))
        self._stack = [len(self.spans) - 1]
        return self._stack[0]

    def close_op(self, index: int, failed: bool) -> None:
        self.spans[index].end = time.perf_counter()
        self.spans[index].failed = failed
        self._stack = []

    def __call__(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self._op_id, 0, False)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                span.runtime_warnings = sum(
                    issubclass(w.category, RuntimeWarning) for w in caught
                )
                self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: self time, calls, failed calls and RuntimeWarnings.

        A span's self time is its duration minus the time its child spans
        cover.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "failed": 0, "runtime_warnings": 0}
        )
        for index, span in enumerate(self.spans):
            entry = out[span.name]
            entry["self_s"] += span.end - span.start - child_time[index]
            entry["calls"] += 1
            entry["failed"] += int(span.failed)
            entry["runtime_warnings"] += span.runtime_warnings
        return dict(out)
