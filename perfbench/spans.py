"""Outside-in tracing: spans recorded around calls into each layer.

The traced run patches a handful of entry points (see ``child.py``)
with wrappers from this module; the program itself carries no tracing
code.  A span is ``[name, start, end, parent, rid, label]``:

* ``start``/``end`` come from ``time.perf_counter`` (CLOCK_MONOTONIC on
  Linux), so spans of different processes share one time base;
* ``parent`` is the index of the enclosing span of the same process
  (synchronous calls), or None;
* ``rid`` is a request id that joins spans across tasks and processes
  (asynchronous front-end calls, shard calls);
* ``label`` is a scheme or op name for per-kind breakdowns.

Spans stay in memory until the run ends.  A span's *self time* is its
duration minus its children's.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

Span = list  # [name, start, end, parent, rid, label]
NAME, START, END, PARENT, RID, LABEL = range(6)


class Tracer:
    """Installs span-recording wrappers and keeps the spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, owner, attr: str, name: str,
             rid: Optional[Callable] = None,
             label: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``rid(args, kwargs)`` and ``label(args, kwargs, result)`` name
        the span; both see the call's positional arguments including
        ``self`` for methods.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None,
                    rid(args, kwargs) if rid else None, ""]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span[END] = time.perf_counter()
                if label is not None:
                    span[LABEL] = label(args, kwargs, result)

        setattr(owner, attr, traced)

    def wrap_async(self, owner, attr: str, name: str,
                   rid: Callable, label: Callable) -> None:
        """Like :meth:`wrap` for a coroutine method.  Concurrent tasks
        share no call stack, so these spans carry no parent; they are
        joined to their children by ``rid``."""
        original = getattr(owner, attr)
        spans = self.spans

        async def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, None,
                    rid(args, kwargs), label(args, kwargs)]
            spans.append(span)
            try:
                return await original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()

        setattr(owner, attr, traced)


# -- analysis --------------------------------------------------------------

def duration(span: Span) -> float:
    return span[END] - span[START]


def self_time(span: Span, children: Iterable[Span],
              length: Callable[[Span], float] = duration) -> float:
    """``length`` of ``span`` minus that of its children.  Children of
    one span never overlap: synchronous calls nest, and a cross-process
    join gives each request one child."""
    return length(span) - sum(length(c) for c in children)


def self_times(spans: Sequence[Span],
               length: Callable[[Span], float] = duration) -> List[float]:
    """Self time of every span of one process, in span order."""
    kids: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            kids[span[PARENT]].append(span)
    return [self_time(span, kids[i], length) for i, span in enumerate(spans)]


def join_by_rid(parents: Sequence[Span], children: Sequence[Span]) -> Dict[int, Span]:
    """Cross-task/cross-process join: for each parent index, the child
    span with the same ``rid`` (rids compare as tuples, since spans
    written by another process come back with lists)."""
    by_rid = {tuple(c[RID]): c for c in children if c[RID] is not None}
    joined = {}
    for i, parent in enumerate(parents):
        if parent[RID] is None:
            continue
        child = by_rid.get(tuple(parent[RID]))
        if child is not None:
            joined[i] = child
    return joined


def totals(spans: Sequence[Span], values: Sequence[float],
           by_label: bool = False) -> Dict[str, Dict[str, float]]:
    """Per span name (or ``name.label``): call count and the sum of
    ``values`` (one per span, e.g. self or inclusive seconds)."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0})
    for span, value in zip(spans, values):
        key = f"{span[NAME]}.{span[LABEL]}" if by_label and span[LABEL] else span[NAME]
        out[key]["calls"] += 1
        out[key]["s"] += value
    return dict(out)


def p50(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample."""
    return statistics.median(values) if values else 0.0
