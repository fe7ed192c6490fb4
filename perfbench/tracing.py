"""In-memory spans placed by the benchmark around calls into each layer.

Nothing in ``src/`` is edited to trace it.  The benchmark shadows public
callables from the outside -- an instance attribute in front of a method,
or a module global in front of a function as another module bound it --
for the duration of one traced pass, and restores them afterwards.  The
spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the part of it covered by its
child spans.  Over one pass the self times of every span under the pass
root, plus the root's own self time (the ``residual``), add up to the
root's wall; :func:`reconcile` checks exactly that.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    thread: str


class _Open:
    """Context manager for one span; records it when the block exits."""

    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else tracer.adopt
        self.id = next(tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(
            Span(self.id, self.name, self.parent, self.start, end,
                 threading.current_thread().name)
        )


class Tracer:
    """Collects spans from every thread of the process.

    Attributes:
        spans: Finished spans, in completion order.
        adopt: Parent id for a span opened on a thread that has no open
            span of its own -- how the server-side spans of a request join
            the client's span for it.  A closed-loop client has one request
            in flight, so a single slot is enough.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.adopt: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` inside a span named ``name``."""

        def traced(*args, **kwargs):
            with _Open(self, name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


def shadow(stack: contextlib.ExitStack, owner, attr: str, replacement) -> None:
    """Put ``replacement`` at ``owner.attr`` until ``stack`` closes.

    ``owner`` is an instance (the replacement shadows the class attribute
    and is deleted again) or a module (the global is put back).
    """
    had = attr in vars(owner)
    old = vars(owner).get(attr)
    setattr(owner, attr, replacement)

    def restore() -> None:
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)

    stack.callback(restore)


def trace_calls(stack: contextlib.ExitStack, tracer: Tracer, owner, attr: str, name: str) -> None:
    """Shadow ``owner.attr`` with a traced wrapper named ``name``."""
    shadow(stack, owner, attr, tracer.wrap(getattr(owner, attr), name))


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Breakdown(NamedTuple):
    """One traced pass split by layer.

    ``self_s`` maps span name to the summed self time of its spans;
    ``calls`` to how many spans of that name ran; ``residual_s`` is the
    root's own self time; ``wall_s`` the root's duration.
    """

    wall_s: float
    residual_s: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    durations: Dict[str, List[float]]


def breakdown(spans: List[Span], root: int) -> Breakdown:
    """Self times of every span under ``root`` (inclusive)."""
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s.id] = s
        if s.parent is not None:
            children[s.parent].append(s)
    if root not in by_id:
        raise ValueError(f"root span {root} was never closed")
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    residual = 0.0
    todo = [by_id[root]]
    while todo:
        s = todo.pop()
        kids = children.get(s.id, [])
        own = (s.end - s.start) - _covered([(k.start, k.end) for k in kids], s.start, s.end)
        if s.id == root:
            residual = own
        else:
            self_s[s.name] += own
            calls[s.name] += 1
            durations[s.name].append(s.end - s.start)
        todo.extend(kids)
    wall = by_id[root].end - by_id[root].start
    return Breakdown(wall, residual, dict(self_s), dict(calls), dict(durations))


def reconcile(b: Breakdown, tolerance: float = 1e-6) -> Optional[str]:
    """``None`` when the self times plus the residual add up to the wall.

    They add up exactly when the spans nest; overlapping siblings (two
    threads inside one parent at once) or a child outliving its parent
    would count some time twice, and the sum would exceed the wall.
    """
    total = math.fsum(b.self_s.values()) + b.residual_s
    if any(v < -tolerance for v in b.self_s.values()) or b.residual_s < -tolerance:
        return f"negative self time in {b.self_s} residual {b.residual_s}"
    if abs(total - b.wall_s) > tolerance * max(1.0, len(b.self_s)):
        return f"self times + residual = {total:.9f} s but the traced wall is {b.wall_s:.9f} s"
    return None
