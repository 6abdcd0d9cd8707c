"""Hierarchical spans over wall *and* simulated time.

A :class:`Span` is one timed operation — a negotiation phase, a TN
Web-service call, a VO lifecycle step.  Spans nest: each carries a
``trace_id`` shared by the whole operation tree, its own ``span_id``,
and the ``parent_id`` linking it into the hierarchy.  Nesting is
tracked per :mod:`contextvars` context, which gives both isolation and
inheritance for free: threads each see their own (initially empty)
stack, while an asyncio task snapshots its creator's context at
creation — so tasks spawned inside a span automatically nest under it,
with no explicit hand-off.  Spans are pushed and popped in balanced
pairs, so the per-role joins of ``execute_formation(parallel=True)``
nest under the formation span like any other child.

Dual timestamps:

- **wall** — ``time.perf_counter()`` seconds, for real profiling;
- **virtual** — milliseconds read from a
  :class:`~repro.services.clock.SimClock` when one is supplied (or
  inherited from the parent span), so a trace lines up with the
  latency-modelled timeline of Fig. 9.  Inside a
  ``SimTransport.clock_branch()`` block the supplied clock *is* the
  branch, so spans opened there carry branch-local virtual time.

Identifiers are deterministic counters (``trace-N`` / ``N``): the
simulation is reproducible and its traces should be too.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Optional

__all__ = ["Span", "NullSpan", "NULL_SPAN", "Tracer"]

#: Context-local open spans of every tracer, innermost first: a linked
#: list of immutable ``(span, outer)`` pairs ending in ``None``.
#: Entering a span conses one pair onto it and a balanced exit restores
#: the outer list, so neither copies anything, and a set in one context
#: can never change a sibling context's view.  One module-level
#: ContextVar (instead of one per tracer) keeps the ContextVar
#: population bounded.
_OPEN_SPANS: ContextVar[Optional[tuple]] = ContextVar(
    "tracer_open_spans", default=None
)


class Span:
    """One timed, attributed operation in a trace."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "attrs", "status",
        "start_wall", "end_wall", "start_ms", "end_ms",
        "_tracer", "_clock",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        clock: Any,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self._clock = clock
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self.start_wall: float = 0.0
        self.end_wall: Optional[float] = None
        self.start_ms: Optional[float] = None
        self.end_ms: Optional[float] = None

    # -- context management ---------------------------------------------------------

    def __enter__(self) -> "Span":
        self.start_wall = time.perf_counter()
        if self._clock is not None:
            self.start_ms = self._clock.elapsed_ms
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.end_wall = time.perf_counter()
        if self._clock is not None:
            self.end_ms = self._clock.elapsed_ms
        self._tracer._pop(self)

    # -- accessors ------------------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach or update attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ms(self) -> Optional[float]:
        """Virtual (simulated) duration, when a clock was attached."""
        if self.start_ms is None or self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    @property
    def wall_duration_s(self) -> Optional[float]:
        if self.end_wall is None:
            return None
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "attrs": dict(self.attrs),
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "wall_s": self.wall_duration_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name} id={self.span_id} "
            f"parent={self.parent_id} trace={self.trace_id}>"
        )


class NullSpan:
    """Shared no-op stand-in returned while observability is disabled."""

    __slots__ = ()
    trace_id = ""
    span_id = -1
    parent_id = None
    name = ""
    status = "ok"
    start_ms = end_ms = None
    duration_ms = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Tracer:
    """Mints spans, tracks per-context nesting, retains finished spans."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- the context-local span stack -------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span of this tracer in *this* context."""
        node = _OPEN_SPANS.get()
        while node is not None:
            if node[0]._tracer is self:
                return node[0]
            node = node[1]
        return None

    def _push(self, span: Span) -> None:
        _OPEN_SPANS.set((span, _OPEN_SPANS.get()))

    def _pop(self, span: Span) -> None:
        node = _OPEN_SPANS.get()
        if node is not None and node[0] is span:
            _OPEN_SPANS.set(node[1])
        else:
            # unbalanced exit, or another tracer's span still open
            # inside this one: drop it wherever it is, keeping the
            # spans above it
            above = []
            while node is not None and node[0] is not span:
                above.append(node[0])
                node = node[1]
            if node is not None:
                node = node[1]
                for open_ in reversed(above):
                    node = (open_, node)
                _OPEN_SPANS.set(node)
        with self._lock:
            self._finished.append(span)

    # -- span creation ---------------------------------------------------------------

    def span(
        self,
        name: str,
        clock: Any = None,
        parent: Optional[Span] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        """Create (but not start) a span; use as a context manager.

        ``parent`` defaults to the thread's current span.  The trace id
        and — when ``clock`` is omitted — the virtual clock are
        inherited from the parent; a parentless span roots a new trace.
        """
        if parent is None:
            parent = self.current()
        root = parent is None or isinstance(parent, NullSpan)
        with self._lock:
            if root:
                trace_id = f"trace-{next(self._trace_ids)}"
            span_id = next(self._span_ids)
        if root:
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            if clock is None:
                clock = parent._clock
        return Span(
            self, trace_id, span_id, parent_id, name, clock,
            attrs if attrs is not None else {},
        )

    # -- introspection ----------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
