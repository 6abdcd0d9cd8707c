"""Span tracer and per-layer ledger for the traced benchmark run.

The tracer wraps public entry points of each layer from outside the
program: it replaces a function binding (in every ``repro`` module that
imported it) or a class attribute with a recorder, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it
is being traced.

Wrappers are installed once, before the stacks are built, because the
simulated transport binds endpoint handlers (bound methods) at
construction time.  Recording is then switched on and off per chunk
through :attr:`Tracer.active`, so one run can alternate traced and
untraced chunks and report the tracing overhead.

A span is ``[name, start, end, parent, session, active_s, weight]``:

- ``start``/``end`` are ``time.perf_counter`` readings;
- ``parent`` is the index of the enclosing span (``-1`` for a root);
- ``session`` numbers the root span the span belongs to;
- ``active_s`` is the time the call was actually running.  For a sync
  call that is ``end - start``.  For a coroutine it is the sum of the
  intervals in which its task was resumed inside it, so time spent
  suspended while sibling tasks run is not charged to it;
- ``weight`` counts the work the call did (items in a batch verify).

Self time of a span is its active time minus the active time of its
direct children.  Because the process is single-threaded, a child only
runs inside one of its parent's active intervals, so self times of all
spans under a root add up to the root's active time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = ["TracePoint", "Tracer", "Ledger", "default_points"]

_clock = time.perf_counter


@dataclass(frozen=True)
class TracePoint:
    """One entry point to wrap: ``owner.attr`` recorded as ``layer``."""

    layer: str
    owner: object  # a class, or a module for a function binding
    attr: str
    weight: Optional[Callable[[tuple], int]] = None


def _batch_size(args: tuple) -> int:
    items = args[0] if args else ()
    return len(items) if hasattr(items, "__len__") else 1


def default_points() -> list[TracePoint]:
    """The layer boundaries a TN session or a VO formation crosses.

    Imported lazily: ``repro`` is only importable once the benchmark
    has put the checkout's ``src`` directory on ``sys.path``.
    """
    from repro.cluster.aio import AioShardedTNService
    from repro.cluster.sharded import ShardedTNService
    from repro.credentials.validation import CredentialValidator
    from repro.crypto import rsa
    from repro.hardening.admission import AdmissionController
    from repro.hardening.guard import ProtocolGuard
    from repro.negotiation.cache import CachingNegotiator
    from repro.negotiation.engine import NegotiationEngine
    from repro.policy.compliance import ComplianceChecker
    from repro.services import aio
    from repro.services.aio_resilience import AioResilientTransport
    from repro.services.resilience import ResilientTransport
    from repro.services.tn_client import TNClient
    from repro.services.tn_service import TNWebService
    from repro.services.transport import SimTransport
    from repro.services.vo_toolkit import InitiatorEdition
    from repro.storage.document_store import XMLDocumentStore
    from repro.storage.session_store import WALSessionStore
    from repro.trust.bus import TrustBus
    from repro.vo.organization import VirtualOrganization
    from repro.xmlutil import canonical

    return [
        TracePoint("client", TNClient, "negotiate"),
        TracePoint("client", aio.AioTNClient, "negotiate"),
        TracePoint("resilience", ResilientTransport, "call"),
        TracePoint("resilience", AioResilientTransport, "acall"),
        TracePoint("transport", SimTransport, "call"),
        TracePoint("transport", aio.AioSimTransport, "acall"),
        TracePoint("cluster", ShardedTNService, "handle"),
        TracePoint("cluster", AioShardedTNService, "ahandle"),
        TracePoint("tn_service", TNWebService, "handle"),
        TracePoint("tn_service", aio.AioTNWebService, "ahandle"),
        TracePoint("hardening.guard", ProtocolGuard, "validate"),
        TracePoint("hardening.guard", ProtocolGuard, "check_transition"),
        TracePoint("hardening.admission", AdmissionController, "admit"),
        TracePoint("negotiation.engine", NegotiationEngine, "run"),
        TracePoint("negotiation.engine", aio, "anegotiate"),
        TracePoint("seqcache.replay", CachingNegotiator, "_replay"),
        TracePoint("policy.compliance", ComplianceChecker, "candidates"),
        TracePoint("policy.compliance", ComplianceChecker, "satisfies_term"),
        TracePoint("policy.compliance", ComplianceChecker, "satisfy"),
        TracePoint(
            "policy.compliance", ComplianceChecker, "first_satisfiable"
        ),
        TracePoint("credentials.validate", CredentialValidator, "validate"),
        TracePoint("crypto.sign", rsa, "sign"),
        TracePoint("crypto.verify", rsa, "verify"),
        TracePoint("crypto.verify", rsa, "verify_batch", _batch_size),
        TracePoint("storage.wal_append", WALSessionStore, "append"),
        TracePoint("storage.doc_put", XMLDocumentStore, "put"),
        TracePoint("xmlutil.canonicalize", canonical, "canonicalize"),
        TracePoint("trust.retract", TrustBus, "retract"),
        TracePoint("vo.formation", InitiatorEdition, "execute_formation"),
        TracePoint("vo.join", InitiatorEdition, "execute_join"),
        TracePoint("vo.admit", VirtualOrganization, "admit_member"),
    ]


class _TimedAwait:
    """Drives a coroutine step by step, charging only resumed time."""

    __slots__ = ("coro", "record", "index", "parent_var")

    def __init__(self, coro, record: list, index: int, parent_var) -> None:
        self.coro = coro
        self.record = record
        self.index = index
        self.parent_var = parent_var

    def __await__(self):
        inner = self.coro.__await__()
        record = self.record
        record[1] = _clock()
        value = None
        error: Optional[BaseException] = None
        while True:
            token = self.parent_var.set(self.index)
            began = _clock()
            try:
                if error is not None:
                    step = inner.throw(error)
                else:
                    step = inner.send(value)
            except BaseException as stop:
                ended = _clock()
                record[5] += ended - began
                record[2] = ended
                self.parent_var.reset(token)
                if isinstance(stop, StopIteration):
                    return stop.value
                raise
            record[5] += _clock() - began
            self.parent_var.reset(token)
            try:
                value = yield step
                error = None
            except BaseException as thrown:  # re-raised inside `inner`
                value = None
                error = thrown


class Tracer:
    """Installs span recorders on :class:`TracePoint` targets."""

    def __init__(self, points: list[TracePoint]) -> None:
        self.points = points
        #: Recording switch; wrappers pass straight through when off.
        self.active = False
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._parent: ContextVar[int] = ContextVar(
            "perfbench_parent", default=-1
        )
        self._session: ContextVar[int] = ContextVar(
            "perfbench_session", default=0
        )
        self._sessions = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for point in self.points:
            layer = self._layer_id(point.layer)
            if inspect.ismodule(point.owner):
                original = getattr(point.owner, point.attr)
                wrapper = self._wrap(original, layer, point.weight)
                # Every module that imported the function by name holds
                # its own binding; replace each one.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            else:
                original = point.owner.__dict__[point.attr]
                wrapper = self._wrap(original, layer, point.weight)
                self._undo.append((point.owner, point.attr, original))
                setattr(point.owner, point.attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    # -- recording ----------------------------------------------------------------

    def _open(self, layer: int, weight: int) -> tuple[int, list, object]:
        parent = self._parent.get()
        session_token = None
        if parent < 0:
            self._sessions += 1
            session_token = self._session.set(self._sessions)
        index = len(self.spans)
        record = [layer, 0.0, 0.0, parent, self._session.get(), 0.0, weight]
        self.spans.append(record)
        return index, record, session_token

    def _wrap(self, original, layer: int, weight_of):
        tracer = self
        parent_var = self._parent
        session_var = self._session

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                if not tracer.active:
                    return await original(*args, **kwargs)
                weight = weight_of(args) if weight_of else 1
                index, record, session_token = tracer._open(layer, weight)
                try:
                    return await _TimedAwait(
                        original(*args, **kwargs), record, index, parent_var
                    )
                finally:
                    if session_token is not None:
                        session_var.reset(session_token)
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            weight = weight_of(args) if weight_of else 1
            index, record, session_token = tracer._open(layer, weight)
            token = parent_var.set(index)
            began = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                ended = _clock()
                parent_var.reset(token)
                if session_token is not None:
                    session_var.reset(session_token)
                record[1] = began
                record[2] = ended
                record[5] = ended - began
        return wrapper

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark itself (a formation root)."""
        if not self.active:
            yield
            return
        index, record, session_token = self._open(self._layer_id(layer), 1)
        token = self._parent.set(index)
        began = _clock()
        try:
            yield
        finally:
            ended = _clock()
            self._parent.reset(token)
            if session_token is not None:
                self._session.reset(session_token)
            record[1] = began
            record[2] = ended
            record[5] = ended - began

    # -- output -------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": self.layers}) + "\n")
            for index, (layer, start, end, parent, session, active,
                        weight) in enumerate(self.spans):
                handle.write(json.dumps([
                    index, self.layers[layer], start, end, parent, session,
                    active, weight,
                ]) + "\n")

    def ledger(self, within=None) -> "Ledger":
        return Ledger.from_spans(self.layers, self.spans, within)


@dataclass
class Ledger:
    """Per-layer totals computed from a span list."""

    #: layer -> summed self time (s)
    self_s: dict[str, float]
    #: layer -> summed active time of its spans whose parent is of
    #: another layer (s): the inclusive time, counting a call nested
    #: directly in one of the same layer once
    inclusive_s: dict[str, float]
    #: layer -> summed span weights (calls, or items for batches)
    calls: dict[str, int]
    #: layer -> (root count, summed root active time, summed root self)
    roots: dict[str, tuple[int, float, float]]

    @classmethod
    def from_spans(cls, layers: list[str], spans: list[list],
                   within=None) -> "Ledger":
        """Totals over every span tree, or, given ``within`` as a list
        of ``(start, end)`` intervals, over the trees whose root span
        started inside one of them."""
        if within is not None:
            kept = {
                session for _, start, _, parent, session, _, _ in spans
                if parent < 0 and any(a <= start < b for a, b in within)
            }
            spans = [
                span if span[4] in kept else None for span in spans
            ]
        child_active = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_active[span[3]] += span[5]
        self_s: dict[str, float] = defaultdict(float)
        inclusive_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        roots: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(spans):
            if span is None:
                continue
            layer, _, _, parent, _, active, weight = span
            name = layers[layer]
            own = active - child_active[index]
            self_s[name] += own
            calls[name] += weight
            if parent < 0 or spans[parent][0] != layer:
                inclusive_s[name] += active
            if parent < 0:
                entry = roots[name]
                entry[0] += 1
                entry[1] += active
                entry[2] += own
        return cls(
            dict(self_s), dict(inclusive_s), dict(calls),
            {name: tuple(entry) for name, entry in roots.items()},
        )

    def coverage(self, root: str) -> float:
        """Share of ``root`` spans' time that the self times of the
        layers below them account for."""
        count, active, own = self.roots.get(root, (0, 0.0, 0.0))
        return (active - own) / active if active > 0 else 0.0
