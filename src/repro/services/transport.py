"""Latency-modelled in-process transport.

The paper's experiments (Section 6.3.1) measured wall-clock times of
SOAP calls through Tomcat/Axis against Oracle/MySQL on a Pentium 4.
The reproduction replaces that testbed with a deterministic latency
model: every simulated operation advances the
:class:`~repro.services.clock.SimClock` by a calibrated cost.  The
default constants are tuned so that the *join without TN* flow lands
near the paper's ≈3 s (see ``benchmarks/test_bench_fig9_join.py`` and
EXPERIMENTS.md); all comparisons are about the *shape* of the result,
not absolute numbers.

Concurrent execution — the simulated-time batch of
``execute_formation(parallel=True)``, asyncio tasks under
:mod:`repro.services.aio`, or the worker threads of ``repro aio``'s
thread-pool baseline — runs independent flows that must each charge
latency to their *own* timeline: two concurrent joins each take ~3
simulated seconds, not 6.  :meth:`SimTransport.clock_branch` installs
a **context-local** clock override via :mod:`contextvars` — every
charge made inside the block lands on the branch clock, and leaving
the block restores the previous clock.  New threads and newly-created
asyncio tasks each get their own context (a task snapshots its
creator's context at creation), so branches entered inside a worker
thread or a task never leak into siblings.  The branches are then
merged by the caller as a critical path (``max`` of the branch
durations).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import TransportError
from repro.perf.caches import NULL_LOCK
from repro.services.clock import SimClock

__all__ = [
    "ChargeStats", "DelegatingTransport", "LatencyModel", "SimTransport",
]

#: Context-local clock branches, keyed by ``id(transport)``.  The value
#: is an immutable mapping copied on write: mutating a dict stored in a
#: ContextVar would leak writes across contexts sharing the reference,
#: so :meth:`SimTransport.clock_branch` always sets a *new* dict.  A
#: module-level var (rather than one per transport) keeps the number of
#: ContextVars bounded for the life of the process.
_CLOCK_BRANCHES: ContextVar[dict] = ContextVar("sim_clock_branches", default={})


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation simulated costs in milliseconds.

    Calibrated to a 2010-era service stack (Pentium 4 @ 2 GHz, Tomcat,
    Axis SOAP, networked DB), per the paper's testbed description.
    """

    network_rtt_ms: float = 25.0      # one request/response round trip
    soap_marshal_ms: float = 12.0     # marshal + unmarshal per message
    service_dispatch_ms: float = 23.0 # container + servlet overhead
    db_connect_ms: float = 100.0      # opening the Oracle connection
    db_read_ms: float = 15.0
    db_write_ms: float = 25.0
    crypto_sign_ms: float = 35.0      # RSA-1024 sign on a P4
    crypto_verify_ms: float = 12.0
    ui_interaction_ms: float = 480.0  # operator clicking through the GUI
    mail_delivery_ms: float = 290.0   # invitation mailbox hop

    def message_cost(self) -> float:
        """Cost of one protocol message through the service stack."""
        return (
            self.network_rtt_ms
            + self.soap_marshal_ms
            + self.service_dispatch_ms
        )


@dataclass
class ChargeStats:
    """Accumulated counts of every charged cost unit.

    Thread-pool callers (``repro aio``'s thread baseline, the thread
    baseline of ``benchmarks/test_bench_async.py``) charge costs from
    several threads at once, so the transport accumulates these under
    its lock and hands out snapshot copies — callers never see a
    half-updated record.
    """

    messages: int = 0
    db_reads: int = 0
    db_writes: int = 0
    db_connects: int = 0
    crypto_signs: int = 0
    crypto_verifies: int = 0
    ui_interactions: int = 0
    mail_deliveries: int = 0

    def copy(self) -> "ChargeStats":
        return ChargeStats(**self.__dict__)


class SimTransport:
    """Registers service endpoints and charges latencies on calls.

    Keeps the historical ``SimTransport()`` / ``SimTransport(model=...)``
    construction signature.  ``clock`` resolves to the context's branch
    clock inside a :meth:`clock_branch` block and to the shared base
    clock everywhere else, so transport decorators that delegate
    ``.clock`` to it (:class:`DelegatingTransport` subclasses) pick up
    the branch transparently.

    ``single_threaded=True`` elides the charge-counter lock (swapped
    for a no-op): correct only when every charge happens on one thread,
    which is exactly the asyncio driver's situation — the event loop
    serializes all charges, so the per-charge acquire/release is pure
    overhead.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 model: Optional[LatencyModel] = None,
                 single_threaded: bool = False) -> None:
        self._base_clock = clock if clock is not None else SimClock()
        self.model = model if model is not None else LatencyModel()
        self._endpoints: dict[str, Callable[[str, dict], dict]] = {}
        self._calls = 0
        self.single_threaded = bool(single_threaded)
        self._calls_lock = (
            NULL_LOCK if self.single_threaded else threading.Lock()
        )
        self._charges = ChargeStats()

    # -- clock branching ------------------------------------------------------------

    @property
    def clock(self) -> SimClock:
        branch = _CLOCK_BRANCHES.get().get(id(self))
        return branch if branch is not None else self._base_clock

    @property
    def base_clock(self) -> SimClock:
        """The shared main-timeline clock, ignoring any branch."""
        return self._base_clock

    @contextmanager
    def clock_branch(
        self, source: Optional[SimClock] = None
    ) -> Iterator[SimClock]:
        """Route this context's charges to a private clock branch.

        The branch starts at the base clock's current elapsed time (a
        worker's timeline begins when the batch is dispatched) and is
        yielded so the scheduler can read its delta afterwards.  The
        base clock is never advanced from inside a branch; merging the
        deltas (critical path vs. serial sum) is the caller's job.
        Passing ``source`` branches from that clock instead — e.g. a
        hedged request forks *sub*-branches off the task's current
        branch so both racers start from the same mid-flight instant.

        The override is installed in the current :mod:`contextvars`
        context, so it is naturally thread-local *and* task-local:
        enter the branch inside the worker thread or asyncio task that
        should run on it.
        """
        branch = (source if source is not None else self._base_clock).branch()
        branches = dict(_CLOCK_BRANCHES.get())
        branches[id(self)] = branch
        token = _CLOCK_BRANCHES.set(branches)
        try:
            yield branch
        finally:
            _CLOCK_BRANCHES.reset(token)

    # -- endpoint registry -------------------------------------------------------

    def bind(self, url: str, handler: Callable[[str, dict], dict]) -> None:
        """Expose ``handler(operation, payload) -> payload`` at ``url``."""
        if url in self._endpoints:
            raise TransportError(f"endpoint {url!r} is already bound")
        self._endpoints[url] = handler

    def unbind(self, url: str) -> None:
        self._endpoints.pop(url, None)

    def is_bound(self, url: str) -> bool:
        return url in self._endpoints

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    # -- invocation ----------------------------------------------------------------

    @property
    def calls(self) -> int:
        return self._calls

    @property
    def charges(self) -> ChargeStats:
        """Snapshot of the accumulated charge counters (thread-safe)."""
        with self._calls_lock:
            return self._charges.copy()

    @calls.setter
    def calls(self, value: int) -> None:
        with self._calls_lock:
            self._calls = value

    def call(self, url: str, operation: str, payload: dict) -> dict:
        """One SOAP round trip: RTT + marshalling + dispatch, then the
        handler (which charges its own DB/crypto costs)."""
        handler = self._endpoints.get(url)
        if handler is None:
            raise TransportError(f"no endpoint bound at {url!r}")
        self.clock.advance(self.model.message_cost())
        with self._calls_lock:
            self._calls += 1
            self._charges.messages += 1
        result = handler(operation, payload)
        if hasattr(result, "__await__"):
            # An async endpoint reached through the sync path would
            # silently return an unawaited coroutine; fail loudly.
            result.close()
            raise TransportError(
                f"endpoint {url!r} is async; call it through "
                "AioSimTransport.acall"
            )
        return result

    # -- cost helpers for service implementations ----------------------------------
    #
    # Clock advances go to the context's branch clock (each worker has
    # its own timeline), but the charge *counters* are shared across
    # threads, so they accumulate under the lock.

    def charge_messages(self, count: int) -> None:
        """Charge ``count`` additional protocol messages (negotiation
        rounds ride on the session opened by the initial call)."""
        if count < 0:
            raise TransportError(f"negative message count {count}")
        self.clock.advance(count * self.model.message_cost())
        with self._calls_lock:
            self._charges.messages += count

    def charge_db(self, reads: int = 0, writes: int = 0, connect: bool = False) -> None:
        cost = reads * self.model.db_read_ms + writes * self.model.db_write_ms
        if connect:
            cost += self.model.db_connect_ms
        self.clock.advance(cost)
        with self._calls_lock:
            self._charges.db_reads += reads
            self._charges.db_writes += writes
            if connect:
                self._charges.db_connects += 1

    def charge_crypto(self, signs: int = 0, verifies: int = 0) -> None:
        self.clock.advance(
            signs * self.model.crypto_sign_ms
            + verifies * self.model.crypto_verify_ms
        )
        with self._calls_lock:
            self._charges.crypto_signs += signs
            self._charges.crypto_verifies += verifies

    def charge_ui(self, interactions: int = 1) -> None:
        self.clock.advance(interactions * self.model.ui_interaction_ms)
        with self._calls_lock:
            self._charges.ui_interactions += interactions

    def charge_mail(self, deliveries: int = 1) -> None:
        self.clock.advance(deliveries * self.model.mail_delivery_ms)
        with self._calls_lock:
            self._charges.mail_deliveries += deliveries


class DelegatingTransport:
    """Base for transport decorators over an ``inner`` transport.

    :class:`~repro.services.resilience.ResilientTransport` and
    :class:`~repro.faults.injector.FaultInjector` wrap a
    :class:`SimTransport` (or another decorator) and change only how a
    call is delivered; the clock, the endpoint registry and the cost
    helpers are the inner transport's, reached through the members
    defined here.  Subclasses set ``inner``.
    """

    inner: SimTransport

    @property
    def clock(self) -> SimClock:
        return self.inner.clock

    @property
    def base_clock(self) -> SimClock:
        return self.inner.base_clock

    def clock_branch(self, source: Optional[SimClock] = None):
        return self.inner.clock_branch(source)

    @property
    def model(self) -> LatencyModel:
        return self.inner.model

    @property
    def calls(self) -> int:
        return self.inner.calls

    @property
    def charges(self) -> ChargeStats:
        return self.inner.charges

    def bind(self, url: str, handler: Callable[[str, dict], dict]) -> None:
        self.inner.bind(url, handler)

    def unbind(self, url: str) -> None:
        self.inner.unbind(url)

    def is_bound(self, url: str) -> bool:
        return self.inner.is_bound(url)

    def endpoints(self) -> list[str]:
        return self.inner.endpoints()

    def charge_messages(self, count: int) -> None:
        self.inner.charge_messages(count)

    def charge_db(self, reads: int = 0, writes: int = 0,
                  connect: bool = False) -> None:
        self.inner.charge_db(reads=reads, writes=writes, connect=connect)

    def charge_crypto(self, signs: int = 0, verifies: int = 0) -> None:
        self.inner.charge_crypto(signs=signs, verifies=verifies)

    def charge_ui(self, interactions: int = 1) -> None:
        self.inner.charge_ui(interactions)

    def charge_mail(self, deliveries: int = 1) -> None:
        self.inner.charge_mail(deliveries)
