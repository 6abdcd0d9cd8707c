"""The asyncio driver for the sans-IO negotiation core and TN stack.

The protocol logic lives in
:class:`~repro.negotiation.core.NegotiationCore`, which yields
:class:`~repro.negotiation.core.AgentOp` effects and never blocks, and
the TN request path (client, fault injector, shard router, service) is
written once as generators of :mod:`repro.services.effects`.  This
module drives both from an asyncio event loop:

- :func:`anegotiate` — the asyncio driver of the negotiation core
  (:func:`repro.negotiation.engine.negotiate` is the sync one):
  fulfils each effect inline and cooperatively yields to the loop
  between protocol turns, so thousands of negotiations interleave on
  one thread.
- :func:`arun` — the asyncio driver of a request generator: awaits
  ``transport.acall`` for each :class:`~repro.services.effects.Call`
  and :func:`anegotiate` for each
  :class:`~repro.services.effects.Negotiate`.
- :class:`AioSimTransport` — a :class:`SimTransport` whose ``acall``
  awaits coroutine endpoints; constructed ``single_threaded`` so the
  charge-counter lock is a no-op (the event loop serializes charges).
- :class:`AioTNClient` / :class:`AioTNWebService` — subclasses of the
  TN client and service that add only an ``async`` driver method over
  the inherited request generator.

Concurrency model: each task runs inside its own
``transport.clock_branch()`` (contextvars make the branch task-local),
so concurrent negotiations each charge latency to a private timeline
exactly like thread-pool workers do — but unlike threads, sessions held
open across ``await`` points cost no stack or lock, which is where the
order-of-magnitude concurrent-session capacity win measured by
``benchmarks/test_bench_async.py`` comes from.

Tasks that share a requester agent never mutate it: when a session's
strategy differs from the agent's, the service negotiates with a
per-call clone carrying the session's strategy (both drivers do).
"""

from __future__ import annotations

import asyncio
from datetime import datetime
from typing import Any, Generator, Optional

from repro.errors import TransportError
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.core import (
    AgentOp,
    NegotiationCore,
    perform_agent_op,
    record_outcome_obs,
)
from repro.negotiation.outcomes import NegotiationResult
from repro.negotiation.strategies import Strategy
from repro.obs import enabled as obs_enabled, span as obs_span
from repro.services.clock import SimClock
from repro.services.effects import Call
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import LatencyModel, SimTransport

__all__ = [
    "adrive",
    "anegotiate",
    "arun",
    "AioSimTransport",
    "AioTNClient",
    "AioTNWebService",
]

#: Cooperatively yield to the event loop every N fulfilled effects: a
#: long policy phase must not starve sibling negotiations, but yielding
#: on *every* effect would pay a scheduler hop per policy lookup.
_YIELD_EVERY = 8


async def adrive(
    gen: Generator[AgentOp, Any, NegotiationResult],
    agents: dict,
    yield_every: int = _YIELD_EVERY,
) -> NegotiationResult:
    """Async twin of :func:`repro.negotiation.core.drive`.

    Fulfils effects inline (agent calls are pure CPU) and awaits
    ``asyncio.sleep(0)`` every ``yield_every`` effects so concurrent
    negotiations interleave.  Exceptions raised by an effect are thrown
    into the generator exactly like the sync driver does, so span
    context managers inside the core unwind identically.
    """
    reply: Any = None
    exc: Optional[BaseException] = None
    fulfilled = 0
    while True:
        try:
            op = gen.throw(exc) if exc is not None else gen.send(reply)
        except StopIteration as stop:
            return stop.value
        exc = None
        try:
            reply = perform_agent_op(agents, op)
        except Exception as caught:
            reply = None
            exc = caught
        fulfilled += 1
        if fulfilled % yield_every == 0:
            await asyncio.sleep(0)


async def anegotiate(
    requester: TrustXAgent,
    controller: TrustXAgent,
    resource: str,
    at: Optional[datetime] = None,
    **core_options,
) -> NegotiationResult:
    """Run one negotiation on the event loop.

    Same core, same obs wrapper, same outcome recording as
    :meth:`NegotiationEngine.run` — results are bit-identical to the
    sync driver's on the same inputs.
    """
    core = NegotiationCore(
        requester=requester.name,
        controller=controller.name,
        **core_options,
    )
    agents = {requester.name: requester, controller.name: controller}
    if not obs_enabled():
        return await adrive(core.run(resource, at), agents)
    with obs_span(
        "tn.negotiation",
        resource=resource,
        requester=requester.name,
        controller=controller.name,
    ) as root:
        result = await adrive(core.run(resource, at), agents)
        root.set(
            success=result.success,
            policy_messages=result.policy_messages,
            exchange_messages=result.exchange_messages,
        )
    record_outcome_obs(resource, result)
    return result


async def arun(gen: Generator[Any, Any, Any], transport: Any) -> Any:
    """Run a request generator on the event loop (the sync driver is
    :func:`repro.services.effects.run`).

    Awaits exactly one ``transport.acall`` per ``Call`` effect and one
    :func:`anegotiate` per ``Negotiate`` effect, and throws an
    effect's exception back into the generator.
    """
    reply: Any = None
    exc: Optional[BaseException] = None
    while True:
        try:
            effect = gen.throw(exc) if exc is not None else gen.send(reply)
        except StopIteration as stop:
            return stop.value
        reply, exc = None, None
        try:
            if type(effect) is Call:
                reply = await transport.acall(
                    effect.url, effect.operation, effect.payload
                )
            else:
                reply = await anegotiate(
                    effect.requester, effect.controller, effect.resource,
                    at=effect.at,
                )
        except Exception as error:
            exc = error


class AioSimTransport(SimTransport):
    """A latency-modelled transport whose endpoints may be coroutines.

    Always ``single_threaded``: every charge happens on the event-loop
    thread, so the charge-counter lock is elided (see
    :class:`~repro.perf.caches.NullLock`).  Sync endpoints remain
    callable through the inherited :meth:`call`; async endpoints must
    be reached through :meth:`acall` (``call`` fails loudly on them).
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 model: Optional[LatencyModel] = None) -> None:
        super().__init__(clock=clock, model=model, single_threaded=True)

    async def acall(self, url: str, operation: str, payload: dict) -> dict:
        """One SOAP round trip, awaiting coroutine handlers.

        Yields to the event loop before dispatching, so concurrent
        client tasks interleave their protocol turns — which is exactly
        what holds many sessions open at once.
        """
        handler = self._endpoints.get(url)
        if handler is None:
            raise TransportError(f"no endpoint bound at {url!r}")
        await asyncio.sleep(0)
        self.clock.advance(self.model.message_cost())
        with self._calls_lock:
            self._calls += 1
            self._charges.messages += 1
        result = handler(operation, payload)
        if hasattr(result, "__await__"):
            result = await result
        return result


class AioTNClient(TNClient):
    """The asyncio driver of :class:`~repro.services.tn_client.TNClient`.

    Walks the same three operations in the same order with the same
    idempotency tokens (the requestId counter is shared with the sync
    client, so mixed-driver processes never collide); ``transport`` is
    an :class:`AioSimTransport` or an ``acall``-capable decorator.
    """

    async def negotiate(
        self,
        resource: str,
        strategy: Optional[Strategy] = None,
        at: Optional[datetime] = None,
    ) -> NegotiationResult:
        """Run StartNegotiation → PolicyExchange → CredentialExchange."""
        return await arun(self._calls(resource, strategy, at), self.transport)


class AioTNWebService(TNWebService):
    """A TN Web service dispatched from the event loop.

    Binds an *async* endpoint handler over the inherited dispatch
    generator — guards, admission, idempotent replay, billing,
    checkpoints, session TTLs, in-flight accounting and the hardened
    internal-error wrapping are the sync service's code; only the
    engine run is awaited.
    """

    def _endpoint_handler(self):
        return self.ahandle

    async def ahandle(self, operation: str, payload: dict) -> dict:
        return await arun(self._serve(operation, payload), self.transport)
