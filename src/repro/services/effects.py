"""One request path per layer, run by a sync or an asyncio driver.

The layers on the TN request path — the client's three calls
(:class:`~repro.services.tn_client.TNClient`), the fault injector
(:class:`~repro.faults.injector.FaultInjector`), the shard router
(:class:`~repro.cluster.sharded.ShardedTNService`) and the TN service's
phase dispatch (:class:`~repro.services.tn_service.TNWebService`) —
each write their logic once, as a generator that yields an effect and
receives its result:

- :class:`Call` — one round trip through the layer's transport;
- :class:`Negotiate` — one run of the negotiation engine.

:func:`run` performs ``Call`` with ``transport.call`` and ``Negotiate``
with :meth:`NegotiationEngine.run`; its asyncio counterpart
:func:`repro.services.aio.arun` awaits ``transport.acall`` and
:func:`~repro.services.aio.anegotiate` instead.  As in
:func:`repro.negotiation.core.drive`, an exception raised by an effect
is thrown back into the generator at its ``yield``, so a layer's
``try``/``except`` around a call works the same under both drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Generator, Optional

from repro.negotiation.agent import TrustXAgent
from repro.negotiation.engine import NegotiationEngine

__all__ = ["Call", "Negotiate", "run"]


@dataclass(frozen=True, slots=True)
class Call:
    """Effect: ``transport.call(url, operation, payload)``."""

    url: str
    operation: str
    payload: Any


@dataclass(frozen=True, slots=True)
class Negotiate:
    """Effect: negotiate ``resource`` between two in-process agents."""

    requester: TrustXAgent
    controller: TrustXAgent
    resource: str
    at: datetime


def run(gen: Generator[Any, Any, Any], transport: Optional[Any]) -> Any:
    """Run a request generator to completion, performing its effects
    inline (``transport`` may be ``None`` for a generator that yields
    no :class:`Call`)."""
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
                reply = transport.call(
                    effect.url, effect.operation, effect.payload
                )
            else:
                reply = NegotiationEngine(
                    effect.requester, effect.controller
                ).run(effect.resource, at=effect.at)
        except Exception as error:
            exc = error
