"""Asyncio driver for the sans-IO resilience core.

:class:`AioResilientTransport` is a subclass of
:class:`~repro.services.resilience.ResilientTransport` that adds one
method, an asyncio driver: the same
:func:`~repro.services.resilience_core.resilience_call` generator
makes every retry/backoff/deadline/breaker decision, and the
configuration, breakers and transport delegation are inherited.  Only
the way effects are fulfilled differs —

- ``Attempt`` → ``await inner.acall(...)`` (the endpoint may be a
  coroutine, and sibling tasks interleave at the await point);
- ``Sleep`` → advance the *task-local* clock branch (backoff is
  simulated time charged to this task's private timeline, exactly
  like the sync driver charges its thread's branch) and yield to the
  loop so a backing-off task never starves its siblings;
- ``Fail`` → raise, with cause/context chaining pre-wired by the core.

Per-endpoint :class:`CircuitBreaker` instances are **shared across
tasks** — that is the point: five hundred concurrent sessions hitting
a dead shard should open one breaker once, and when the reset window
elapses exactly one task wins the half-open probe token while the
rest fail fast (the stampede-control fix lives in the core's breaker,
so the sync driver gets it too).  Sharing is safe without locks
because every breaker mutation happens synchronously inside one
generator step — the event loop never preempts between ``allow`` and
the verdict reaching the breaker.

Note on time: breaker timestamps (``opened_at_ms``, reset windows)
are read from whatever clock the calling task sees, which under
``clock_branch()`` is the task's branch.  Branches all start from the
same base timeline, so cross-task breaker state stays coherent to
within one in-flight call's latency — the same tolerance the
thread-pool path always had.
"""

from __future__ import annotations

import asyncio

from repro.services.resilience import ResilientTransport
from repro.services.resilience_core import (
    Attempt,
    AttemptOutcome,
    Sleep,
    resilience_call,
)

__all__ = ["AioResilientTransport"]


class AioResilientTransport(ResilientTransport):
    """Retry/backoff/circuit-breaker decorator over an async transport.

    Drives :func:`resilience_call` with awaited effects; stats,
    breaker transitions, and exception chaining match the sync driver
    bit-for-bit on the same seed and fault plan (proven by
    ``tests/faults/test_resilience_parity.py``).  ``inner`` is an
    :class:`~repro.services.aio.AioSimTransport` or an
    ``acall``-capable decorator.
    """

    def call(self, url: str, operation: str, payload: dict) -> dict:
        """Sync calls bypass the async driver; fail loudly instead of
        silently skipping resilience."""
        raise TypeError(
            "AioResilientTransport is asyncio-only; await acall(...) "
            "(wrap a sync stack in ResilientTransport instead)"
        )

    async def acall(self, url: str, operation: str, payload: dict) -> dict:
        gen = resilience_call(
            url=url,
            operation=operation,
            payload=payload,
            retry=self.retry,
            breaker=self.breaker(url),
            deadline_ms=self.deadline_ms,
            stats=self.stats,
            started_ms=self.clock.elapsed_ms,
            clock=self.clock,
        )
        try:
            effect = next(gen)
            while True:
                if isinstance(effect, Attempt):
                    try:
                        response = await self.inner.acall(
                            effect.url, effect.operation, effect.payload
                        )
                    except Exception as exc:
                        reply = AttemptOutcome(
                            error=exc, now_ms=self.clock.elapsed_ms
                        )
                    else:
                        reply = AttemptOutcome(
                            response=response, now_ms=self.clock.elapsed_ms
                        )
                    effect = gen.send(reply)
                elif isinstance(effect, Sleep):
                    # Simulated backoff: charge the task's clock branch,
                    # then yield so siblings run during "the wait".
                    self.clock.advance(effect.delay_ms)
                    await asyncio.sleep(0)
                    effect = gen.send(self.clock.elapsed_ms)
                else:  # Fail: terminal, chaining pre-wired by the core
                    gen.close()
                    raise effect.error
        except StopIteration as stop:
            return stop.value
