"""Resilient transport: deadlines, retries, backoff, circuit breaking.

The prototype's SOAP calls through Tomcat against Oracle could time
out, drop, or die mid-negotiation; grid deployments of this
architecture treat partial failure as the norm.  This module supplies
the client-side survival kit as a transport decorator::

    client → ResilientTransport → (FaultInjector →) SimTransport

- **Per-call deadline** — a budget of simulated milliseconds across
  all attempts of one logical call; exceeding it raises
  :class:`~repro.errors.TimeoutError`.  The budget is checked before
  each attempt *and* before each backoff wait (a retry whose backoff
  alone would overrun the deadline is abandoned immediately); it is
  best-effort within a single attempt — an in-flight attempt runs to
  completion even if its simulated wait crosses the deadline.
- **Bounded retries** — transient failures (timeouts, transport
  errors, database-connect failures) are retried up to
  ``max_attempts`` with exponential backoff and *deterministic*
  jitter (CRC-derived, no wall-clock randomness); every backoff is
  charged to the :class:`~repro.services.clock.SimClock`.
- **Circuit breaker** — per-endpoint CLOSED → OPEN → HALF_OPEN state
  machine: after ``failure_threshold`` consecutive transient failures
  the breaker opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError`; after ``reset_timeout_ms``
  of simulated time exactly **one** half-open probe is allowed
  through (concurrent callers fail fast) — success closes the
  breaker, failure re-opens it.

Application-level errors (:class:`~repro.errors.ServiceError`
subclasses that are not transport failures, e.g. an unknown session
id) are *not* retried and do not trip the breaker: the endpoint
answered, the answer was just "no".  Two exceptions interact with the
hardening layer (:mod:`repro.hardening`):

- :class:`~repro.errors.OverloadError` sheds **are** retried, waiting
  at least the server's ``retry_after_ms`` backpressure hint, and do
  not trip the breaker (a shedding peer is alive, not down);
- when a ``deadline_ms`` budget is set, it is propagated to the
  service as a ``deadlineMs`` payload field so admission control can
  shed already-expired work *before* evaluation (stale or looser
  caller-supplied deadlines are re-stamped; valid tighter ones pass
  through).

All of the decision logic lives in the sans-IO
:mod:`repro.services.resilience_core` (which this module re-exports
for backward compatibility); :class:`ResilientTransport` is the thin
*sync* driver over it, and its subclass
:class:`~repro.services.aio_resilience.AioResilientTransport` is the
asyncio driver — see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.resilience_core import (
    TRANSIENT_ERRORS,
    Attempt,
    AttemptOutcome,
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitState,
    Fail,
    ResilienceStats,
    RetryPolicy,
    Sleep,
    resilience_call,
)
from repro.services.transport import DelegatingTransport, SimTransport

__all__ = [
    "RetryPolicy",
    "CircuitBreakerPolicy",
    "CircuitState",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientTransport",
    "TRANSIENT_ERRORS",
]


@dataclass
class ResilientTransport(DelegatingTransport):
    """Retry/backoff/circuit-breaker decorator over a transport.

    A thin sync driver over :func:`resilience_call`: effects are
    fulfilled inline (``Attempt`` → ``inner.call``, ``Sleep`` →
    ``clock.advance``) so behavior, stats, and exception chaining are
    identical to the pre-extraction implementation — see the parity
    suite in ``tests/faults/test_resilience_parity.py``.
    """

    inner: SimTransport  # or any transport-shaped decorator
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_policy: CircuitBreakerPolicy = field(
        default_factory=CircuitBreakerPolicy
    )
    #: Simulated-ms budget for one logical call across all attempts;
    #: ``None`` disables the deadline.
    deadline_ms: float | None = 30_000.0
    stats: ResilienceStats = field(default_factory=ResilienceStats)
    _breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    # -- breakers ---------------------------------------------------------------------

    def breaker(self, url: str) -> CircuitBreaker:
        breaker = self._breakers.get(url)
        if breaker is None:
            breaker = CircuitBreaker(policy=self.breaker_policy)
            self._breakers[url] = breaker
        return breaker

    # -- invocation -------------------------------------------------------------------

    def call(self, url: str, operation: str, payload: dict) -> dict:
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
                        response = self.inner.call(
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
                    self.clock.advance(effect.delay_ms)
                    effect = gen.send(self.clock.elapsed_ms)
                else:  # Fail: terminal, chaining pre-wired by the core
                    gen.close()
                    raise effect.error
        except StopIteration as stop:
            return stop.value
