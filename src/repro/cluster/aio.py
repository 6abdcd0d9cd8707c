"""Asyncio router over the TN shards: hedged starts, async failover.

:class:`AioShardedTNService` is a thin asyncio driver over the routing
generator of :class:`~repro.cluster.sharded.ShardedTNService`: its
:meth:`~AioShardedTNService.ahandle` runs the same routing, start
replay, placement, failover and health-probing code, awaiting
``transport.acall`` for each shard hop (shard hops stay faultable
through a :class:`~repro.faults.injector.FaultInjector`).  It binds
that *awaitable* handler at the cluster URL and builds
:class:`~repro.services.aio.AioTNWebService` shards, so engine turns
interleave on the event loop.

On top of that it adds **hedged requests** for ``StartNegotiation``:
when the primary shard has not answered within the hedge delay (a
fixed ``delay_ms`` or an adaptive percentile of recent start
latencies), a second identical attempt fires at the ring-successor
shard and the faster success wins.  This is safe precisely because of
the protocol's idempotency machinery:

- both racers carry the same ``requestId``, so each shard's replay
  dedup makes the race harmless *within* a shard;
- the loser's freshly-minted session is **cancelled** — released from
  its shard (dropping its dedup entry with it) so exactly one session
  commit survives the race, with no double billing of the placement
  map;
- a client *retry* of a hedged start would route by hash back to the
  losing shard and mint a fresh duplicate — so the base router's
  bounded start-replay map (see
  :data:`~repro.cluster.sharded._START_REPLAY_DEPTH`) answers retries
  from the winning response directly, and rejects tampered reuse of
  the token with ``REPLAY_MISMATCH``.

Only ``StartNegotiation`` is hedged.  Phase operations mutate pinned
session state; racing them against a copy of the session on another
shard would let the loser's state diverge mid-negotiation.  Start is
the idempotent, side-effect-contained opening move — and the one that
dominates tail latency when a shard degrades, because routing pins
every later operation to whichever shard answered it.

The race itself runs on forked clock branches (simulated time): both
legs execute to completion sequentially — deterministic, like every
other concurrency model in this repo — the winner's latency is
charged to the caller's timeline, and the loser is released after the
fact.  The loser's *transport charges* still count, exactly like a
real hedge pays for the work it cancels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.cluster.sharded import ShardedTNService, ShardNode
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
)
from repro.errors import TransportError
from repro.services.aio import AioTNWebService, arun
from repro.services.effects import Call

__all__ = ["AioShardedTNService", "HedgePolicy", "HedgeStats"]

#: Recent successful start latencies kept for the adaptive delay.
_HEDGE_SAMPLE_DEPTH = 128


@dataclass(frozen=True, kw_only=True)
class HedgePolicy:
    """When to fire a second ``StartNegotiation`` at the successor."""

    #: Fixed hedge delay in simulated ms; ``None`` adapts to the
    #: ``percentile`` of recent start latencies.
    delay_ms: Optional[float] = None
    #: Latency percentile after which the hedge fires (adaptive mode).
    percentile: float = 0.95
    #: Starts observed before the adaptive delay kicks in.
    min_samples: int = 20
    #: Delay used until enough samples exist.
    initial_delay_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.delay_ms is not None and self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(
                f"percentile must be in (0, 1), got {self.percentile}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.initial_delay_ms < 0:
            raise ValueError(
                f"initial_delay_ms must be >= 0, got "
                f"{self.initial_delay_ms}"
            )

    def current_delay(self, samples) -> float:
        """The hedge delay given recent successful start latencies."""
        if self.delay_ms is not None:
            return self.delay_ms
        if len(samples) < self.min_samples:
            return self.initial_delay_ms
        ordered = sorted(samples)
        rank = min(len(ordered) - 1, int(self.percentile * len(ordered)))
        return ordered[rank]


@dataclass
class HedgeStats:
    #: Starts that were eligible for hedging (policy set, requestId
    #: present, >= 2 live shards).
    considered: int = 0
    #: Hedges actually fired (primary slower than the delay).
    fired: int = 0
    #: Races the hedge leg won.
    won: int = 0
    #: Loser sessions released (both legs committed; one cancelled).
    cancelled: int = 0
    #: Client retries answered from the router's start-replay map
    #: (:attr:`~repro.cluster.sharded.ShardedTNService.start_replays`
    #: counts the same events on the base router).
    replays: int = 0


class AioShardedTNService(ShardedTNService):
    """Consistent-hash session router driven from the event loop."""

    def __init__(self, *args, hedge: Optional[HedgePolicy] = None,
                 **kwargs) -> None:
        self.hedge_policy = hedge
        self.hedge_stats = HedgeStats()
        self._hedge_samples: deque = deque(maxlen=_HEDGE_SAMPLE_DEPTH)
        super().__init__(*args, **kwargs)

    def _endpoint_handler(self):
        return self.ahandle

    def _service_class(self):
        return AioTNWebService

    def handle(self, operation: str, payload: dict) -> dict:
        raise TransportError(
            f"TN cluster at {self.url!r} is asyncio-native; reach it "
            "through AioSimTransport.acall"
        )

    async def ahandle(self, operation: str, payload: dict) -> dict:
        return await arun(self._route(operation, payload), self.transport)

    def _replayed_start(self, key: str, payload: dict) -> Optional[dict]:
        replayed = super()._replayed_start(key, payload)
        if replayed is not None:
            self.hedge_stats.replays += 1
        return replayed

    def _start(self, node: ShardNode, key: str, payload: dict):
        """Hedge the start when the policy allows it; otherwise forward
        it and keep its latency as a sample for the adaptive delay."""
        if self._should_hedge(payload):
            return (yield from self._hedged_start(node, key, payload))
        began = self.transport.clock.elapsed_ms
        response, served_by = yield from super()._start(node, key, payload)
        if served_by is node:
            self._hedge_samples.append(
                self.transport.clock.elapsed_ms - began
            )
        return response, served_by

    # -- hedging ----------------------------------------------------------------------

    def _should_hedge(self, payload: dict) -> bool:
        if self.hedge_policy is None:
            return False
        if not isinstance(payload, dict) or not payload.get("requestId"):
            return False  # no idempotency token, no race
        return len(self.live_nodes()) >= 2

    def _hedge_backup(self, primary: ShardNode,
                      key: str) -> Optional[ShardNode]:
        """The shard the hedge leg targets: the first healthy live
        ring-successor distinct from the primary."""
        for url in self.ring.preference(key, len(self.ring)):
            if url == primary.url:
                continue
            if self.health is not None and not self.health.is_healthy(url):
                continue
            node = self._node_at(url)
            if node.live and node.service is not None:
                return node
        for node in self.live_nodes():  # everyone ejected: any survivor
            if node.url != primary.url:
                return node
        return None

    def _hedged_start(self, primary: ShardNode, key: str, payload: dict):
        """Race the primary against a delayed hedge leg on forked clock
        branches; returns ``(winning response, winning node)``."""
        self.hedge_stats.considered += 1
        delay = self.hedge_policy.current_delay(self._hedge_samples)
        current = self.transport.clock
        t0 = current.elapsed_ms
        primary_response: Optional[dict] = None
        primary_error: Optional[Exception] = None
        with self.transport.clock_branch(current) as primary_branch:
            try:
                primary_response = yield Call(
                    primary.url, "StartNegotiation", payload
                )
            except Exception as exc:  # noqa: BLE001 - raced below
                primary_error = exc
        primary_ms = primary_branch.elapsed_ms - t0
        if primary_error is None and primary_ms <= delay:
            # The primary answered before the hedge would have fired.
            current.advance(primary_ms)
            self._hedge_samples.append(primary_ms)
            self._note_shard_success(primary.url, primary_ms)
            return primary_response, primary
        backup = self._hedge_backup(primary, key)
        if backup is None:
            current.advance(primary_ms)
            if primary_error is not None:
                self._note_shard_failure(primary.url)
                raise primary_error
            self._hedge_samples.append(primary_ms)
            self._note_shard_success(primary.url, primary_ms)
            return primary_response, primary
        self.hedge_stats.fired += 1
        if obs_enabled():
            obs_count("cluster.hedges.fired")
        hedge_response: Optional[dict] = None
        hedge_error: Optional[Exception] = None
        with self.transport.clock_branch(current) as hedge_branch:
            hedge_branch.advance(delay)  # fires after the hedge delay
            try:
                hedge_response = yield Call(
                    backup.url, "StartNegotiation", payload
                )
            except Exception as exc:  # noqa: BLE001 - raced below
                hedge_error = exc
        hedge_ms = hedge_branch.elapsed_ms - t0
        if primary_error is not None and hedge_error is not None:
            # Both legs failed: adopt the primary timeline and surface
            # its error; the client's resilient retry re-enters the
            # normal (failover-capable) path.
            current.advance(primary_ms)
            self._note_shard_failure(primary.url)
            self._note_shard_failure(backup.url)
            raise primary_error
        if primary_error is None and (
            hedge_error is not None or primary_ms <= hedge_ms
        ):
            winner, winner_ms = primary, primary_ms
            winner_response = primary_response
            loser, loser_response, loser_ms = backup, hedge_response, hedge_ms
        else:
            winner, winner_ms = backup, hedge_ms
            winner_response = hedge_response
            loser, loser_response, loser_ms = primary, primary_response, primary_ms
            self.hedge_stats.won += 1
            if obs_enabled():
                obs_count("cluster.hedges.won")
            if primary_error is not None:
                self._note_shard_failure(primary.url)
        current.advance(winner_ms)
        self._hedge_samples.append(winner_ms)
        self._note_shard_success(winner.url, winner_ms)
        if loser_response is not None:
            # The losing leg still answered; its latency feeds the
            # health tracker (a chronically slow loser earns strikes
            # and is eventually ejected from new-session routing).
            self._note_shard_success(loser.url, loser_ms)
        self._cancel_loser(loser, loser_response)
        if obs_enabled():
            obs_event(
                "cluster.hedge",
                clock=current,
                winner=winner.url,
                loser=loser.url,
                primary_ms=round(primary_ms, 3),
                hedge_ms=round(hedge_ms, 3),
                delay_ms=round(delay, 3),
            )
        return winner_response, winner

    def _cancel_loser(self, loser: ShardNode,
                      loser_response: Optional[dict]) -> None:
        """Release the losing leg's freshly-minted session (and its
        dedup entry with it) so exactly one commit survives the race."""
        if not isinstance(loser_response, dict):
            return
        loser_id = loser_response.get("negotiationId")
        if not loser_id or not loser.live or loser.service is None:
            return
        loser.service.release_session(loser_id)
        self._placements.pop(loser_id, None)
        self.hedge_stats.cancelled += 1
        if obs_enabled():
            obs_count("cluster.hedges.cancelled")
