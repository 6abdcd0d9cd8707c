"""The asyncio driver of the chaos soak.

The plan, the drills, and the invariant sweep live in
:mod:`repro.hardening.soak`; this driver only builds the async stack —

``AioTNClient → AioResilientTransport → FaultInjector.acall →
AioSimTransport → AioShardedTNService``

— and runs the plan in **waves of concurrent tasks**, one wave per
``len(lanes)`` negotiation indices, so the machinery that only exists
under concurrency gets soaked: per-endpoint circuit breakers shared
across tasks (one half-open probe per reset window, siblings fail
fast), hedged ``StartNegotiation`` racing ring-successor shards,
health-based ejection of a deliberately slowed shard and its
probe-driven re-admission, and shard kills and credential retractions
landing *while sibling tasks hold open sessions*.

Client drills run on their own :meth:`~repro.services.transport
.SimTransport.clock_branch`, so backoff and latency are charged to
private timelines exactly like the sync driver charges its single
timeline; the fuzz replay and admission bursts (bare-transport peers)
run on the shared base timeline, and reaps run between waves.
The final drain advances the base clock past the horizon of all
branches (the critical path) before reaping.

A deliberately slowed shard (``FaultKind.SLOW`` with a strike
``limit``) exercises the health router end to end: the shard is
ejected for slowness, probed while still slow (stays out), and
re-admitted once the fault budget is spent.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.faults.plan import FaultKind
from repro.hardening.soak import (
    _LATENCY,
    Negotiate,
    SoakConfig,
    SoakReport,
    SoakRun,
    SoakStep,
    _fault_plan,
    adrive,
)

__all__ = ["aio_soak"]

#: Simulated duration of one injected SLOW fault — far above the
#: health policy's ``slow_after_ms`` so every slowed call is a strike.
_SLOW_MS = 4000.0
#: Health knobs of the soak's router: eject after 3 consecutive
#: strikes, responses over 2 s count as strikes, probe every 1 s.
_SLOW_AFTER_MS = 2000.0
_PROBE_INTERVAL_MS = 1000.0
#: Strike budget of the slow-shard drill: enough to eject the shard
#: (threshold 3) and keep a couple of probes failing before the fault
#: is spent and a probe re-admits it.
_SLOW_STRIKES = 6
#: Drills that act on the service rather than as a client: they run
#: on the shared base timeline, not a branch.
_BASE_TIMELINE = frozenset({"fuzz", "burst", "reap"})


def _aio_run(config: SoakConfig) -> SoakRun:
    """Build the async stack around a sharded cluster (one shard in the
    single-service mode), hedging and slowing a shard when there are
    several."""
    # Imported here for the same reason the sync driver does: the
    # scenario/service layers import ``repro.hardening.config`` at
    # module load, so top-level imports would close an import cycle.
    from repro.cluster import AioShardedTNService, HedgePolicy, HealthPolicy
    from repro.faults.injector import FaultInjector
    from repro.negotiation.cache import SequenceCache
    from repro.scenario.workloads import capacity_workload
    from repro.services.aio import AioSimTransport
    from repro.services.aio_resilience import AioResilientTransport
    from repro.services.resilience import RetryPolicy
    from repro.services.transport import LatencyModel
    from repro.trust import TrustBus

    fixture = capacity_workload(max(1, config.roles))
    base = AioSimTransport(model=LatencyModel(**_LATENCY))
    shards = max(1, config.cluster_shards)
    plan = _fault_plan(config, "urn:vo:tn", slow_ms=_SLOW_MS)
    injector = FaultInjector(inner=base, plan=plan)
    resilient = AioResilientTransport(
        inner=injector,
        retry=RetryPolicy(jitter_seed=config.seed),
        deadline_ms=config.deadline_ms,
    )
    # The cluster forwards shard-bound traffic through the *same*
    # resilient transport, so router-to-shard hops get retries and the
    # injector can target individual shard URLs (the slow-shard drill).
    cluster = AioShardedTNService(
        fixture.controller,
        resilient,
        url="urn:vo:tn",
        shards=shards,
        agents={agent.name: agent for agent in fixture.requesters},
        cache=SequenceCache(),
        hardening=config.hardening,
        wal_dir=config.wal_dir,
        hedge=HedgePolicy() if shards > 1 else None,
        health=HealthPolicy(
            slow_after_ms=_SLOW_AFTER_MS,
            probe_interval_ms=_PROBE_INTERVAL_MS,
        ),
    )
    if shards > 1:
        # The slow-shard drill: shard 0 answers, but 4 s late, until
        # the strike budget is spent — ejection, failed probes, then
        # re-admission, all while hedges cover the tail.
        plan.always(
            FaultKind.SLOW, url=cluster.nodes()[0].url, limit=_SLOW_STRIKES
        )
    agents = {agent.name: agent for agent in fixture.requesters}
    agents[fixture.controller.name] = fixture.controller
    return SoakRun(
        config=config,
        service=cluster,
        cluster=cluster,
        resilient=resilient,
        raw=base,
        injector=injector,
        lanes=[(agent, fixture.resource) for agent in fixture.requesters],
        agents=agents,
        at=fixture.negotiation_time(),
        trust_bus=TrustBus(registry=fixture.revocations),
        authority=fixture.authority,
        tag="aio-soak",
    )


def aio_soak(config: SoakConfig, plan: list[SoakStep]) -> SoakReport:
    """Run the plan in waves of concurrent tasks on the async stack."""
    from repro.services.aio import AioTNClient

    run = _aio_run(config)
    url = run.service.url

    async def perform(effect):
        if isinstance(effect, Negotiate):
            client = AioTNClient(run.resilient, url, effect.agent)
            return await client.negotiate(effect.resource, at=run.at)
        transport = run.raw if effect.raw else run.resilient
        return await transport.acall(url, effect.operation, effect.payload)

    async def task(step: SoakStep) -> None:
        if step.drill in _BASE_TIMELINE:
            await adrive(run.drill(step), perform)
            return
        with run.resilient.clock_branch() as branch:
            try:
                await adrive(run.drill(step), perform)
            finally:
                run.horizon_ms = max(run.horizon_ms, branch.elapsed_ms)

    async def waves() -> None:
        width = len(run.lanes)
        for _, wave in itertools.groupby(
            plan, key=lambda step: step.index // width
        ):
            wave = list(wave)
            await asyncio.gather(*(
                task(step) for step in wave if step.drill != "reap"
            ))
            for step in wave:
                if step.drill == "reap":
                    await task(step)

    asyncio.run(waves())
    return run.finish()
