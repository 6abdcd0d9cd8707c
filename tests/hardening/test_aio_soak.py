"""The chaos soak under the asyncio driver: waves of concurrent tasks.

``repro soak --asyncio`` drives the whole stack — ``AioTNClient →
AioResilientTransport → FaultInjector → AioSimTransport →
AioShardedTNService`` — from the event loop, with hedged starts,
health-aware routing, and every drill of the sync driver: the fuzz
corpus, Byzantine impostors, admission bursts, mid-negotiation shard
kills, and mid-negotiation retractions.  Same acceptance bar as the
sync driver: zero invariant violations, deterministic per seed.
"""

import json

from repro.hardening.soak import SoakConfig, soak_plan
from tests.hardening.soak_helpers import normalised_json, recorded, seeded_soak


def run_aio(plan_filter=None, **kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("negotiations", 60)
    kwargs.setdefault("roles", 3)
    config = SoakConfig(asyncio_mode=True, **kwargs)
    plan = soak_plan(config)
    if plan_filter is not None:
        plan = [step for step in plan if plan_filter(step)]
    return seeded_soak(config, plan)


def without_new_drills(step) -> bool:
    """The drills the asyncio soak did not run before the drill plan
    was shared between the drivers."""
    return step.drill not in ("fuzz", "retract")


class TestAioSoakAcceptance:
    def test_sharded_storm_with_kills_zero_violations(self):
        report = run_aio(
            negotiations=80, cluster_shards=3, node_kill_every=25,
            byzantine_every=20,
        )
        assert report.ok, report.to_json()
        assert report.violations == []
        assert report.unhandled == []
        assert report.successes > 0
        assert report.byzantine_attempts > 0
        assert report.byzantine_successes == 0
        assert report.internal_errors == 0
        # the storm exercised the async-only machinery
        assert report.node_kills > 0
        assert report.failovers > 0
        assert report.sessions_recovered >= 1
        assert report.summary().startswith("PASS")

    def test_hedging_and_health_active_with_shards(self):
        report = run_aio(negotiations=80, cluster_shards=3)
        assert report.ok, report.to_json()
        # the SLOW drill on shard 0 makes hedges fire and the health
        # tracker eject (and later readmit) the degraded shard
        assert report.hedges_fired > 0
        assert report.hedges_won <= report.hedges_fired
        assert report.shard_ejections >= 1
        assert report.shard_readmissions >= 1
        assert report.health_probes >= 1

    def test_single_service_mode(self):
        report = run_aio(negotiations=40)
        assert report.ok, report.to_json()
        assert report.hedges_fired == 0  # nothing to hedge against
        assert report.node_kills == 0


class TestAioSoakParity:
    """Without the fuzz and retraction steps, the asyncio driver
    reproduces the recorded reports of the asyncio soak it replaced,
    byte for byte."""

    def test_sharded_kill_soak_matches_recorded_report(self):
        report = run_aio(
            without_new_drills, negotiations=200, roles=4,
            cluster_shards=3, node_kill_every=40,
        )
        assert normalised_json(report) == recorded("aio-cluster-200")

    def test_single_service_soak_matches_recorded_report(self):
        report = run_aio(without_new_drills, negotiations=40)
        assert normalised_json(report) == recorded("aio-single-40")


class TestAioSoakDeterminism:
    def test_same_seed_same_report(self):
        first = run_aio(seed=11)
        second = run_aio(seed=11)
        assert first.to_dict() == second.to_dict()

    def test_same_seed_byte_identical_with_every_drill(self):
        kwargs = dict(
            seed=9, negotiations=80, cluster_shards=3, node_kill_every=20,
            retract_every=15, byzantine_every=17,
        )
        assert run_aio(**kwargs).to_json() == run_aio(**kwargs).to_json()

    def test_different_seed_different_storm(self):
        base = run_aio(seed=3)
        other = run_aio(seed=4)
        assert base.to_dict() != other.to_dict()


class TestAioSoakReport:
    def test_report_json_round_trips_with_cluster_counters(self):
        report = run_aio(
            negotiations=60, cluster_shards=3, node_kill_every=30,
        )
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is report.ok
        cluster = decoded["cluster"]
        assert cluster["hedgesFired"] == report.hedges_fired
        assert cluster["hedgesWon"] == report.hedges_won
        assert cluster["hedgesCancelled"] == report.hedges_cancelled
        assert cluster["shardEjections"] == report.shard_ejections
        assert cluster["shardReadmissions"] == report.shard_readmissions
        assert cluster["healthProbes"] == report.health_probes

    def test_every_drill_runs_under_asyncio(self):
        """The fuzz corpus and mid-flight retractions run on the
        concurrent stack too, with zero violations."""
        report = run_aio(
            negotiations=200, roles=4, cluster_shards=3,
            node_kill_every=40, retract_every=25,
        )
        assert report.ok, report.to_json()
        assert report.violations == []
        decoded = json.loads(report.to_json())
        assert decoded["fuzzProbes"] > 0
        assert decoded["fuzzFailures"] == []
        assert decoded["trust"]["retractionDrills"] > 0
        assert decoded["trust"]["staleCompletions"] == 0
        assert decoded["cluster"]["nodeKills"] > 0
