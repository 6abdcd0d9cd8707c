"""Batched parallel formation must be an observational no-op.

``execute_formation(parallel=True)`` changes only the *schedule*: the
joins run in plan order, each charging a private clock branch, and the
main timeline advances by the batch critical path instead of the
serial sum.  Member outcomes, disclosures, and message counts must be
identical to serial mode — with and without injected faults — and to
the outcomes and timings recorded in ``formation_reports/``."""

import json
from pathlib import Path

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.scenario import build_aircraft_scenario
from repro.scenario.workloads import formation_workload
from repro.services.resilience import ResilientTransport, RetryPolicy
from repro.services.vo_toolkit import InitiatorEdition
from tests.services.test_async_formation import _snapshot
from tests.services.test_formation_quorum import ALL_ROLES, full_plans

RETRY = RetryPolicy(max_attempts=2, base_backoff_ms=10, jitter_ms=0)

#: ``parallel=True`` formations recorded from the thread-pool
#: scheduler this loop replaced: ``_snapshot`` plus the three timings.
RECORDED = Path(__file__).resolve().parent / "formation_reports"


def run_formation(parallel: bool, plan: FaultPlan = None):
    """One formation over a fresh aircraft scenario (optionally through
    a fault-injecting resilient stack), in the requested mode."""
    scenario = build_aircraft_scenario()
    transport = scenario.transport
    if plan is not None:
        transport = ResilientTransport(
            FaultInjector(scenario.transport, plan), retry=RETRY
        )
    edition = InitiatorEdition(scenario.initiator, transport, scenario.host)
    edition.create_vo(scenario.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(
        full_plans(scenario),
        at=scenario.contract.created_at,
        parallel=parallel,
    )
    return scenario, edition, outcome


def assert_equivalent(serial, parallel):
    """Member-observable equivalence of two formation outcomes."""
    assert parallel.joined == serial.joined
    assert parallel.degraded == serial.degraded
    assert parallel.attempts == serial.attempts
    assert set(parallel.outcomes) == set(serial.outcomes)
    for role in serial.outcomes:
        left, right = serial.outcomes[role], parallel.outcomes[role]
        assert right.member == left.member
        assert right.joined == left.joined
        assert right.unreachable == left.unreachable
        assert right.elapsed_ms == pytest.approx(left.elapsed_ms)
        if left.negotiation is None:
            assert right.negotiation is None
            continue
        assert right.negotiation.success == left.negotiation.success
        assert (right.negotiation.policy_messages
                == left.negotiation.policy_messages)
        assert (right.negotiation.exchange_messages
                == left.negotiation.exchange_messages)
        assert (right.negotiation.disclosed_by_requester
                == left.negotiation.disclosed_by_requester)
        assert (right.negotiation.disclosed_by_controller
                == left.negotiation.disclosed_by_controller)


class TestParallelEquivalence:
    def test_aircraft_formation_identical_outcomes(self):
        _, serial_edition, serial = run_formation(parallel=False)
        _, parallel_edition, parallel = run_formation(parallel=True)
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert serial.joined == sorted(ALL_ROLES.values())
        assert_equivalent(serial, parallel)
        assert set(parallel_edition.vo.members()) == \
            set(serial_edition.vo.members())

    def test_timing_semantics(self):
        _, _, serial = run_formation(parallel=False)
        _, _, parallel = run_formation(parallel=True)
        # Same total work, differently scheduled.
        assert parallel.serial_ms == pytest.approx(serial.elapsed_ms)
        assert parallel.critical_path_ms == pytest.approx(parallel.elapsed_ms)
        # Four independent equal-cost joins: the critical path is one
        # join, so the batch beats the serial schedule by ~4x.
        assert parallel.elapsed_ms < serial.elapsed_ms
        assert serial.elapsed_ms / parallel.elapsed_ms == pytest.approx(
            len(ALL_ROLES), rel=0.05
        )

    def test_equivalent_under_faults(self):
        # An unbounded always-matching fault: every TN negotiation
        # times out in both modes, all four roles degrade.
        def unbounded():
            return FaultPlan(timeout_wait_ms=50).always(
                FaultKind.DB_FAIL, url="urn:vo:tn"
            )

        _, _, serial = run_formation(parallel=False, plan=unbounded())
        _, _, parallel = run_formation(parallel=True, plan=unbounded())
        assert serial.joined == []
        assert sorted(serial.degraded) == sorted(ALL_ROLES.values())
        assert_equivalent(serial, parallel)

        # A limit-bounded spec is consumed in call order.  Both modes
        # run the joins in plan order, so the same calls draw the three
        # injections: the first join's retries absorb them and every
        # role still joins, identically in both modes.
        def bounded():
            return FaultPlan(timeout_wait_ms=50).always(
                FaultKind.DB_FAIL, url="urn:vo:tn", limit=3
            )

        serial_plan, parallel_plan = bounded(), bounded()
        _, _, serial = run_formation(parallel=False, plan=serial_plan)
        _, _, parallel = run_formation(parallel=True, plan=parallel_plan)
        assert serial_plan.pending() == parallel_plan.pending() == 0
        assert serial.joined == sorted(ALL_ROLES.values())
        first_role = next(iter(ALL_ROLES.values()))
        assert serial.attempts[first_role] == 2
        assert_equivalent(serial, parallel)
        assert parallel.serial_ms == pytest.approx(serial.elapsed_ms)

    def test_parallel_single_plan_falls_back_to_serial(self):
        fixture = formation_workload(1)
        edition = fixture.initiator_edition
        edition.create_vo(fixture.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_formation(
            fixture.plans(), at=fixture.contract.created_at, parallel=True,
        )
        assert outcome.mode == "serial"
        assert len(outcome.joined) == 1


def _formation_workload(roles: int):
    fixture = formation_workload(roles)
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    return edition.execute_formation(
        fixture.plans(), at=fixture.contract.created_at, parallel=True,
    )


SETUPS = {
    "formation-4": lambda: _formation_workload(4),
    "formation-16": lambda: _formation_workload(16),
    "aircraft": lambda: run_formation(parallel=True)[2],
    "aircraft-db-fail": lambda: run_formation(
        parallel=True,
        plan=FaultPlan(timeout_wait_ms=50).always(
            FaultKind.DB_FAIL, url="urn:vo:tn"
        ),
    )[2],
}


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_matches_recorded_thread_pool_formation(name):
    outcome = SETUPS[name]()
    assert outcome.mode == "parallel"
    record = _snapshot(outcome)
    record.update(
        elapsed_ms=outcome.elapsed_ms,
        critical_path_ms=outcome.critical_path_ms,
        serial_ms=outcome.serial_ms,
    )
    # The JSON round trip turns tuples into lists, as in the recording.
    assert json.loads(json.dumps(record)) == json.loads(
        (RECORDED / f"{name}.json").read_text()
    )
