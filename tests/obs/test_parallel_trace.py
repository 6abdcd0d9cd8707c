"""One coherent trace out of a parallel formation (satellite d).

``execute_formation(parallel=True)`` runs every join inside the open
``vo.formation`` span, each on its own branch clock, so the trace must
have exactly one root, no orphans, branch-clock virtual timestamps on
the per-role joins, and a critical path that matches
``FormationOutcome.critical_path_ms``.
"""

import pytest

from repro import obs
from repro.obs import critical_path_ms, validate_trace
from repro.scenario.workloads import formation_workload

ROLES = 4


@pytest.fixture
def recorded():
    fixture = formation_workload(ROLES)
    obs.enable()
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(fixture.plans(), parallel=True)
    obs.disable()
    return outcome, obs.spans()


class TestParallelFormationTrace:
    def test_formation_succeeds(self, recorded):
        outcome, _ = recorded
        assert len(outcome.joined) == ROLES
        assert outcome.mode == "parallel"

    def test_single_coherent_trace(self, recorded):
        _, spans = recorded
        formation_spans = [s for s in spans if s.name == "vo.formation"]
        assert len(formation_spans) == 1
        trace_id = formation_spans[0].trace_id
        members = [s for s in spans if s.trace_id == trace_id]
        report = validate_trace(members)
        assert len(report["roots"]) == 1
        assert report["roots"][0].name == "vo.formation"
        assert report["orphans"] == []

    def test_every_join_is_inside_the_formation(self, recorded):
        _, spans = recorded
        (formation,) = [s for s in spans if s.name == "vo.formation"]
        joins = [s for s in spans if s.name == "vo.join"]
        assert len(joins) == ROLES
        assert all(s.trace_id == formation.trace_id for s in joins)
        assert all(s.parent_id == formation.span_id for s in joins)

    def test_joins_carry_branch_clock_virtual_time(self, recorded):
        _, spans = recorded
        joins = [s for s in spans if s.name == "vo.join"]
        for join in joins:
            assert join.start_ms is not None
            assert join.end_ms is not None
            assert join.end_ms > join.start_ms
        # Branch clocks all fork from the same origin, so the joins
        # overlap on the virtual timeline instead of running serially.
        earliest_end = min(s.end_ms for s in joins)
        latest_start = max(s.start_ms for s in joins)
        assert latest_start < earliest_end

    def test_negotiations_nest_under_their_join(self, recorded):
        _, spans = recorded
        by_id = {s.span_id: s for s in spans}
        negotiations = [s for s in spans if s.name == "tn.negotiation"]
        assert len(negotiations) == ROLES

        def has_join_ancestor(span):
            current = span
            while current.parent_id is not None:
                current = by_id[current.parent_id]
                if current.name == "vo.join":
                    return True
            return False

        assert all(has_join_ancestor(s) for s in negotiations)

    def test_critical_path_matches_formation_outcome(self, recorded):
        outcome, spans = recorded
        (formation,) = [s for s in spans if s.name == "vo.formation"]
        members = [s for s in spans if s.trace_id == formation.trace_id]
        merged = critical_path_ms(members, root=formation)
        assert merged == pytest.approx(outcome.critical_path_ms, abs=1e-6)
        assert formation.attrs["critical_path_ms"] == pytest.approx(
            outcome.critical_path_ms
        )
        # The formation span itself covers exactly the makespan the
        # scheduler advanced the main timeline by.
        assert formation.duration_ms == pytest.approx(
            outcome.elapsed_ms, abs=1e-6
        )

    def test_serial_formation_also_traces_coherently(self):
        fixture = formation_workload(2)
        obs.enable()
        edition = fixture.initiator_edition
        edition.create_vo(fixture.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_formation(fixture.plans(), parallel=False)
        spans = obs.spans()
        assert len(outcome.joined) == 2
        (formation,) = [s for s in spans if s.name == "vo.formation"]
        members = [s for s in spans if s.trace_id == formation.trace_id]
        report = validate_trace(members)
        assert len(report["roots"]) == 1 and report["orphans"] == []
