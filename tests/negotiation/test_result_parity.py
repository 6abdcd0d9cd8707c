"""The negotiation core's results must not drift.

``result_reports/results.json`` was recorded from the fixed-point
propagation, per-edge ``dsl()`` rendering and ``TranscriptEvent``
transcript that one-pass propagation, policies rendered once and
plain-row transcripts replaced.  Every case runs a workload under one
strategy (both parties) and one ``view_selection`` mode and must match
the record: message counts, disclosures, the executed sequence, and
digests of the transcript text and of ``to_audit_json()``.

Regenerate (only when a protocol-visible change is intended)::

    PYTHONPATH=src python tests/negotiation/test_result_parity.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.credentials.selective import SelectiveCredential
from repro.negotiation.engine import NegotiationEngine
from repro.negotiation.outcomes import NegotiationResult, TranscriptEvent
from repro.negotiation.strategies import Strategy
from repro.scenario.workloads import (
    bushy_workload,
    capacity_workload,
    chain_workload,
)

RECORDED = (
    Path(__file__).resolve().parent / "result_reports" / "results.json"
)

VIEW_MODES = ("first", "min_disclosure", "min_sensitivity")

#: name -> (fixture builder, extra NegotiationEngine options).  The
#: depth-capped chain fails with BUDGET_EXHAUSTED, so propagation also
#: runs over a tree whose root stays unsatisfiable.
WORKLOADS = {
    "bushy-8": (lambda: bushy_workload(8), {}),
    "bushy-256": (lambda: bushy_workload(256), {}),
    "chain-5": (lambda: chain_workload(5), {}),
    "chain-5-depth-3": (lambda: chain_workload(5), {"max_depth": 3}),
    "capacity": (lambda: capacity_workload(1), {}),
}


def _parties(name: str):
    """Build a workload; give every credential a selective form so the
    suspicious strategies negotiate instead of failing fast."""
    build, options = WORKLOADS[name]
    fixture = build()
    if name == "capacity":
        requester = fixture.requesters[0]
    else:
        requester = fixture.requester
    private = fixture.authority.keypair.private
    for agent in (requester, fixture.controller):
        for credential in agent.profile:
            agent.add_selective(
                SelectiveCredential.issue_from(credential, private)
            )
    return (
        requester, fixture.controller, fixture.resource,
        fixture.negotiation_time(), options,
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _snapshot(result: NegotiationResult) -> dict:
    transcript = "\n".join(
        f"{event.phase}|{event.actor}|{event.action}|{event.detail}"
        for event in result.transcript
    )
    return {
        "success": result.success,
        "failureReason": (
            result.failure_reason.value if result.failure_reason else None
        ),
        "policyMessages": result.policy_messages,
        "exchangeMessages": result.exchange_messages,
        "disclosedByRequester": list(result.disclosed_by_requester),
        "disclosedByController": list(result.disclosed_by_controller),
        "sequence": [node.label for node in result.sequence],
        "transcriptEvents": len(result.transcript),
        "transcriptSha256": _digest(transcript),
        "auditSha256": _digest(result.to_audit_json()),
    }


def _run(parties, strategy: Strategy, mode: str) -> NegotiationResult:
    requester, controller, resource, at, options = parties
    requester.strategy = strategy
    controller.strategy = strategy
    try:
        return NegotiationEngine(
            requester, controller, view_selection=mode, **options
        ).run(resource, at=at)
    finally:
        requester.strategy = Strategy.STANDARD
        controller.strategy = Strategy.STANDARD


def _case_id(workload: str, strategy: Strategy, mode: str) -> str:
    return f"{workload}/{strategy.value}/{mode}"


def record() -> dict:
    cases = {}
    for workload in WORKLOADS:
        parties = _parties(workload)
        for strategy in Strategy:
            for mode in VIEW_MODES:
                cases[_case_id(workload, strategy, mode)] = _snapshot(
                    _run(parties, strategy, mode)
                )
    return cases


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


@pytest.fixture(scope="module", params=list(WORKLOADS))
def workload(request):
    return request.param, _parties(request.param)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_result_matches_record(workload, strategy, recorded):
    name, parties = workload
    for mode in VIEW_MODES:
        case = _case_id(name, strategy, mode)
        assert _snapshot(_run(parties, strategy, mode)) == recorded[case], case


def test_record_covers_every_case(recorded):
    assert sorted(recorded) == sorted(
        _case_id(workload, strategy, mode)
        for workload in WORKLOADS
        for strategy in Strategy
        for mode in VIEW_MODES
    )


class TestTranscriptRows:
    """A finished result's stored transcript is invisible to the
    cyclic garbage collector, yet still reads as ``TranscriptEvent``s."""

    @pytest.fixture(scope="class")
    def bushy_result(self):
        requester, controller, resource, at, _ = _parties("bushy-256")
        return NegotiationEngine(requester, controller).run(resource, at=at)

    def test_rows_are_untracked_after_collection(self, bushy_result):
        gc.collect()
        rows = bushy_result.transcript_rows
        assert len(rows) > 500
        assert not any(gc.is_tracked(row) for row in rows)

    def test_transcript_still_yields_events(self, bushy_result):
        events = bushy_result.transcript
        assert isinstance(events, tuple)
        assert all(isinstance(event, TranscriptEvent) for event in events)
        assert [
            (event.phase, event.actor, event.action, event.detail)
            for event in events
        ] == list(bushy_result.transcript_rows)

    def test_event_constructor_still_accepted(self):
        event = TranscriptEvent("setup", "svc", "checkpoint-restore", "s-1")
        result = NegotiationResult(
            resource="RES", requester="a", controller="b", success=False,
            transcript=(event,),
        )
        assert result.transcript == (event,)
        assert result.transcript_rows == (
            ("setup", "svc", "checkpoint-restore", "s-1"),
        )


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {RECORDED}\n")
