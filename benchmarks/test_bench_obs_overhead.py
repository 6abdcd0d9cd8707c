"""Observability overhead — the zero-cost-when-disabled contract.

Two measurements behind the ``repro.obs`` layer, reported to
``BENCH_obs.json`` at the repo root:

1. **Instrumentation overhead** (real wall-clock): the repeat-
   negotiation workload timed with observability disabled (the
   baseline every other benchmark pays: one module-flag branch per
   instrumentation site) versus fully enabled (spans + metrics +
   events recording).  Enabled must stay within 10% of disabled
   (25% under ``BENCH_QUICK=1``, where the sample is too small to
   gate tightly).  Every round times both modes, alternating which
   goes first, and the per-mode minimum is kept, which discards
   scheduler noise without favouring the mode that always ran first.

2. **Trace artifact**: an instrumented parallel formation whose
   merged trace is validated (one root, no orphans) and written to
   ``BENCH_trace.json`` in Chrome Trace Event Format — the CI
   artifact you can drop into ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import print_series
from repro import obs
from repro.negotiation.engine import negotiate
from repro.obs import validate_trace
from repro.scenario.workloads import bushy_workload, formation_workload

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

ALTERNATIVES = 32 if QUICK else 128
REPEATS = 15 if QUICK else 100
ROUNDS = 3
FORMATION_ROLES = 4 if QUICK else 8
MAX_OVERHEAD = 1.25 if QUICK else 1.10

ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_obs.json"
TRACE_PATH = ROOT / "BENCH_trace.json"


def _merge_report(section: str, payload: dict) -> None:
    report = {}
    if REPORT_PATH.exists():
        try:
            report = json.loads(REPORT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report["quick_mode"] = QUICK
    payload["quick"] = QUICK
    report[section] = payload
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _timed_negotiations(fixture) -> float:
    started = time.perf_counter()
    for _ in range(REPEATS):
        result = negotiate(
            fixture.requester, fixture.controller, fixture.resource,
            fixture.negotiation_time(),
        )
        assert result.success
    return time.perf_counter() - started


def test_bench_obs_overhead():
    fixture = bushy_workload(ALTERNATIVES)
    obs.disable()
    _timed_negotiations(fixture)  # warm every cache and code path once

    disabled = []
    enabled = []
    for round_index in range(ROUNDS):
        # disabled first in even rounds, enabled first in odd ones
        for obs_on in ((False, True) if round_index % 2 == 0
                       else (True, False)):
            if obs_on:
                obs.enable()
                enabled.append(_timed_negotiations(fixture))
            else:
                obs.disable()
                disabled.append(_timed_negotiations(fixture))
    span_count = len(obs.spans())
    obs.disable()

    ratio = min(enabled) / min(disabled)
    metrics = {
        "workload": f"bushy-{ALTERNATIVES}",
        "repeats_per_round": REPEATS,
        "rounds": ROUNDS,
        "disabled_seconds": round(min(disabled), 6),
        "enabled_seconds": round(min(enabled), 6),
        "overhead_ratio": round(ratio, 4),
        "max_overhead_ratio": MAX_OVERHEAD,
        "spans_recorded_last_round": span_count,
    }
    print_series(
        "Observability: instrumentation overhead (disabled vs enabled)",
        [
            ("obs disabled", metrics["disabled_seconds"], ""),
            ("obs enabled", metrics["enabled_seconds"],
             f"{span_count} spans"),
            ("overhead", f"{ratio:.3f}x",
             f"budget {MAX_OVERHEAD}x"),
        ],
        ("mode", "seconds (min of rounds)", "notes"),
    )
    _merge_report("instrumentation_overhead", metrics)
    assert ratio < MAX_OVERHEAD, (
        f"observability overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD}x budget"
    )


def test_bench_trace_artifact():
    fixture = formation_workload(FORMATION_ROLES)
    obs.enable()
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(fixture.plans(), parallel=True)
    obs.disable()

    assert len(outcome.joined) == FORMATION_ROLES
    spans = obs.spans()
    formation = next(s for s in spans if s.name == "vo.formation")
    members = [s for s in spans if s.trace_id == formation.trace_id]
    report = validate_trace(members)
    assert len(report["roots"]) == 1
    assert report["orphans"] == []

    trace = obs.to_chrome_trace(members)
    TRACE_PATH.write_text(json.dumps(trace, indent=1) + "\n")
    _merge_report("trace_artifact", {
        "roles": FORMATION_ROLES,
        "spans": report["spans"],
        "traces": report["traces"],
        "critical_path_ms": round(outcome.critical_path_ms, 3),
        "serial_ms": round(outcome.serial_ms, 3),
        "artifact": TRACE_PATH.name,
    })
    print_series(
        f"Observability: {FORMATION_ROLES}-role formation trace artifact",
        [
            ("spans", report["spans"]),
            ("roots", len(report["roots"])),
            ("orphans", len(report["orphans"])),
            ("critical path (ms)", round(outcome.critical_path_ms, 1)),
        ],
        ("measure", "value"),
    )
