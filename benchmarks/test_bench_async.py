"""Concurrent-session capacity — asyncio driver vs thread pool.

The sans-IO refactor's gate, reported to ``BENCH_async.json`` at the
repo root (machine-readable, uploaded as a CI artifact):

**Capacity at equal latency**: M negotiation sessions are driven
against one TN Web service, once through the thread-pool path (W pool
threads, each running the sync :class:`TNClient` to completion) and
once through the asyncio path (M tasks, each awaiting an
:class:`AioTNClient`; the client yields between the three protocol
operations, so every session stays open while the others progress).
The service's ``in_flight_peak`` gauge records how many sessions each
driver actually held open at once — the thread pool is structurally
capped at W, while the event loop holds all M.  Per-session latency is
simulated milliseconds measured on each session's own clock branch, so
it is deterministic and must NOT degrade: the asyncio p95 has to be
equal or better.

Full-mode gates: **>= 10x peak concurrent sessions at equal-or-better
p95**, with every session succeeding in both modes.

``BENCH_QUICK=1`` shrinks the workload for CI smoke runs; the section
is stamped ``"quick": true`` and the gates are skipped outright.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from benchmarks.conftest import print_series
from repro.obs.metrics import percentile
from repro.scenario.workloads import capacity_workload
from repro.services.aio import AioSimTransport, AioTNClient, AioTNWebService
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Concurrent sessions driven against the single service.
SESSIONS = 64 if QUICK else 320
#: Pool width of the thread path — the realistic per-service ceiling a
#: thread-per-session design pays stack + scheduling for.
THREAD_WORKERS = 8 if QUICK else 16
#: Distinct requester identities, assigned round-robin to sessions.
REQUESTERS = 16 if QUICK else 32

MIN_CAPACITY_RATIO = 10.0

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_async.json"


def _merge_report(section: str, payload: dict) -> None:
    """Read-modify-write one section of BENCH_async.json so the tests
    can run in any order (or individually)."""
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


def _session_stats(deltas: list[float]) -> dict:
    return {
        "sessions": len(deltas),
        "sim_ms_p50": round(percentile(deltas, 50), 3),
        "sim_ms_p95": round(percentile(deltas, 95), 3),
        "sim_ms_max": round(max(deltas), 3),
    }


def _run_thread_pool(fixture) -> dict:
    transport = SimTransport()
    store = XMLDocumentStore("tn-async-bench-threads")
    service = TNWebService(
        fixture.controller, transport, store, "urn:tn-bench"
    )
    at = fixture.negotiation_time()

    def one_session(index: int) -> float:
        agent = fixture.requesters[index % len(fixture.requesters)]
        with transport.clock_branch() as branch:
            begin = branch.elapsed_ms
            result = TNClient(transport, "urn:tn-bench", agent).negotiate(
                fixture.resource, at=at
            )
            assert result.success, result.failure_detail
            return branch.elapsed_ms - begin

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=THREAD_WORKERS) as pool:
        deltas = list(pool.map(one_session, range(SESSIONS)))
    seconds = time.perf_counter() - started
    stats = _session_stats(deltas)
    stats.update(
        driver="thread-pool",
        workers=THREAD_WORKERS,
        peak_in_flight=service.in_flight_peak,
        wall_seconds=round(seconds, 6),
        sessions_per_sec=round(SESSIONS / seconds, 2),
    )
    service.close()
    return stats


def _run_asyncio(fixture) -> dict:
    transport = AioSimTransport()
    store = XMLDocumentStore("tn-async-bench-aio")
    service = AioTNWebService(
        fixture.controller, transport, store, "urn:tn-bench"
    )
    at = fixture.negotiation_time()

    async def one_session(index: int) -> float:
        agent = fixture.requesters[index % len(fixture.requesters)]
        with transport.clock_branch() as branch:
            begin = branch.elapsed_ms
            client = AioTNClient(transport, "urn:tn-bench", agent)
            result = await client.negotiate(fixture.resource, at=at)
            assert result.success, result.failure_detail
            return branch.elapsed_ms - begin

    async def run_all() -> list[float]:
        return list(await asyncio.gather(
            *(one_session(index) for index in range(SESSIONS))
        ))

    started = time.perf_counter()
    deltas = asyncio.run(run_all())
    seconds = time.perf_counter() - started
    stats = _session_stats(deltas)
    stats.update(
        driver="asyncio",
        peak_in_flight=service.in_flight_peak,
        wall_seconds=round(seconds, 6),
        sessions_per_sec=round(SESSIONS / seconds, 2),
    )
    service.close()
    return stats


def test_bench_async_session_capacity():
    fixture = capacity_workload(REQUESTERS)
    threads = _run_thread_pool(fixture)
    aio = _run_asyncio(fixture)
    capacity_ratio = aio["peak_in_flight"] / max(1, threads["peak_in_flight"])
    metrics = {
        "sessions": SESSIONS,
        "requesters": REQUESTERS,
        "thread_pool": threads,
        "asyncio": aio,
        "capacity_ratio": round(capacity_ratio, 3),
    }
    print_series(
        f"Async capacity: {SESSIONS} sessions (threads vs asyncio)",
        [
            ("thread-pool", threads["peak_in_flight"],
             threads["sim_ms_p95"], threads["sessions_per_sec"]),
            ("asyncio", aio["peak_in_flight"],
             aio["sim_ms_p95"], aio["sessions_per_sec"]),
            ("capacity ratio", f"{metrics['capacity_ratio']}x", "", ""),
        ],
        ("driver", "peak in-flight", "sim p95 ms", "sessions/sec"),
    )
    _merge_report("session_capacity", metrics)
    if QUICK:
        return  # quick mode measures and reports; only full mode gates
    assert capacity_ratio >= MIN_CAPACITY_RATIO, (
        f"asyncio driver must hold >= {MIN_CAPACITY_RATIO}x the thread "
        f"pool's concurrent sessions, measured {capacity_ratio:.1f}x"
    )
    assert aio["sim_ms_p95"] <= threads["sim_ms_p95"], (
        "the capacity win must not cost latency: asyncio p95 "
        f"{aio['sim_ms_p95']}ms > thread-pool p95 "
        f"{threads['sim_ms_p95']}ms"
    )
