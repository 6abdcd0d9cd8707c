"""FaultInjector semantics against a toy endpoint, under both drivers.

Each case class runs once with the sync driver (``call`` on
:class:`SimTransport`) and, through its ``...Asyncio`` subclass, once
with the asyncio driver (``acall`` on :class:`AioSimTransport`).
:class:`TestDriverParity` runs a table of fault scenarios through both
drivers and requires them to observe exactly the same thing.
"""

import asyncio
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.errors import (
    DatabaseUnavailableError,
    ErrorCode,
    ServiceError,
    TimeoutError,
    TransportError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.services.aio import AioSimTransport
from repro.services.transport import SimTransport


@dataclass
class Stack:
    injector: FaultInjector
    transport: SimTransport
    hits: list
    #: ``call(url, operation, payload)`` through the driver under test.
    call: Callable[[str, str, object], dict]

    def __iter__(self):
        return iter((self.injector, self.transport, self.hits, self.call))


def build_stack(driver: str) -> Stack:
    """An injector over a counting echo endpoint that rejects
    non-mapping payloads with a typed error."""
    transport = AioSimTransport() if driver == "asyncio" else SimTransport()
    hits = []

    def handler(operation, payload):
        if not isinstance(payload, dict):
            raise ServiceError(
                "payload must be a mapping",
                error_code=ErrorCode.SCHEMA_VIOLATION,
            )
        hits.append(operation)
        return {"echo": payload.get("value"), "hits": len(hits)}

    transport.bind("urn:svc", handler)
    injector = FaultInjector(transport, FaultPlan())
    if driver == "asyncio":
        def call(url, operation, payload):
            return asyncio.run(injector.acall(url, operation, payload))
    else:
        call = injector.call
    return Stack(injector, transport, hits, call)


@pytest.fixture()
def driver():
    return "sync"


@pytest.fixture()
def stack(driver):
    """(injector, transport, hits, call) for the driver under test."""
    return build_stack(driver)


class AsyncioDriver:
    """Mixin: rerun a case class through the asyncio driver."""

    @pytest.fixture()
    def driver(self):
        return "asyncio"


class TestPassThrough:
    def test_clean_call_delegates(self, stack):
        injector, transport, hits, call = stack
        response = call("urn:svc", "Echo", {"value": 1})
        assert response == {"echo": 1, "hits": 1}
        assert transport.calls == 1

    def test_charge_helpers_delegate(self, stack):
        injector, transport, _, _ = stack
        before = injector.clock.elapsed_ms
        injector.charge_db(reads=2)
        injector.charge_crypto(signs=1)
        injector.charge_ui()
        injector.charge_mail()
        injector.charge_messages(1)
        assert injector.clock.elapsed_ms > before
        assert injector.clock is transport.clock

    def test_bind_unbind_delegate(self, stack):
        injector, transport, _, _ = stack
        injector.bind("urn:other", lambda op, p: {})
        assert injector.is_bound("urn:other")
        injector.unbind("urn:other")
        assert not transport.is_bound("urn:other")


class TestDropAndTimeout:
    def test_drop_skips_handler_and_charges_wait(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.DROP)
        before = injector.clock.elapsed_ms
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert hits == []  # the request never arrived
        waited = injector.clock.elapsed_ms - before
        assert waited >= injector.plan.timeout_wait_ms

    def test_timeout_executes_handler_but_loses_response(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.TIMEOUT)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert hits == ["Echo"]  # side effects happened

    def test_duplicate_runs_handler_twice(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.DUPLICATE)
        response = call("urn:svc", "Echo", {"value": 9})
        assert hits == ["Echo", "Echo"]
        assert response["hits"] == 2  # the second delivery's response

    def test_db_fail_raises_typed_error(self, stack):
        injector, _, hits, call = stack
        injector.plan.at(1, FaultKind.DB_FAIL)
        with pytest.raises(DatabaseUnavailableError):
            call("urn:svc", "Echo", {})
        assert hits == []


class TestCrashRestart:
    def test_crash_unbinds_and_downtime_blocks(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.CRASH)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert not transport.is_bound("urn:svc")
        assert injector.is_down("urn:svc")
        # still inside the downtime window: unreachable
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert hits == []

    def test_restart_hook_revives_after_downtime(self, stack):
        injector, transport, hits, call = stack
        revived = []

        def restart():
            transport.bind("urn:svc", lambda op, p: {"revived": True})
            revived.append(True)

        injector.register_endpoint("urn:svc", restart=restart)
        injector.plan.at(1, FaultKind.CRASH)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        # wait out the downtime in simulated time
        injector.clock.advance(injector.plan.downtime_ms + 1)
        response = call("urn:svc", "Echo", {})
        assert response == {"revived": True}
        assert revived == [True]
        assert injector.crash_count("urn:svc") == 1
        assert injector.restart_count("urn:svc") == 1

    def test_crash_hook_preferred_over_plain_unbind(self, stack):
        injector, transport, _, _ = stack
        crashed = []
        injector.register_endpoint(
            "urn:svc",
            crash=lambda: (crashed.append(True),
                           transport.unbind("urn:svc")),
        )
        injector.crash_endpoint("urn:svc")
        assert crashed == [True]
        assert not transport.is_bound("urn:svc")

    def test_no_restart_hook_leaves_endpoint_unbound(self, stack):
        injector, transport, _, call = stack
        injector.plan.at(1, FaultKind.CRASH)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        injector.clock.advance(injector.plan.downtime_ms + 1)
        with pytest.raises(TransportError):
            call("urn:svc", "Echo", {})


class TestAccounting:
    def test_injected_counters(self, stack):
        injector, _, _, call = stack
        injector.plan.at(1, FaultKind.DROP).at(2, FaultKind.DUPLICATE)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        call("urn:svc", "Echo", {})
        assert injector.injected[FaultKind.DROP] == 1
        assert injector.injected[FaultKind.DUPLICATE] == 1
        assert injector.total_injected() == 2

    def test_call_index_counts_faulted_calls(self, stack):
        injector, _, _, call = stack
        injector.plan.at(2, FaultKind.DROP)
        call("urn:svc", "Echo", {})
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        call("urn:svc", "Echo", {})
        assert injector.call_index == 3

    def test_fault_scheduled_during_downtime_drains_as_skip(self, stack):
        # A single-shot fault whose call index falls while the endpoint
        # is down must still be consumed from the plan (as a skip), or
        # FaultPlan.pending() never converges and report counts skew.
        injector, _, hits, call = stack
        injector.plan.at(1, FaultKind.CRASH).at(2, FaultKind.DROP)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert injector.is_down("urn:svc")
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})  # index 2: down
        assert injector.plan.pending() == 0
        assert injector.skipped[FaultKind.DROP] == 1
        assert injector.injected[FaultKind.DROP] == 0
        assert injector.total_skipped() == 1
        assert hits == []


def _revive(stack: Stack) -> None:
    """Register a restart hook that rebinds a marked echo endpoint."""
    transport = stack.transport

    def restart():
        transport.bind("urn:svc", lambda op, p: {"revived": True})

    stack.injector.register_endpoint("urn:svc", restart=restart)


class TestSlowRestartTornAndProbes:
    def test_slow_delivers_late(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.SLOW)
        before = injector.clock.elapsed_ms
        response = call("urn:svc", "Echo", {"value": 3})
        assert response == {"echo": 3, "hits": 1}
        assert injector.clock.elapsed_ms - before == (
            transport.model.message_cost() + injector.plan.slow_ms
        )
        assert injector.injected[FaultKind.SLOW] == 1

    def test_node_restart_revives_a_downed_endpoint(self, stack):
        injector, _, _, call = stack
        _revive(stack)
        injector.plan.at(1, FaultKind.CRASH).at(2, FaultKind.NODE_RESTART)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert injector.is_down("urn:svc")
        # Still inside the downtime window, but NODE_RESTART revives now.
        assert call("urn:svc", "Echo", {}) == {"revived": True}
        assert not injector.is_down("urn:svc")
        assert injector.injected[FaultKind.NODE_RESTART] == 1
        assert injector.total_skipped() == 0
        assert injector.restart_count("urn:svc") == 1

    def test_wal_torn_write_lands_effects_then_kills(self, stack):
        injector, transport, hits, call = stack
        torn = []
        injector.register_endpoint("urn:svc", tear=lambda: torn.append(1))
        injector.plan.at(1, FaultKind.WAL_TORN_WRITE)
        with pytest.raises(TimeoutError):
            call("urn:svc", "Echo", {})
        assert hits == ["Echo"]  # the handler ran before power failed
        assert torn == [1]
        assert injector.torn_write_count("urn:svc") == 1
        assert injector.crash_count("urn:svc") == 1
        assert injector.is_down("urn:svc")
        assert not transport.is_bound("urn:svc")

    def test_typed_probe_rejection_is_recorded(self, stack):
        injector, transport, hits, call = stack
        injector.plan.at(1, FaultKind.MALFORMED)
        response = call("urn:svc", "Echo", {"value": 5})
        assert response == {"echo": 5, "hits": 1}  # legit call untouched
        assert transport.calls == 2  # plus the probe
        assert injector.probe_rejections == [
            (FaultKind.MALFORMED, ErrorCode.SCHEMA_VIOLATION)
        ]
        assert injector.probe_anomalies == []

    def test_accepted_probe_is_an_anomaly(self, stack):
        injector, _, hits, call = stack
        injector.plan.at(1, FaultKind.TRUNCATED)
        call("urn:svc", "Echo", {"resource": "r"})
        assert hits == ["Echo", "Echo"]
        assert injector.probe_rejections == []
        assert len(injector.probe_anomalies) == 1
        assert "was accepted" in injector.probe_anomalies[0]


class TestPassThroughAsyncio(AsyncioDriver, TestPassThrough):
    pass


class TestDropAndTimeoutAsyncio(AsyncioDriver, TestDropAndTimeout):
    pass


class TestCrashRestartAsyncio(AsyncioDriver, TestCrashRestart):
    pass


class TestAccountingAsyncio(AsyncioDriver, TestAccounting):
    pass


class TestSlowRestartTornAndProbesAsyncio(
    AsyncioDriver, TestSlowRestartTornAndProbes
):
    pass


# -- driver parity ------------------------------------------------------------------


def _plan(*faults):
    def arrange(stack: Stack) -> None:
        for index, kind in faults:
            stack.injector.plan.at(index, kind)
    return arrange


def _crash_restartable(stack: Stack) -> None:
    _revive(stack)
    stack.injector.plan.at(1, FaultKind.CRASH)


def _torn(stack: Stack) -> None:
    stack.injector.register_endpoint("urn:svc", tear=lambda: None)
    stack.injector.plan.at(2, FaultKind.WAL_TORN_WRITE)


def _restart_downed(stack: Stack) -> None:
    _revive(stack)
    stack.injector.plan.at(1, FaultKind.NODE_CRASH)
    stack.injector.plan.at(3, FaultKind.NODE_RESTART)


#: name -> (arrange the plan, steps): each ``c`` is one call, each
#: ``w`` waits out the plan's downtime in simulated time.
SCENARIOS = {
    "clean": (_plan(), "cc"),
    "drop": (_plan((1, FaultKind.DROP)), "cc"),
    "timeout": (_plan((1, FaultKind.TIMEOUT)), "cc"),
    "duplicate": (_plan((2, FaultKind.DUPLICATE)), "ccc"),
    "db_fail": (_plan((1, FaultKind.DB_FAIL)), "cc"),
    "slow": (_plan((2, FaultKind.SLOW)), "ccc"),
    "crash_wait_restart": (_crash_restartable, "cwc"),
    "node_restart_downed": (_restart_downed, "cccc"),
    "wal_torn_write": (_torn, "ccc"),
    "skip_during_downtime": (
        _plan((1, FaultKind.CRASH), (2, FaultKind.DROP)), "ccc"
    ),
    "probe_malformed": (_plan((1, FaultKind.MALFORMED)), "cc"),
    "probe_truncated": (_plan((1, FaultKind.TRUNCATED)), "cc"),
    "probe_oversized": (_plan((1, FaultKind.OVERSIZED)), "cc"),
    "probe_reordered": (_plan((1, FaultKind.REORDERED)), "cc"),
    "probe_replayed": (_plan((3, FaultKind.REPLAYED)), "cccc"),
    "probe_byzantine": (_plan((2, FaultKind.BYZANTINE)), "ccc"),
}


def _observe(driver: str, scenario: str) -> dict:
    arrange, steps = SCENARIOS[scenario]
    stack = build_stack(driver)
    arrange(stack)
    injector = stack.injector
    outcomes = []
    for index, step in enumerate(steps):
        if step == "w":
            injector.clock.advance(injector.plan.downtime_ms + 1)
            continue
        try:
            response = stack.call(
                "urn:svc", "Echo", {"value": index, "resource": "r"}
            )
        except Exception as exc:  # noqa: BLE001 - compared below
            outcomes.append(("raised", type(exc).__name__))
        else:
            outcomes.append(("ok", response))
    return {
        "outcomes": outcomes,
        "hits": list(stack.hits),
        "elapsed_ms": injector.clock.elapsed_ms,
        "calls": stack.transport.calls,
        "call_index": injector.call_index,
        "injected": dict(injector.injected),
        "skipped": dict(injector.skipped),
        "crashes": injector.crash_count("urn:svc"),
        "restarts": injector.restart_count("urn:svc"),
        "torn": injector.torn_write_count("urn:svc"),
        "down": injector.is_down("urn:svc"),
        "pending": injector.plan.pending(),
        "probe_rejections": list(injector.probe_rejections),
        "probe_anomalies": list(injector.probe_anomalies),
    }


class TestDriverParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_drivers_observe_the_same(self, scenario):
        sync = _observe("sync", scenario)
        assert sync == _observe("asyncio", scenario)
        assert sync["pending"] == 0  # every scheduled fault drained

    def test_scenarios_cover_every_fault_kind(self):
        covered = set()
        for scenario in SCENARIOS:
            observed = _observe("sync", scenario)
            covered |= {
                kind for kind, count in observed["injected"].items() if count
            }
        assert covered == set(FaultKind)
