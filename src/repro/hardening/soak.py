"""The chaos soak: one plan of drills, two thin drivers.

:func:`chaos_soak` drives thousands of trust negotiations over the full
simulated SOA stack while a seeded :class:`~repro.faults.plan.FaultPlan`
injects both network faults (drops, lost responses, duplicates,
database failures) and hostile-peer probes (malformed, truncated,
oversized, replayed, reordered, Byzantine).  The run is a *plan*
(:func:`soak_plan`): a seeded list of :class:`SoakStep` drills —

- ``fuzz`` — the whole corpus of :mod:`repro.hardening.fuzz`, replayed
  up front against the unloaded service;
- ``negotiate`` — one negotiation on a lane (requester, resource);
- ``byzantine`` — an impostor with the victim's name and credential
  profile but the wrong private key;
- ``burst`` — a low-priority ``StartNegotiation`` flood that saturates
  admission control;
- ``reap`` — the session TTL reaper;
- ``kill`` — a phase-split negotiation whose serving shard is killed
  (every Kth time with a torn WAL tail) between PolicyExchange and
  CredentialExchange, so the failover successor must finish it from
  the journal;
- ``retract`` — the requester's qualification credential is revoked
  through the trust bus between PolicyExchange and CredentialExchange.

Each drill is written once, sans-IO in the manner of
:mod:`repro.negotiation.core` and :mod:`repro.services.resilience_core`:
a generator that yields :class:`Call` / :class:`Negotiate` effects and
receives the response (or has the raised error thrown back in).  Two
thin drivers fulfil the effects:

- the **sync** driver (this module) runs the plan one step at a time
  through ``TNClient → ResilientTransport → FaultInjector →
  SimTransport → hardened TNWebService`` (or a
  :class:`~repro.cluster.ShardedTNService`);
- the **asyncio** driver (:mod:`repro.hardening.aio_soak`,
  ``asyncio_mode``) runs it in waves of concurrent tasks, each on its
  own clock branch, through ``AioTNClient → AioResilientTransport →
  FaultInjector → AioSimTransport → AioShardedTNService`` with hedged
  starts and health-aware routing.

After the storm, one invariant sweep asserts what hardening promises:

- **disclosure safety** — no protected credential was disclosed
  without a policy alternative whose credential terms the counterpart
  satisfied (concept/variable terms are resolved by the ontology layer
  and are out of this checker's scope);
- **session terminality** — every server-side session ended terminal
  (completed, or expired by the TTL reaper);
- **admission reconciliation** — ``offered == admitted + shed +
  expired`` on the service's admission controller;
- **probe hygiene** — every adversarial probe was rejected with a
  typed error code (or answered idempotently where replay is
  legitimate); none was accepted or leaked a stack trace;
- **fuzz corpus** — every corpus probe got its expected typed
  rejection;
- **exception hygiene** — zero unhandled (non-library) exceptions at
  the client, zero internal errors at the service;
- **impostor rejection** — no Byzantine impostor negotiation
  succeeded;
- **retraction honored** — no retraction drill's negotiation completed
  after its credential was revoked mid-flight;
- **liveness** — despite everything, negotiations kept succeeding;
- **terminal durability** (cluster) — zero sessions whose journal
  reached a terminal checkpoint are lost (or regress to non-terminal)
  across every crash, torn write, failover, and restart;
- **hedge accounting** — no more hedge wins than hedges fired;
- **audit chain** — when ``audit_log_path`` is set, the sealed
  hash-chained event log verifies end to end
  (:func:`repro.obs.audit.verify_audit_log`).

Everything is seeded; the same :class:`SoakConfig` always produces the
same :class:`SoakReport` (cluster routing hashes the process-wide
``requestId`` counter of :mod:`repro.services.tn_client`, so compare
runs from the same counter state).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    OverloadError,
    ReproError,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.hardening.config import HardeningConfig
from repro.hardening.fuzz import (
    classify,
    session_probes,
    stateless_probes,
    terminal_probes,
)
from repro.obs import (
    ObsConfig,
    count as obs_count,
    disable as obs_disable,
    enable as obs_enable,
    event as obs_event,
)
from repro.obs.audit import verify_audit_log

__all__ = [
    "SoakConfig",
    "SoakReport",
    "SoakStep",
    "InvariantViolation",
    "soak_plan",
    "chaos_soak",
    "check_service_invariants",
]

#: Network fault kinds mixed into the soak (CRASH is exercised by the
#: dedicated recovery tests; a soak-length downtime would only measure
#: the timeout path thousands of times over).
_NETWORK_KINDS = (
    FaultKind.DROP, FaultKind.TIMEOUT, FaultKind.DUPLICATE,
    FaultKind.DB_FAIL,
)

_ADVERSARIAL_KINDS = (
    FaultKind.MALFORMED, FaultKind.TRUNCATED, FaultKind.OVERSIZED,
    FaultKind.REPLAYED, FaultKind.REORDERED, FaultKind.BYZANTINE,
)


@dataclass(frozen=True, kw_only=True)
class SoakConfig:
    """Knobs of one soak run.  Everything derives from ``seed``."""

    seed: int = 7
    #: Legitimate negotiations to drive (the acceptance bar is 2000).
    negotiations: int = 2000
    #: Contract roles — also the number of distinct (requester,
    #: resource) pairs the negotiations cycle through.
    roles: int = 4
    #: Per-call strike probability of each adversarial fault kind.
    adversarial_probability: float = 0.04
    #: Per-call strike probability of each network fault kind.
    network_probability: float = 0.012
    #: Every Nth negotiation fires a low-priority admission burst
    #: (0 disables bursts).
    burst_every: int = 50
    #: Raw ``StartNegotiation`` probes per burst, sized to overrun the
    #: identification-priority shed threshold.
    burst_size: int = 48
    #: Every Nth negotiation is attempted by a Byzantine impostor —
    #: the victim's name and credential profile, but the wrong private
    #: key (0 disables impostors).
    byzantine_every: int = 97
    #: Every Nth negotiation runs a retraction drill: the requester's
    #: qualification credential is revoked through the trust bus
    #: between PolicyExchange and CredentialExchange, the exchange must
    #: not complete, and a fresh credential re-arms the lane
    #: (0 disables drills).
    retract_every: int = 0
    #: Every Nth negotiation runs the session TTL reaper (the final
    #: reap after the storm always runs).
    reap_every: int = 250
    #: Client-side deadline budget per logical call (simulated ms).
    deadline_ms: float = 60_000.0
    hardening: HardeningConfig = field(default_factory=HardeningConfig)
    #: TN shards behind the service URL (0 keeps the classic
    #: single-service soak; > 0 deploys a
    #: :class:`~repro.cluster.ShardedTNService` instead).
    cluster_shards: int = 0
    #: Every Nth negotiation runs a kill drill: a phase-split
    #: negotiation whose serving shard is killed between PolicyExchange
    #: and CredentialExchange, so the final phase must be served by the
    #: failover successor from the journalled checkpoint (0 disables;
    #: requires ``cluster_shards``).
    node_kill_every: int = 0
    #: Every Kth kill drill additionally tears the victim's final WAL
    #: record before the kill — recovery must discard the torn tail and
    #: resume from the previous checkpoint (0 disables tearing).
    torn_write_every_kill: int = 3
    #: Directory for per-shard WAL files (None journals in memory).
    wal_dir: Optional[str] = None
    #: Run the plan with the asyncio driver instead of the sync one:
    #: ``AioTNClient`` lanes drive an
    #: :class:`~repro.cluster.AioShardedTNService` (hedged requests +
    #: health-aware routing) through ``AioResilientTransport`` and the
    #: async fault-injection path, in waves of concurrent tasks, so
    #: kill and retraction drills land *while* sibling negotiations
    #: are mid-flight.  Every drill runs under both drivers.
    asyncio_mode: bool = False
    #: Path of a hash-chained audit log.  When set, the soak enables
    #: the observability runtime with an
    #: :class:`~repro.obs.audit.AuditLogSink` for the duration of the
    #: run (replacing any runtime the caller had enabled), seals the
    #: final epoch at the end, and verifies the whole chain as an
    #: invariant.
    audit_log_path: Optional[str] = None


@dataclass(frozen=True)
class InvariantViolation:
    """One broken soak invariant."""

    invariant: str
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass
class SoakReport:
    """Counters and verdicts of one soak run; ``ok`` is the verdict."""

    seed: int
    negotiations: int
    successes: int = 0
    #: Failed-but-answered negotiations by failure reason.
    failures: dict[str, int] = field(default_factory=dict)
    #: Typed errors that surfaced to the driving client, by code.
    client_errors: dict[str, int] = field(default_factory=dict)
    #: Non-library exceptions that escaped to the driver.  Must be [].
    unhandled: list[str] = field(default_factory=list)
    byzantine_attempts: int = 0
    byzantine_successes: int = 0
    retraction_drills: int = 0
    #: Negotiations that completed after their credential was retracted
    #: mid-flight.  Must be 0 ("retraction-honored").
    stale_completions: int = 0
    bursts: int = 0
    burst_sheds: int = 0
    deadline_sheds: int = 0
    backpressure_waits: int = 0
    breaker_pauses: int = 0
    reaped: int = 0
    internal_errors: int = 0
    guard_validated: int = 0
    guard_rejected: int = 0
    guard_by_code: dict[str, int] = field(default_factory=dict)
    admission_offered: int = 0
    admission_admitted: int = 0
    admission_shed: int = 0
    admission_expired: int = 0
    #: Adversarial probes fired by the injector, per fault kind.
    probes_fired: dict[str, int] = field(default_factory=dict)
    probe_rejections: int = 0
    probe_anomalies: list[str] = field(default_factory=list)
    fuzz_probes: int = 0
    fuzz_failures: list[str] = field(default_factory=list)
    #: Cluster-mode counters (all zero in the single-service soak).
    node_kills: int = 0
    node_restarts: int = 0
    failovers: int = 0
    sessions_recovered: int = 0
    wal_records: int = 0
    torn_records_discarded: int = 0
    #: Asyncio-driver counters (all zero under the sync driver):
    #: hedged-request outcomes and health-router ejection traffic.
    hedges_fired: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    shard_ejections: int = 0
    shard_readmissions: int = 0
    health_probes: int = 0
    #: ``AuditReport.to_dict()`` of the audit-log verification, or
    #: None when no audit log was requested.
    audit: Optional[dict] = None
    elapsed_sim_ms: float = 0.0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unhandled

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "negotiations": self.negotiations,
            "successes": self.successes,
            "failures": dict(self.failures),
            "clientErrors": dict(self.client_errors),
            "unhandled": list(self.unhandled),
            "byzantineAttempts": self.byzantine_attempts,
            "byzantineSuccesses": self.byzantine_successes,
            "trust": {
                "retractionDrills": self.retraction_drills,
                "staleCompletions": self.stale_completions,
            },
            "bursts": self.bursts,
            "burstSheds": self.burst_sheds,
            "deadlineSheds": self.deadline_sheds,
            "backpressureWaits": self.backpressure_waits,
            "breakerPauses": self.breaker_pauses,
            "reaped": self.reaped,
            "internalErrors": self.internal_errors,
            "guard": {
                "validated": self.guard_validated,
                "rejected": self.guard_rejected,
                "byCode": dict(self.guard_by_code),
            },
            "admission": {
                "offered": self.admission_offered,
                "admitted": self.admission_admitted,
                "shed": self.admission_shed,
                "expired": self.admission_expired,
            },
            "probesFired": dict(self.probes_fired),
            "probeRejections": self.probe_rejections,
            "probeAnomalies": list(self.probe_anomalies),
            "fuzzProbes": self.fuzz_probes,
            "fuzzFailures": list(self.fuzz_failures),
            "cluster": {
                "nodeKills": self.node_kills,
                "nodeRestarts": self.node_restarts,
                "failovers": self.failovers,
                "sessionsRecovered": self.sessions_recovered,
                "walRecords": self.wal_records,
                "tornRecordsDiscarded": self.torn_records_discarded,
                "hedgesFired": self.hedges_fired,
                "hedgesWon": self.hedges_won,
                "hedgesCancelled": self.hedges_cancelled,
                "shardEjections": self.shard_ejections,
                "shardReadmissions": self.shard_readmissions,
                "healthProbes": self.health_probes,
            },
            "audit": self.audit,
            "elapsedSimMs": round(self.elapsed_sim_ms, 3),
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict}: {self.successes}/{self.negotiations} negotiations "
            f"succeeded under {sum(self.probes_fired.values())} adversarial "
            f"probes, {self.admission_shed} sheds, "
            f"{self.guard_rejected} guard rejections; "
            f"{len(self.violations)} invariant violations, "
            f"{len(self.unhandled)} unhandled exceptions"
        )


def _record(counts: dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


def _check_disclosure_safety(result, agents, violate) -> None:
    """No protected credential without a satisfied policy alternative.

    Checks CREDENTIAL-kind policy terms against the counterpart's
    disclosed credential *types*; alternatives carrying only concept or
    variable terms are resolved through the ontology layer and are out
    of this checker's scope (treated as satisfied).
    """
    from repro.policy.terms import TermKind

    requester = agents.get(result.requester)
    controller = agents.get(result.controller)
    if requester is None or controller is None:
        return
    sides = (
        (requester, result.disclosed_by_requester,
         controller, result.disclosed_by_controller),
        (controller, result.disclosed_by_controller,
         requester, result.disclosed_by_requester),
    )
    for discloser, disclosed_ids, counterpart, counterpart_ids in sides:
        counterpart_types = set()
        for cred_id in counterpart_ids:
            try:
                counterpart_types.add(
                    counterpart.profile.get(cred_id).cred_type
                )
            except ReproError:
                pass
        for cred_id in disclosed_ids:
            try:
                credential = discloser.profile.get(cred_id)
            except ReproError:
                violate(
                    "disclosure-safety",
                    f"{discloser.name} disclosed credential {cred_id!r} "
                    "absent from its own profile",
                )
                continue
            base = discloser.policies
            cred_type = credential.cred_type
            if (
                base.is_unprotected(cred_type)
                or base.is_freely_deliverable(cred_type)
            ):
                continue
            satisfied = False
            for policy in base.policies_for(cred_type):
                if policy.is_delivery:
                    satisfied = True
                    break
                credential_terms = [
                    term for term in policy.terms
                    if term.kind is TermKind.CREDENTIAL
                ]
                if not credential_terms:
                    satisfied = True  # concept/variable-only alternative
                    break
                if all(
                    term.name in counterpart_types
                    for term in credential_terms
                ):
                    satisfied = True
                    break
            if not satisfied:
                violate(
                    "disclosure-safety",
                    f"{discloser.name} disclosed {cred_id!r} "
                    f"({cred_type}, sensitivity "
                    f"{credential.sensitivity.name}) to "
                    f"{counterpart.name} for {result.resource!r} with no "
                    "satisfied policy alternative",
                )


def check_service_invariants(service, violate, cluster=None) -> None:
    """Service-level invariant checks shared by the chaos soak and the
    scenario engine.

    ``service`` is a :class:`~repro.services.tn_service.TNWebService`
    or a :class:`~repro.cluster.ShardedTNService`; ``violate`` is a
    ``(invariant, detail)`` callback invoked per broken promise.  Pass
    the cluster again as ``cluster`` to also run the cluster-only
    terminal-durability check.

    Covers:

    - **session terminality** — every session the service still holds
      ended in a terminal phase (completed or expired/reaped);
    - **terminal durability** (cluster only) — no durably-terminal
      session was lost or regressed across crash/failover/recovery;
    - **admission reconciliation** — ``offered == admitted + shed +
      expired`` on the (aggregate) admission controller;
    - **exception hygiene** — the service wrapped zero internal errors.
    """
    for session_id, session in service.sessions().items():
        if not session.terminal:
            violate(
                "session-terminal",
                f"session {session_id!r} ended in phase "
                f"{session.phase!r} (requester "
                f"{session.requester_name!r})",
            )
    if cluster is not None:
        # Zero terminal sessions lost: every session whose *durable*
        # journal reached a terminal checkpoint must still exist, and
        # still be terminal, on some live shard after every crash,
        # failover, torn write, and restart of the run.
        final_sessions = service.sessions()
        for session_id, element in sorted(
            cluster.durable_sessions().items()
        ):
            checkpoint_terminal = element.get("phase") == "expired" or (
                element.get("phase") == "exchange"
                and element.find("outcome") is not None
            )
            if not checkpoint_terminal:
                continue
            final = final_sessions.get(session_id)
            if final is None:
                violate(
                    "terminal-durability",
                    f"terminal session {session_id!r} was lost across "
                    "crash/recovery",
                )
            elif not final.terminal:
                violate(
                    "terminal-durability",
                    f"session {session_id!r} checkpointed terminal but "
                    f"recovered in phase {final.phase!r}",
                )
    if service.admission is not None and not service.admission.stats.reconciles:
        stats = service.admission.stats
        violate(
            "admission-reconciliation",
            f"offered {stats.offered} != admitted {stats.admitted} + "
            f"shed {stats.shed} + expired {stats.expired}",
        )
    if service.internal_errors:
        violate(
            "exception-hygiene",
            f"service wrapped {service.internal_errors} internal errors",
        )


# -- the plan ---------------------------------------------------------------------


@dataclass(frozen=True)
class SoakStep:
    """One drill of the soak plan.

    ``index`` is the negotiation the drill rides on (-1 for the
    up-front fuzz replay); ``lane`` picks the (requester, resource)
    pair it drives.
    """

    drill: str
    index: int
    lane: int = 0


def soak_plan(config: SoakConfig) -> list[SoakStep]:
    """The seeded drill schedule of one soak run.

    Per negotiation index the order is: the negotiation itself (or a
    Byzantine impostor), then any burst, reap, kill, and retraction
    drill due at that index.  Drill lanes are drawn from one seeded
    stream in that order, so the schedule never depends on how a
    driver interleaves the steps.
    """
    lanes = max(1, config.roles)
    rng = random.Random(config.seed)

    def due(every: int, index: int) -> bool:
        return every > 0 and (index + 1) % every == 0

    plan = [SoakStep("fuzz", -1)]
    for index in range(config.negotiations):
        byzantine = due(config.byzantine_every, index)
        plan.append(SoakStep(
            "byzantine" if byzantine else "negotiate", index, index % lanes
        ))
        if due(config.burst_every, index):
            plan.append(SoakStep("burst", index, rng.randrange(lanes)))
        if due(config.reap_every, index):
            plan.append(SoakStep("reap", index))
        if config.cluster_shards > 0 and due(config.node_kill_every, index):
            plan.append(SoakStep("kill", index, rng.randrange(lanes)))
        if due(config.retract_every, index):
            plan.append(SoakStep("retract", index, rng.randrange(lanes)))
    return plan


# -- effects ----------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """Effect: deliver one operation to the service URL.

    Through the client stack (resilience + fault injection) by default;
    ``raw`` calls go straight to the bare transport — no retries, no
    injected faults — the way a flooding or fuzzing peer would.
    """

    operation: str
    payload: object
    raw: bool = False


@dataclass(frozen=True)
class Negotiate:
    """Effect: one full client negotiation (StartNegotiation →
    PolicyExchange → CredentialExchange) for ``agent`` on
    ``resource``; the reply is the
    :class:`~repro.negotiation.outcomes.NegotiationResult`."""

    agent: object
    resource: str


Drill = Generator[object, object, None]


def drive(drill: Drill, perform) -> None:
    """Run ``drill`` to completion, fulfilling each effect with
    ``perform(effect)``; an error raised by the effect is thrown back
    into the drill at its ``yield``."""
    try:
        effect = next(drill)
        while True:
            try:
                reply = perform(effect)
            except Exception as exc:  # noqa: BLE001 - the drill decides
                effect = drill.throw(exc)
            else:
                effect = drill.send(reply)
    except StopIteration:
        pass


async def adrive(drill: Drill, perform) -> None:
    """:func:`drive` with an awaited ``perform``."""
    try:
        effect = next(drill)
        while True:
            try:
                reply = await perform(effect)
            except Exception as exc:  # noqa: BLE001 - the drill decides
                effect = drill.throw(exc)
            else:
                effect = drill.send(reply)
    except StopIteration:
        pass


# -- one run: the stack a driver built, the drills, the sweep ---------------------


@dataclass
class SoakRun:
    """The state of one soak run, shared by both drivers.

    A driver builds the stack (everything up to ``tag``) and fulfils
    the drills' effects; the drills, the stats collection, and the
    invariant sweep live here, once.
    """

    config: SoakConfig
    #: The TN endpoint: a hardened service or a sharded cluster.
    service: object
    #: The same object when it is a cluster, else None.
    cluster: object
    #: The client stack (resilience over fault injection).
    resilient: object
    #: The bare transport under the fault injector.
    raw: object
    injector: object
    #: ``(agent, resource)`` per lane.
    lanes: list
    #: Every agent by name, for the disclosure-safety check.
    agents: dict
    at: object
    trust_bus: object
    authority: object
    #: Prefix of the drills' ``requestId`` tokens.
    tag: str
    report: SoakReport = field(init=False)
    results: list = field(default_factory=list)
    #: Latest simulated time any clock branch reached.
    horizon_ms: float = field(init=False)
    started_ms: float = field(init=False)

    def __post_init__(self) -> None:
        self.report = SoakReport(
            seed=self.config.seed, negotiations=self.config.negotiations
        )
        self.started_ms = self.horizon_ms = self.clock.elapsed_ms

    @property
    def clock(self):
        return self.raw.base_clock

    def drill(self, step: SoakStep) -> Drill:
        return _DRILLS[step.drill](self, step)

    # -- bookkeeping --------------------------------------------------------

    def client_error(self, exc: ReproError) -> None:
        code = getattr(exc, "error_code", None)
        _record(
            self.report.client_errors,
            code.value if code else type(exc).__name__,
        )

    def unhandled(self, what: str, exc: Exception) -> None:
        self.report.unhandled.append(f"{what}: {type(exc).__name__}: {exc}")

    def tally(self, result) -> None:
        """Count one answered legitimate negotiation."""
        if result.success:
            self.report.successes += 1
        else:
            _record(
                self.report.failures,
                result.failure_reason.value
                if result.failure_reason else "unknown",
            )
        self.results.append(result)

    # -- drills -------------------------------------------------------------

    def _fuzz(self, step: SoakStep) -> Drill:
        """Replay the whole corpus: stateless, then against a live
        session, then against the same session after it completed."""
        agent, resource = self.lanes[step.lane]

        def probe(each):
            try:
                yield Call(each.operation, each.payload, raw=True)
            except Exception as exc:  # noqa: BLE001 - classified
                return classify(each, exc)
            return classify(each, None)

        outcomes, failures = [], []
        for each in stateless_probes(self.config.hardening):
            outcomes.append((yield from probe(each)))
        try:
            start = yield Call("StartNegotiation", {
                "requester": agent,
                "strategy": "standard",
                "counterpartUrl": f"urn:repro:{agent.name}",
                "requestId": f"{self.tag}-fuzz-{self.config.seed}",
            }, raw=True)
            session_id = start["negotiationId"]
            for each in session_probes(session_id):
                outcomes.append((yield from probe(each)))
            yield Call("PolicyExchange", {
                "negotiationId": session_id, "resource": resource,
                "at": self.at, "clientSeq": 1,
            }, raw=True)
            yield Call("CredentialExchange", {
                "negotiationId": session_id, "clientSeq": 2,
            }, raw=True)
            for each in terminal_probes(session_id, resource):
                outcomes.append((yield from probe(each)))
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            failures.append(f"fuzz session: {type(exc).__name__}: {exc}")
        self.report.fuzz_probes = len(outcomes)
        self.report.fuzz_failures = [
            f"{outcome.name}: {outcome.anomaly}"
            for outcome in outcomes if not outcome.ok
        ] + failures

    def _negotiate(self, step: SoakStep) -> Drill:
        """One negotiation on a lane — or, for ``byzantine``, by an
        impostor presenting the victim's name and stolen credential
        profile but signing ownership proofs with its own key: every
        disclosure it attempts must be rejected."""
        from repro.crypto.keys import KeyPair
        from repro.negotiation.agent import TrustXAgent

        report = self.report
        agent, resource = self.lanes[step.lane]
        byzantine = step.drill == "byzantine"
        if byzantine:
            report.byzantine_attempts += 1
            agent = TrustXAgent(
                name=agent.name,
                profile=agent.profile,
                policies=agent.policies,
                keypair=KeyPair.generate(512),
                validator=agent.validator,
                strategy=agent.strategy,
            )
        try:
            try:
                result = yield Negotiate(agent, resource)
            except CircuitOpenError:
                # The breaker opened under a fault streak: wait out the
                # reset window in simulated time and give the endpoint
                # its half-open probe instead of fast-failing the rest
                # of the soak.
                report.breaker_pauses += 1
                self.resilient.clock.advance(
                    self.resilient.breaker_policy.reset_timeout_ms + 1.0
                )
                result = yield Negotiate(agent, resource)
        except ReproError as exc:
            self.client_error(exc)
            return
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            self.unhandled(f"negotiation {step.index}", exc)
            return
        if not byzantine:
            self.tally(result)
        elif result.success:
            report.byzantine_successes += 1

    def _burst(self, step: SoakStep) -> Drill:
        """A low-priority client floods StartNegotiation on the bare
        transport, without retries; the first two probes carry an
        already-expired deadline so deadline shedding fires under load
        too."""
        report = self.report
        report.bursts += 1
        agent = self.lanes[step.lane][0]
        for probe_index in range(self.config.burst_size):
            payload = {
                "requester": agent,
                "strategy": "standard",
                "counterpartUrl": "urn:repro:burst",
                "requestId": f"{self.tag}-burst-{step.index}-{probe_index}",
                "priority": "identification",
            }
            if probe_index < 2:
                payload["deadlineMs"] = self.raw.clock.elapsed_ms - 1.0
            try:
                yield Call("StartNegotiation", payload, raw=True)
            except OverloadError:
                report.burst_sheds += 1
            except DeadlineExpiredError:
                report.deadline_sheds += 1
            except ReproError as exc:
                self.client_error(exc)
            except Exception as exc:  # noqa: BLE001
                self.unhandled(f"burst {step.index}.{probe_index}", exc)

    def _reap(self, step: SoakStep) -> Drill:
        self.report.reaped += self.service.reap_expired()
        yield from ()

    def _open(self, agent, resource: str, request_id: str) -> Drill:
        """StartNegotiation + PolicyExchange through the client stack;
        returns the negotiation id, or None (recorded) if the service
        gave none."""
        start = yield Call("StartNegotiation", {
            "requester": agent,
            "strategy": "standard",
            "counterpartUrl": f"urn:repro:{agent.name}",
            "requestId": request_id,
        })
        negotiation_id = start.get("negotiationId")
        if not negotiation_id:
            _record(self.report.client_errors, "no-negotiation-id")
            return None
        yield Call("PolicyExchange", {
            "negotiationId": negotiation_id, "resource": resource,
            "at": self.at, "clientSeq": 1,
        })
        return negotiation_id

    def _kill(self, step: SoakStep) -> Drill:
        """A mid-negotiation shard kill: StartNegotiation and
        PolicyExchange land on one shard, that shard dies (every Kth
        drill with its final WAL record torn first), and the client's
        CredentialExchange must be completed by the failover successor
        from the journalled checkpoint.  Under the asyncio driver the
        kill also lands on sibling tasks' in-flight sessions."""
        report, cluster = self.report, self.cluster
        agent, resource = self.lanes[step.lane]
        try:
            negotiation_id = yield from self._open(
                agent, resource, f"{self.tag}-kill-{step.index}"
            )
            if negotiation_id is None:
                return
            victim = cluster.placement_index(negotiation_id)
            if victim is not None and len(cluster.live_nodes()) > 1:
                report.node_kills += 1
                torn = self.config.torn_write_every_kill
                if torn > 0 and report.node_kills % torn == 0:
                    # Damage the freshest checkpoint too: recovery must
                    # discard the torn record and fall back to the one
                    # before it.
                    cluster.tear_wal(victim)
                cluster.kill_node(victim)
            try:
                exchange = yield Call("CredentialExchange", {
                    "negotiationId": negotiation_id, "clientSeq": 2,
                })
            except ReproError:
                # The adopted checkpoint may predate PolicyExchange
                # (torn WAL record): replay the phase against the
                # successor.  Restored sessions accept the resync, and
                # the billing flags in the checkpoint keep the replay
                # idempotent.
                yield Call("PolicyExchange", {
                    "negotiationId": negotiation_id, "resource": resource,
                    "at": self.at, "clientSeq": 3,
                })
                exchange = yield Call("CredentialExchange", {
                    "negotiationId": negotiation_id, "clientSeq": 4,
                })
            result = exchange.get("result")
        except ReproError as exc:
            self.client_error(exc)
            return
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            self.unhandled(f"kill-drill {step.index}", exc)
            return
        if result is None or not hasattr(result, "success"):
            _record(report.client_errors, "no-result")
        else:
            self.tally(result)

    def _retract(self, step: SoakStep) -> Drill:
        """A mid-negotiation retraction: StartNegotiation and
        PolicyExchange run normally, then the requester's qualification
        credential is revoked through the trust bus — the
        CredentialExchange that follows must not complete on stale
        cached trust.  The lane is re-issued a fresh credential
        afterwards so later negotiations keep succeeding."""
        from repro.scenario.workloads import _ISSUE

        report = self.report
        agent, resource = self.lanes[step.lane]
        credential = next(iter(agent.profile), None)
        if credential is None:
            return
        report.retraction_drills += 1
        result = None
        revoked = False
        try:
            negotiation_id = yield from self._open(
                agent, resource, f"{self.tag}-retract-{step.index}"
            )
            if negotiation_id is None:
                return
            self.trust_bus.revoke(self.authority, credential)
            revoked = True
            exchange = yield Call("CredentialExchange", {
                "negotiationId": negotiation_id, "clientSeq": 2,
            })
            result = exchange.get("result")
        except ReproError as exc:
            self.client_error(exc)
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            self.unhandled(f"retraction-drill {step.index}", exc)
        finally:
            if revoked:
                # Re-arm the lane: the revoked qualification is
                # replaced by a fresh serial under the *same*
                # credential id, so later negotiations succeed again
                # (and disclosure records from earlier rounds still
                # resolve against the profile).
                fresh = self.authority.issue(
                    credential.cred_type, agent.name,
                    agent.keypair.fingerprint,
                    {a.name: a.value for a in credential.attributes},
                    _ISSUE, days=3650, sensitivity=credential.sensitivity,
                    cred_id=credential.cred_id,
                )
                agent.profile.remove(credential.cred_id)
                agent.profile.add(fresh)
        if result is not None and getattr(result, "success", False):
            report.stale_completions += 1
        elif result is not None:
            _record(
                report.failures,
                result.failure_reason.value
                if result.failure_reason else "unknown",
            )

    # -- drain, stats, invariants, audit ------------------------------------

    def finish(self) -> SoakReport:
        """Let every abandoned session age out, collect the stats, run
        the invariant sweep, and seal and verify the audit log."""
        config, report, service = self.config, self.report, self.service
        cluster, injector = self.cluster, self.injector
        if cluster is not None:
            # Revive any shard still down so its journalled sessions
            # are live for the final reap and the terminal-durability
            # check.
            for node in cluster.nodes():
                if not node.live:
                    cluster.restart_node(node.index)
        # Clock branches may have run ahead of the base clock: advance
        # past the horizon plus the TTL so every abandoned session is
        # due.
        self.clock.advance(
            max(0.0, self.horizon_ms - self.clock.elapsed_ms)
            + config.hardening.session_ttl_ms + 1.0
        )
        report.reaped += service.reap_expired()
        report.elapsed_sim_ms = self.clock.elapsed_ms - self.started_ms
        report.backpressure_waits = self.resilient.stats.backpressure_waits
        report.internal_errors = service.internal_errors
        if service.guard is not None:
            report.guard_validated = service.guard.stats.validated
            report.guard_rejected = service.guard.stats.rejected
            report.guard_by_code = dict(service.guard.stats.by_code)
        if service.admission is not None:
            stats = service.admission.stats
            report.admission_offered = stats.offered
            report.admission_admitted = stats.admitted
            report.admission_shed = stats.shed
            report.admission_expired = stats.expired
        report.probes_fired = {
            kind.value: count
            for kind, count in injector.injected.items()
            if kind.adversarial and count
        }
        report.probe_rejections = len(injector.probe_rejections)
        report.probe_anomalies = list(injector.probe_anomalies)
        if cluster is not None:
            report.node_kills = cluster.kills
            report.node_restarts = cluster.restarts
            report.failovers = cluster.failovers
            report.sessions_recovered = cluster.sessions_recovered
            report.wal_records = cluster.wal_records()
            report.torn_records_discarded = cluster.torn_records_discarded()
            hedges = getattr(cluster, "hedge_stats", None)
            if hedges is not None:
                report.hedges_fired = hedges.fired
                report.hedges_won = hedges.won
                report.hedges_cancelled = hedges.cancelled
            if cluster.health is not None:
                report.shard_ejections = cluster.health.total_ejections()
                report.shard_readmissions = (
                    cluster.health.total_readmissions()
                )
                report.health_probes = cluster.health_probes

        def violate(invariant: str, detail: str) -> None:
            report.violations.append(InvariantViolation(invariant, detail))

        check_service_invariants(service, violate, cluster=cluster)
        for anomaly in injector.probe_anomalies:
            violate("probe-hygiene", anomaly)
        for line in report.fuzz_failures:
            violate("fuzz-corpus", line)
        if report.byzantine_successes:
            violate(
                "impostor-rejection",
                f"{report.byzantine_successes} Byzantine impostor "
                "negotiations succeeded",
            )
        if report.stale_completions:
            violate(
                "retraction-honored",
                f"{report.stale_completions} negotiations completed after "
                "their credential was retracted mid-negotiation",
            )
        if not report.successes:
            violate("liveness", "no negotiation succeeded during the soak")
        if report.hedges_won > report.hedges_fired:
            violate(
                "hedge-accounting",
                f"{report.hedges_won} hedge wins out of "
                f"{report.hedges_fired} fired",
            )
        for result in self.results:
            _check_disclosure_safety(result, self.agents, violate)

        obs_count("hardening.soak.runs")
        obs_event(
            "hardening.soak.report",
            clock=self.clock,
            ok=report.ok,
            negotiations=report.negotiations,
            successes=report.successes,
            violations=len(report.violations),
        )
        if cluster is not None:
            cluster.close()
        if config.audit_log_path is not None:
            obs_disable()  # seals the final audit epoch
            audit_report = verify_audit_log(config.audit_log_path)
            report.audit = audit_report.to_dict()
            if not audit_report.ok:
                violate("audit-chain", audit_report.summary())
        return report


_DRILLS = {
    "fuzz": SoakRun._fuzz,
    "negotiate": SoakRun._negotiate,
    "byzantine": SoakRun._negotiate,
    "burst": SoakRun._burst,
    "reap": SoakRun._reap,
    "kill": SoakRun._kill,
    "retract": SoakRun._retract,
}

#: A compressed latency model: the soak measures invariants over
#: thousands of negotiations, not Fig. 9 absolute times, and the
#: admission bucket (drain_per_ms) is calibrated against it.
_LATENCY = dict(
    network_rtt_ms=1.0, soap_marshal_ms=0.5, service_dispatch_ms=0.5,
    db_connect_ms=2.0, db_read_ms=0.2, db_write_ms=0.3,
    crypto_sign_ms=0.5, crypto_verify_ms=0.2,
    ui_interaction_ms=4.0, mail_delivery_ms=3.0,
)


def _fault_plan(config: SoakConfig, url: str, **kwargs) -> FaultPlan:
    """The seeded fault plan both drivers inject on the service URL."""
    plan = FaultPlan(seed=config.seed, timeout_wait_ms=250.0, **kwargs)
    for kind in _ADVERSARIAL_KINDS:
        plan.randomly(kind, config.adversarial_probability, url=url)
    for kind in _NETWORK_KINDS:
        plan.randomly(kind, config.network_probability, url=url)
    return plan


# -- the sync driver --------------------------------------------------------------


def _sync_run(config: SoakConfig) -> SoakRun:
    """Build the sync stack: ``TNClient → ResilientTransport →
    FaultInjector → SimTransport → hardened TNWebService`` (or a
    :class:`~repro.cluster.ShardedTNService` at the same URL)."""
    # Imported here: the scenario/service layers import
    # ``repro.hardening.config`` at module load, so importing them at
    # this module's top level would close an import cycle.
    from repro.faults.injector import FaultInjector
    from repro.negotiation.cache import SequenceCache
    from repro.scenario.workloads import formation_workload
    from repro.services.resilience import ResilientTransport, RetryPolicy
    from repro.services.transport import LatencyModel
    from repro.trust import TrustBus

    fixture = formation_workload(
        config.roles, latency=LatencyModel(**_LATENCY)
    )
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    cluster = None
    if config.cluster_shards > 0:
        from repro.cluster import ShardedTNService

        service = cluster = ShardedTNService(
            edition.initiator.agent,
            fixture.transport,
            url="urn:vo:tn",
            shards=config.cluster_shards,
            cache=SequenceCache(),
            hardening=config.hardening,
            wal_dir=config.wal_dir,
        )
    else:
        service = edition.enable_trust_negotiation(
            cache=SequenceCache(), hardening=config.hardening
        )
    injector = FaultInjector(
        inner=fixture.transport, plan=_fault_plan(config, service.url)
    )
    lanes = []
    for role in fixture.contract.roles:
        lanes.append((
            fixture.member_apps[role.name].member.agent,
            role.membership_resource(fixture.contract.vo_name),
        ))
    agents = {agent.name: agent for agent, _ in lanes}
    agents[edition.initiator.agent.name] = edition.initiator.agent
    if cluster is not None:
        # Restores and failover adoptions resolve requesters here.
        cluster.agents.update(agents)
    return SoakRun(
        config=config,
        service=service,
        cluster=cluster,
        resilient=ResilientTransport(
            inner=injector,
            retry=RetryPolicy(jitter_seed=config.seed),
            deadline_ms=config.deadline_ms,
        ),
        raw=fixture.transport,
        injector=injector,
        lanes=lanes,
        agents=agents,
        at=fixture.contract.created_at,
        trust_bus=TrustBus(registry=fixture.revocations),
        authority=fixture.authority,
        tag="soak",
    )


def _sync_soak(config: SoakConfig, plan: list[SoakStep]) -> SoakReport:
    """Run the plan one step at a time on the sync stack."""
    from repro.services.tn_client import TNClient

    run = _sync_run(config)
    url = run.service.url

    def perform(effect):
        if isinstance(effect, Negotiate):
            client = TNClient(run.resilient, url, effect.agent)
            return client.negotiate(effect.resource, at=run.at)
        transport = run.raw if effect.raw else run.resilient
        return transport.call(url, effect.operation, effect.payload)

    for step in plan:
        drive(run.drill(step), perform)
    return run.finish()


def chaos_soak(
    config: Optional[SoakConfig] = None,
    plan: Optional[list[SoakStep]] = None,
) -> SoakReport:
    """Run the chaos soak and return its invariant report.

    ``plan`` defaults to :func:`soak_plan` of ``config``;
    ``config.asyncio_mode`` picks the driver.  This is the
    ``WorkloadRunner`` ``"soak"`` preset.
    """
    config = config or SoakConfig()
    if plan is None:
        plan = soak_plan(config)
    if config.audit_log_path is not None:
        # The soak owns the observability runtime for the run: every
        # event lands in the hash-chained audit log, which is sealed
        # and verified as an invariant at the end.
        obs_enable(ObsConfig(audit_path=config.audit_log_path))
    if config.asyncio_mode:
        from repro.hardening.aio_soak import aio_soak

        return aio_soak(config, plan)
    return _sync_soak(config, plan)
