"""``repro.api`` — the blessed public surface of the reproduction.

Everything an application (the examples, the CLI, external callers)
needs is importable from this one module::

    from repro.api import (
        Negotiator, VOToolkit, TNWebService, FaultInjector, obs,
        ObsConfig, PerfConfig, ResilienceConfig, TrustConfig,
    )

Three kinds of names live here:

1. **Facade classes** defined in this module — :class:`Negotiator`
   (one-call trust negotiation with optional sequence-cache replay),
   :class:`VOToolkit` (builds the simulated SOA transport stack:
   ``client → ResilientTransport → FaultInjector → SimTransport`` —
   and hands out the three toolkit editions), and the keyword-only
   configuration quartet :class:`ObsConfig` / :class:`PerfConfig` /
   :class:`ResilienceConfig` / :class:`TrustConfig`.
2. **Re-exports** of the stable implementation classes (negotiation,
   credentials, policies, services, faults, scenario builders) under
   their canonical names.
3. The :mod:`repro.obs` observability module itself, as ``obs``.

The packages ``repro.services`` and ``repro.faults`` re-export
nothing; the deep module paths (``repro.services.tn_service`` etc.)
are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from repro import obs
from repro.errors import ErrorCode
from repro.credentials import (
    AttributeCertificate,
    Credential,
    CredentialAuthority,
    CredentialValidator,
    RevocationRegistry,
    SelectiveCredential,
    Sensitivity,
    ValidityPeriod,
    VOMembershipToken,
    XProfile,
)
from repro.crypto import KeyPair, Keyring
from repro.faults.adversarial import Probe, build_probe
from repro.faults.demo import run_demo as run_fault_demo
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardening import (
    AdmissionController,
    AdmissionStats,
    GuardStats,
    HardeningConfig,
    Priority,
    ProtocolGuard,
    SoakConfig,
    SoakReport,
    chaos_soak,
)
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.cache import CachingNegotiator, SequenceCache
from repro.negotiation.core import (
    AgentOp,
    NegotiationCore,
    drive,
    perform_agent_op,
)
from repro.negotiation.eager import eager_negotiate
from repro.negotiation.engine import (
    DEFAULT_NEGOTIATION_TIME,
    NegotiationEngine,
    negotiate,
)
from repro.negotiation.outcomes import FailureReason, NegotiationResult
from repro.negotiation.render import render_ascii, render_dot
from repro.negotiation.sequence import TrustSequence
from repro.negotiation.strategies import Strategy, escalated_strategy
from repro.negotiation.tree import NegotiationTree, View
from repro.obs import ObsConfig
from repro.ontology import (
    ConceptMapper,
    MappingOutcome,
    Ontology,
    match_ontologies,
    ontology_from_owl,
    ontology_to_owl,
)
from repro.ontology.builtin import aerospace_reference_ontology
from repro.perf import (
    all_stats as perf_cache_stats,
    caches_disabled,
    clear_all_caches,
    lock_free_caches,
    set_caches_enabled,
    set_lock_free,
)
from repro.policy import (
    ComplianceChecker,
    DisclosurePolicy,
    PolicyBase,
    parse_policies,
    parse_policy,
    policies_from_xacml,
    policies_to_xacml,
    policy_from_xml,
    policy_to_xml,
)
from repro.scenario import AircraftScenario, build_aircraft_scenario
from repro.scenario.engine import (
    RoundState,
    ScenarioConfig,
    ScenarioReport,
    run_scenario,
)
from repro.scenario.experiments import (
    IsolationConfig,
    IsolationReport,
    MatrixConfig,
    MatrixReport,
    ScarcityConfig,
    ScarcityReport,
    cheater_isolation,
    scarcity_market,
    two_agent_matrix,
)
from repro.scenario.market import (
    AgentStrategy,
    MarketConfig,
    Trader,
    run_market_round,
)
from repro.scenario.population import Population, seat_name
from repro.scenario.runner import WorkloadPreset, WorkloadRunner
from repro.scenario.aircraft import (
    ROLE_DESIGN_PORTAL,
    ROLE_HPC,
    ROLE_OPTIMIZATION,
    ROLE_STORAGE,
    build_fig1_workflow,
    enable_selective_disclosure,
)
from repro.scenario.workloads import (
    bushy_workload,
    capacity_workload,
    chain_workload,
    formation_workload,
    make_portfolio,
    overlapping_ontologies,
)
from repro.services.aio import (
    AioSimTransport,
    AioTNClient,
    AioTNWebService,
    adrive,
    anegotiate,
)
from repro.services.aio_resilience import AioResilientTransport
from repro.services.clock import SimClock
from repro.services.resilience import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitState,
    ResilienceStats,
    ResilientTransport,
    RetryPolicy,
)
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import ChargeStats, LatencyModel, SimTransport
from repro.services.vo_toolkit import (
    FormationOutcome,
    HostEdition,
    InitiatorEdition,
    JoinOutcome,
    MemberEdition,
    UNREACHABLE_ERRORS,
)
from repro.trust import (
    RetractionReceipt,
    TrustBus,
    TrustEvent,
    TrustEventKind,
    default_bus,
    trust_epoch,
)
from repro.cluster import (
    AioShardedTNService,
    HashRing,
    HealthPolicy,
    HedgePolicy,
    ShardedTNService,
    ShardNode,
)
from repro.obs.audit import AuditLogSink, AuditReport, verify_audit_log
from repro.storage.document_store import XMLDocumentStore
from repro.storage.session_store import (
    InMemorySessionStore,
    SessionStore,
    WALSessionStore,
)
from repro.vo import (
    Contract,
    Role,
    ServiceRegistry,
    VirtualOrganization,
    VOInitiator,
    VOMember,
)
from repro.vo.monitoring import ViolationKind
from repro.vo.reputation import (
    INITIAL_SCORE,
    ReputationEvent,
    ReputationRecord,
    ReputationSystem,
)
from repro.vo.registry import ServiceDescription

__all__ = [
    # facade
    "Negotiator",
    "VOToolkit",
    "ObsConfig",
    "PerfConfig",
    "ResilienceConfig",
    "TrustConfig",
    "obs",
    # negotiation
    "TrustXAgent",
    "NegotiationEngine",
    "negotiate",
    "eager_negotiate",
    "NegotiationResult",
    "FailureReason",
    "Strategy",
    "escalated_strategy",
    "TrustSequence",
    "NegotiationTree",
    "View",
    "CachingNegotiator",
    "SequenceCache",
    "render_ascii",
    "render_dot",
    "DEFAULT_NEGOTIATION_TIME",
    # sans-IO core + drivers
    "NegotiationCore",
    "AgentOp",
    "drive",
    "perform_agent_op",
    "adrive",
    "anegotiate",
    # credentials / crypto
    "Credential",
    "ValidityPeriod",
    "XProfile",
    "Sensitivity",
    "CredentialAuthority",
    "CredentialValidator",
    "RevocationRegistry",
    "AttributeCertificate",
    "VOMembershipToken",
    "SelectiveCredential",
    "KeyPair",
    "Keyring",
    # policy
    "DisclosurePolicy",
    "PolicyBase",
    "ComplianceChecker",
    "parse_policy",
    "parse_policies",
    "policy_to_xml",
    "policy_from_xml",
    "policies_to_xacml",
    "policies_from_xacml",
    # ontology
    "Ontology",
    "ConceptMapper",
    "MappingOutcome",
    "match_ontologies",
    "ontology_to_owl",
    "ontology_from_owl",
    "aerospace_reference_ontology",
    # services
    "SimClock",
    "LatencyModel",
    "SimTransport",
    "ChargeStats",
    "TNWebService",
    "TNClient",
    "AioSimTransport",
    "AioTNWebService",
    "AioTNClient",
    "ResilientTransport",
    "AioResilientTransport",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "CircuitState",
    "ResilienceStats",
    "HostEdition",
    "InitiatorEdition",
    "MemberEdition",
    "JoinOutcome",
    "FormationOutcome",
    "UNREACHABLE_ERRORS",
    "XMLDocumentStore",
    # storage / durability
    "SessionStore",
    "InMemorySessionStore",
    "WALSessionStore",
    # cluster
    "HashRing",
    "ShardedTNService",
    "AioShardedTNService",
    "ShardNode",
    "HedgePolicy",
    "HealthPolicy",
    # audit
    "AuditLogSink",
    "AuditReport",
    "verify_audit_log",
    # faults
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultKind",
    "Probe",
    "build_probe",
    "run_fault_demo",
    # hardening
    "ErrorCode",
    "HardeningConfig",
    "ProtocolGuard",
    "GuardStats",
    "AdmissionController",
    "AdmissionStats",
    "Priority",
    "SoakConfig",
    "SoakReport",
    "chaos_soak",
    # perf
    "perf_cache_stats",
    "caches_disabled",
    "clear_all_caches",
    "set_caches_enabled",
    "set_lock_free",
    "lock_free_caches",
    # nonmonotonic trust
    "TrustBus",
    "TrustEvent",
    "TrustEventKind",
    "RetractionReceipt",
    "trust_epoch",
    "default_bus",
    # reputation
    "ReputationSystem",
    "ReputationEvent",
    "ReputationRecord",
    "INITIAL_SCORE",
    # vo
    "Role",
    "Contract",
    "ServiceRegistry",
    "ServiceDescription",
    "VOMember",
    "VOInitiator",
    "VirtualOrganization",
    "ViolationKind",
    # scenario / workloads
    "AircraftScenario",
    "build_aircraft_scenario",
    "build_fig1_workflow",
    "enable_selective_disclosure",
    "ROLE_DESIGN_PORTAL",
    "ROLE_HPC",
    "ROLE_OPTIMIZATION",
    "ROLE_STORAGE",
    "capacity_workload",
    "chain_workload",
    "bushy_workload",
    "formation_workload",
    "make_portfolio",
    "overlapping_ontologies",
    # open-world scenario engine
    "AgentStrategy",
    "MarketConfig",
    "Trader",
    "run_market_round",
    "Population",
    "seat_name",
    "ScenarioConfig",
    "ScenarioReport",
    "RoundState",
    "run_scenario",
    # exemplar experiments
    "MatrixConfig",
    "MatrixReport",
    "two_agent_matrix",
    "ScarcityConfig",
    "ScarcityReport",
    "scarcity_market",
    "IsolationConfig",
    "IsolationReport",
    "cheater_isolation",
    # workload runner
    "WorkloadPreset",
    "WorkloadRunner",
]


# -- configuration trio --------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class PerfConfig:
    """Performance-layer knobs (PR 2's caches), applied explicitly."""

    #: Master switch for the process-wide XML/crypto caches.
    caches_enabled: bool = True
    #: Capacity of sequence caches built by :meth:`sequence_cache`.
    sequence_cache_capacity: int = 1024

    def apply(self) -> None:
        """Apply the cache switch process-wide."""
        set_caches_enabled(self.caches_enabled)

    def sequence_cache(self) -> SequenceCache:
        """A fresh trust-sequence cache sized by this config."""
        return SequenceCache(capacity=self.sequence_cache_capacity)


@dataclass(frozen=True, kw_only=True)
class ResilienceConfig:
    """Retry / circuit-breaker / deadline policy in one flat object.

    ``wrap``/``awrap`` build the sync and asyncio client-side
    decorators (both drive the same sans-IO
    :func:`~repro.services.resilience_core.resilience_call` core);
    ``hedge`` and ``health`` carry the cluster-side tail-latency
    policies for :meth:`router_kwargs` — pass them through when
    deploying an :class:`AioShardedTNService` (hedged starts) or any
    :class:`ShardedTNService` (health-aware routing).
    """

    max_attempts: int = 4
    base_backoff_ms: float = 100.0
    multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter_ms: float = 50.0
    jitter_seed: int = 0
    failure_threshold: int = 5
    reset_timeout_ms: float = 5000.0
    deadline_ms: Optional[float] = 30_000.0
    #: Hedged-start policy for :class:`AioShardedTNService`; ``None``
    #: disables hedging.
    hedge: Optional[HedgePolicy] = None
    #: Shard ejection/probing policy for the cluster routers; ``None``
    #: keeps legacy route-by-hash behavior.
    health: Optional[HealthPolicy] = None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_backoff_ms=self.base_backoff_ms,
            multiplier=self.multiplier,
            max_backoff_ms=self.max_backoff_ms,
            jitter_ms=self.jitter_ms,
            jitter_seed=self.jitter_seed,
        )

    def breaker_policy(self) -> CircuitBreakerPolicy:
        return CircuitBreakerPolicy(
            failure_threshold=self.failure_threshold,
            reset_timeout_ms=self.reset_timeout_ms,
        )

    def wrap(self, inner) -> ResilientTransport:
        """Decorate ``inner`` with a :class:`ResilientTransport`."""
        return ResilientTransport(
            inner=inner,
            retry=self.retry_policy(),
            breaker_policy=self.breaker_policy(),
            deadline_ms=self.deadline_ms,
        )

    def awrap(self, inner) -> AioResilientTransport:
        """Decorate an async transport with the asyncio driver.

        Same policies, same stats, same sans-IO decision core as
        :meth:`wrap` — calls go through ``await transport.acall(...)``.
        """
        return AioResilientTransport(
            inner=inner,
            retry=self.retry_policy(),
            breaker_policy=self.breaker_policy(),
            deadline_ms=self.deadline_ms,
        )

    def router_kwargs(self) -> dict:
        """Cluster-router keyword arguments carried by this config.

        ``AioShardedTNService(..., **config.router_kwargs())`` applies
        both policies; the sync :class:`ShardedTNService` takes only
        ``health`` (hedging needs the async race), so pass
        ``health=config.health`` there instead.
        """
        kwargs: dict = {"health": self.health}
        if self.hedge is not None:
            kwargs["hedge"] = self.hedge
        return kwargs


@dataclass(frozen=True, kw_only=True)
class TrustConfig:
    """Nonmonotonic-trust knobs: the retraction bus, reputation decay,
    and the strategy-escalation policy, in one flat object.

    The retraction path runs through a :class:`~repro.trust.TrustBus`
    over a :class:`RevocationRegistry`; ``TrustConfig`` either wraps
    the bus you pass (``bus=``) or lazily adopts the process-wide
    :func:`~repro.trust.default_bus`.  Decay settings mirror
    :class:`ScenarioConfig` (``decay_half_life`` in rounds, scores
    drifting toward ``decay_target``) so one config can drive both a
    :class:`Negotiator` and a scenario run.
    """

    #: The retraction bus; ``None`` adopts :func:`repro.trust.default_bus`.
    bus: Optional[TrustBus] = None
    #: Rounds for half the distance to ``decay_target`` to disappear;
    #: ``None`` disables time-based reputation decay.
    decay_half_life: Optional[float] = None
    #: Where decayed scores drift (the newcomer default: trust can be
    #: earned back; below the isolation threshold: trust erodes).
    decay_target: float = INITIAL_SCORE
    #: Escalate a party's strategy to SUSPICIOUS when a retraction has
    #: touched its counterparty (gated on partial-hiding support).
    escalate_on_retraction: bool = True

    def __post_init__(self) -> None:
        if self.decay_half_life is not None and self.decay_half_life <= 0:
            raise ValueError(
                f"decay_half_life must be positive, got {self.decay_half_life}"
            )
        if not 0.0 <= self.decay_target <= 1.0:
            raise ValueError(
                f"decay_target must be in [0, 1], got {self.decay_target}"
            )

    def trust_bus(self) -> TrustBus:
        """The configured bus, or the process-wide default."""
        return self.bus if self.bus is not None else default_bus()

    @property
    def registry(self) -> RevocationRegistry:
        """The revocation registry behind the bus."""
        return self.trust_bus().registry

    def retract(self, event: TrustEvent) -> RetractionReceipt:
        """Retract ``event`` through the configured bus."""
        return self.trust_bus().retract(event)

    def apply_escalation(
        self, agent: TrustXAgent, *, counterparty: str
    ) -> Strategy:
        """Escalate ``agent``'s strategy if a retraction touched
        ``counterparty``, and return the (possibly unchanged) strategy.

        Escalation only fires for parties holding selective-disclosure
        forms — :func:`escalated_strategy` keeps plain-X.509 parties on
        their current strategy (Section 6.3).
        """
        if not self.escalate_on_retraction:
            return agent.strategy
        if not self.trust_bus().touched(counterparty):
            return agent.strategy
        escalated = escalated_strategy(
            agent.strategy, supports_partial_hiding=bool(agent.selective)
        )
        if escalated is not agent.strategy:
            agent.strategy = escalated
            obs.count("trust.strategy_escalations")
        return escalated


# -- Negotiator ----------------------------------------------------------------------


@dataclass(kw_only=True)
class Negotiator:
    """One-call trust negotiation, optionally with sequence-cache replay.

    A thin, keyword-only front over :class:`NegotiationEngine` (and
    :class:`CachingNegotiator` when a cache is attached)::

        negotiator = Negotiator(cache=SequenceCache())
        result = negotiator.negotiate(requester, controller, "RES")
    """

    cache: Optional[SequenceCache] = None
    max_depth: int = 16
    max_nodes: int = 512
    view_limit: int = 64
    view_selection: str = "first"
    #: Nonmonotonic-trust wiring; with ``escalate_on_retraction`` a
    #: party whose counterparty was touched by a retraction negotiates
    #: suspiciously from then on.
    trust: Optional[TrustConfig] = None

    def _engine_options(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "max_nodes": self.max_nodes,
            "view_limit": self.view_limit,
            "view_selection": self.view_selection,
        }

    def negotiate(
        self,
        requester: TrustXAgent,
        controller: TrustXAgent,
        resource: str,
        *,
        at: Optional[datetime] = None,
    ) -> NegotiationResult:
        if self.trust is not None:
            self.trust.apply_escalation(requester, counterparty=controller.name)
            self.trust.apply_escalation(controller, counterparty=requester.name)
        if self.cache is not None:
            return CachingNegotiator(self.cache).negotiate(
                requester, controller, resource, at=at,
                **self._engine_options(),
            )
        return NegotiationEngine(
            requester, controller, **self._engine_options()
        ).run(resource, at=at)


# -- VOToolkit -----------------------------------------------------------------------


class VOToolkit:
    """Builds the simulated SOA stack and hands out the toolkit editions.

    Keyword-only construction assembles the transport decorator chain
    bottom-up — ``SimTransport`` (or a supplied base), then an optional
    :class:`FaultInjector` (``fault_plan=``), then an optional
    :class:`ResilientTransport` (``resilience=``)::

        toolkit = VOToolkit(
            latency=LatencyModel(),
            fault_plan=FaultPlan.seeded(3, calls=40),
            resilience=ResilienceConfig(max_attempts=3),
        )
        edition = toolkit.initiator_edition(initiator)
        app = toolkit.member_edition(member)
    """

    def __init__(
        self,
        *,
        latency: Optional[LatencyModel] = None,
        transport: Optional[SimTransport] = None,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        hardening: Optional[HardeningConfig] = None,
        trust: Optional[TrustConfig] = None,
        host_url: str = "urn:vo:host",
    ) -> None:
        if transport is None:
            transport = SimTransport(model=latency or LatencyModel())
        elif latency is not None:
            raise ValueError(
                "pass either latency= or transport=, not both"
            )
        #: The raw simulated transport at the bottom of the stack.
        self.base_transport = transport
        stack = transport
        #: The fault injector, when a plan was supplied.
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(inner=stack, plan=fault_plan)
            stack = self.fault_injector
        #: The resilient decorator, when a config was supplied.
        self.resilient_transport: Optional[ResilientTransport] = None
        if resilience is not None:
            self.resilient_transport = resilience.wrap(stack)
            stack = self.resilient_transport
        #: The top of the decorator chain — what every edition calls.
        self.transport = stack
        #: Server-side hardening applied to the host now and to every
        #: TN service an initiator edition deploys later.
        self.hardening = hardening
        #: Nonmonotonic-trust wiring, when supplied.
        self.trust = trust
        #: The retraction bus applications retract through; ``None``
        #: unless a :class:`TrustConfig` was supplied.
        self.trust_bus: Optional[TrustBus] = (
            trust.trust_bus() if trust is not None else None
        )
        self.host = HostEdition(stack, url=host_url, hardening=hardening)

    @property
    def clock(self) -> SimClock:
        return self.base_transport.base_clock

    def initiator_edition(self, initiator: VOInitiator) -> InitiatorEdition:
        """The Initiator Edition bound to this toolkit's stack."""
        return InitiatorEdition(
            initiator, self.transport, self.host, hardening=self.hardening
        )

    def member_edition(
        self, member: VOMember, register: bool = True
    ) -> MemberEdition:
        """A Member Edition app (registered with the host by default)."""
        app = MemberEdition(
            member=member,
            transport=self.transport,
            host_url=self.host.url,
        )
        if register:
            app.register()
        return app
