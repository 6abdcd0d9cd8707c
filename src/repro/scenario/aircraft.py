"""The Aircraft Optimization VO (paper Section 3, Fig. 1).

An aircraft company — prime contractor for a low-emission civil
aircraft — initiates a VO of smaller companies:

- **AircraftCo** — the prime contractor and VO Initiator;
- **AerospaceCo** — provides the Design Partner Web Portal;
- **OptimCo** — the scientific/engineering consultancy with the Design
  Optimization Partner Service;
- **HPCServiceCo** — the High Performance Computing Partner Service;
- **StorageCo** — the Storage Partner Service.

:func:`build_aircraft_scenario` assembles everything the lifecycle
needs: credential authorities and issued credentials, per-party
disclosure policies (including the exact policies of the paper's
examples), the shared aerospace ontology, the service registry entries,
the collaboration contract, and the simulated SOA (host, initiator
edition, member editions, TN Web service).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.credentials.authority import CredentialAuthority
from repro.credentials.profile import XProfile
from repro.credentials.revocation import RevocationRegistry
from repro.credentials.selective import SelectiveCredential
from repro.credentials.sensitivity import Sensitivity
from repro.credentials.validation import CredentialValidator
from repro.crypto.keys import KeyPair, Keyring
from repro.negotiation.agent import TrustXAgent
from repro.ontology.builtin import aerospace_reference_ontology
from repro.ontology.mapping import ConceptMapper
from repro.policy.policybase import PolicyBase
from repro.services.transport import LatencyModel, SimTransport
from repro.services.vo_toolkit import HostEdition, InitiatorEdition, MemberEdition
from repro.trust import TrustBus
from repro.vo.contract import Contract
from repro.vo.initiator import VOInitiator
from repro.vo.member import VOMember
from repro.vo.registry import ServiceDescription
from repro.vo.roles import Role

__all__ = ["AircraftScenario", "build_aircraft_scenario", "CONTRACT_DATE"]

#: When credentials were issued and the contract signed.
CONTRACT_DATE = datetime(2010, 3, 1, 12, 0, 0)
_ISSUE_DATE = datetime(2009, 10, 26, 21, 32, 52)  # Fig. 6's notBefore

ROLE_DESIGN_PORTAL = "DesignWebPortal"
ROLE_OPTIMIZATION = "DesignOptimization"
ROLE_HPC = "HPCService"
ROLE_STORAGE = "StorageService"


@dataclass
class AircraftScenario:
    """Everything the Aircraft Optimization VO lifecycle needs."""

    transport: SimTransport
    host: HostEdition
    initiator: VOInitiator
    initiator_edition: InitiatorEdition
    members: dict[str, VOMember]
    member_apps: dict[str, MemberEdition]
    authorities: dict[str, CredentialAuthority]
    revocations: RevocationRegistry
    contract: Contract
    keyring_template: Keyring = field(repr=False, default=None)
    #: The retraction bus over ``revocations`` — how scenario tests and
    #: applications publish CRLs and revoke credentials mid-lifecycle.
    bus: TrustBus = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.bus is None:
            self.bus = TrustBus(registry=self.revocations)

    @property
    def clock(self):
        return self.transport.clock

    def member(self, name: str) -> VOMember:
        return self.members[name]

    def app(self, name: str) -> MemberEdition:
        return self.member_apps[name]

    def authority(self, name: str) -> CredentialAuthority:
        return self.authorities[name]


def _keyring(authorities: dict[str, CredentialAuthority]) -> Keyring:
    ring = Keyring()
    for authority in authorities.values():
        ring.add(authority.name, authority.public_key)
    return ring


def build_contract() -> Contract:
    """The Aircraft Optimization collaboration contract.

    Role requirements quote the paper where it gives them: the Design
    Web Portal "should prove that the design processes ... are
    compliant with the UNI EN ISO 9000 regulations" via the policy
    ``VoMembership <- WebDesignerQuality, {UNI EN ISO 9000}``.
    """
    return Contract(
        vo_name="AircraftOptimizationVO",
        business_goal=(
            "Optimize a civil-aircraft wing design for low emissions and "
            "efficient fuel consumption"
        ),
        roles=(
            Role(
                name=ROLE_DESIGN_PORTAL,
                description="Engineering web portal hosting the product "
                "design database",
                requirements=(
                    "WebDesignerQuality, {UNI EN ISO 9000}",
                ),
            ),
            Role(
                name=ROLE_OPTIMIZATION,
                description="Advanced aerospace design-optimization service",
                requirements=(
                    "OptimizationCapability(domain='aerospace')",
                ),
            ),
            Role(
                name=ROLE_HPC,
                description="High Performance Computing service for "
                "numerical flow simulations",
                requirements=(
                    "HPC QoS Certificate(qosLevel='gold')",
                    "HPC QoS Certificate(gflops>=100)",
                ),
                min_reputation=0.3,
            ),
            Role(
                name=ROLE_STORAGE,
                description="Storage service for industrial engineering "
                "analysis data",
                requirements=(
                    "Storage QoS Certificate(capacityTB>=20)",
                ),
            ),
        ),
        collaboration_rules=(
            "Design data may only be shared with VO members",
            "Numerical results must be stored at the Storage Partner",
            "Members must keep quality certifications valid for the VO "
            "duration",
        ),
        created_at=CONTRACT_DATE,
    )


def build_aircraft_scenario(
    latency: Optional[LatencyModel] = None,
    key_bits: int = 512,
) -> AircraftScenario:
    """Assemble the full scenario on a fresh simulated SOA."""
    transport = SimTransport(model=latency or LatencyModel())
    revocations = RevocationRegistry()

    authorities = {
        name: CredentialAuthority.create(name, key_bits=key_bits)
        for name in (
            "INFN",
            "AmericanAircraftAssociation",
            "BBB",
            "PrivacyBoard",
            "GridCA",
            "VOHistoryCA",
        )
    }
    bus = TrustBus(registry=revocations)
    for authority in authorities.values():
        bus.publish_crl(authority.crl)
    infn = authorities["INFN"]
    aaa = authorities["AmericanAircraftAssociation"]
    bbb = authorities["BBB"]
    privacy = authorities["PrivacyBoard"]
    grid = authorities["GridCA"]
    history = authorities["VOHistoryCA"]

    # ------------------------------------------------------------- parties --
    def issue(ca, cred_type, subject, key, attrs, sensitivity=Sensitivity.LOW):
        return ca.issue(
            cred_type, subject, key, attrs, _ISSUE_DATE, days=730,
            sensitivity=sensitivity,
        )

    # AircraftCo: the prime contractor / VO Initiator.
    aircraft_key = KeyPair.generate(key_bits)
    aircraft_creds = [
        issue(aaa, "AAA Member", "AircraftCo", aircraft_key.fingerprint,
              {"association": "American Aircraft Association",
               "memberSince": 1998}),
        issue(bbb, "BalanceSheet", "AircraftCo", aircraft_key.fingerprint,
              {"Issuer": "BBB", "fiscalYear": 2009}),
        issue(aaa, "PrimeContractorLicense", "AircraftCo",
              aircraft_key.fingerprint, {"sector": "civil aviation"},
              Sensitivity.MEDIUM),
    ]
    aircraft_profile = XProfile.of("AircraftCo", aircraft_creds)
    aircraft_agent = TrustXAgent(
        name="AircraftCo",
        profile=aircraft_profile,
        # The Initiator freely answers the mutual checks of the paper's
        # formation example: the AAA accreditation and balance sheet.
        policies=PolicyBase.from_dsl("AircraftCo", """
AAA Member <- DELIV
BalanceSheet <- DELIV
PrimeContractorLicense <- AAA Member
"""),
        keypair=aircraft_key,
        validator=CredentialValidator(_keyring(authorities), revocations),
        mapper=ConceptMapper(aerospace_reference_ontology()),
    )
    initiator = VOInitiator(name="AircraftCo", agent=aircraft_agent)

    # AerospaceCo: Design Partner Web Portal.
    aero_key = KeyPair.generate(key_bits)
    aero_creds = [
        issue(infn, "ISO 9000 Certified", "AerospaceCo", aero_key.fingerprint,
              {"QualityRegulation": "UNI EN ISO 9000"}, Sensitivity.MEDIUM),
        issue(infn, "ISO 002 Certification", "AerospaceCo",
              aero_key.fingerprint, {"scope": "design processes"},
              Sensitivity.MEDIUM),
        issue(aaa, "AAA Member", "AerospaceCo", aero_key.fingerprint,
              {"association": "American Aircraft Association",
               "memberSince": 2003}),
        issue(privacy, "PrivacySealCertificate", "AerospaceCo",
              aero_key.fingerprint, {"regulation": "EU-DPD"}),
    ]
    aero_agent = TrustXAgent(
        name="AerospaceCo",
        profile=XProfile.of("AerospaceCo", aero_creds),
        # Paper examples: the quality certificate is released against
        # the AAA accreditation or a recent balance sheet; the ISO 002
        # certification (operation phase) against a privacy proof.
        policies=PolicyBase.from_dsl("AerospaceCo", """
ISO 9000 Certified <- AAA Member
ISO 9000 Certified <- BalanceSheet
ISO 002 Certification <- PrivacySealCertificate
PrivacySealCertificate <- DELIV
AAA Member <- DELIV
"""),
        keypair=aero_key,
        validator=CredentialValidator(_keyring(authorities), revocations),
        mapper=ConceptMapper(aerospace_reference_ontology()),
    )
    aerospace = VOMember(
        name="AerospaceCo",
        agent=aero_agent,
        services=[
            ServiceDescription.of(
                "AerospaceCo", "DesignPartnerWebPortal",
                roles=[ROLE_DESIGN_PORTAL],
                capabilities={"designDatabase": "industry-standard",
                              "interface": "web-portal"},
                quality=0.9,
            )
        ],
    )

    # OptimCo: Design Optimization Partner Service.
    optim_key = KeyPair.generate(key_bits)
    optim_creds = [
        issue(infn, "OptimizationCapability", "OptimCo",
              optim_key.fingerprint,
              {"domain": "aerospace", "method": "adjoint-gradient"},
              Sensitivity.MEDIUM),
        issue(aaa, "AAA Member", "OptimCo", optim_key.fingerprint,
              {"association": "American Aircraft Association",
               "memberSince": 2005}),
        issue(privacy, "PrivacySealCertificate", "OptimCo",
              optim_key.fingerprint, {"regulation": "EU-DPD"}),
    ]
    optim_agent = TrustXAgent(
        name="OptimCo",
        profile=XProfile.of("OptimCo", optim_creds),
        policies=PolicyBase.from_dsl("OptimCo", """
OptimizationCapability <- AAA Member
PrivacySealCertificate <- PrivacySealCertificate
AAA Member <- DELIV
"""),
        keypair=optim_key,
        validator=CredentialValidator(_keyring(authorities), revocations),
        mapper=ConceptMapper(aerospace_reference_ontology()),
    )
    optim = VOMember(
        name="OptimCo",
        agent=optim_agent,
        services=[
            ServiceDescription.of(
                "OptimCo", "DesignOptimizationService",
                roles=[ROLE_OPTIMIZATION],
                capabilities={"optimization": "aerospace",
                              "control": "design-optimization-control-file"},
                quality=0.85,
            )
        ],
    )

    # HPCServiceCo: numerical simulation provider.
    hpc_key = KeyPair.generate(key_bits)
    hpc_creds = [
        issue(grid, "HPC QoS Certificate", "HPCServiceCo",
              hpc_key.fingerprint, {"qosLevel": "gold", "gflops": 120}),
        issue(history, "VO Participation Ticket", "HPCServiceCo",
              hpc_key.fingerprint,
              {"voName": "TurbineDesignVO", "outcome": "fulfilled"}),
    ]
    hpc_agent = TrustXAgent(
        name="HPCServiceCo",
        profile=XProfile.of("HPCServiceCo", hpc_creds),
        policies=PolicyBase.from_dsl("HPCServiceCo", """
HPC QoS Certificate <- DELIV
VO Participation Ticket <- DELIV
"""),
        keypair=hpc_key,
        validator=CredentialValidator(_keyring(authorities), revocations),
        mapper=ConceptMapper(aerospace_reference_ontology()),
    )
    hpc = VOMember(
        name="HPCServiceCo",
        agent=hpc_agent,
        services=[
            ServiceDescription.of(
                "HPCServiceCo", "HPCPartnerService",
                roles=[ROLE_HPC],
                capabilities={"simulation": "flow-solution",
                              "qos": "gold"},
                quality=0.8,
            )
        ],
    )

    # StorageCo: engineering-data storage provider.
    storage_key = KeyPair.generate(key_bits)
    storage_creds = [
        issue(grid, "Storage QoS Certificate", "StorageCo",
              storage_key.fingerprint,
              {"qosLevel": "silver", "capacityTB": 50}),
    ]
    storage_agent = TrustXAgent(
        name="StorageCo",
        profile=XProfile.of("StorageCo", storage_creds),
        policies=PolicyBase.from_dsl("StorageCo", """
Storage QoS Certificate <- DELIV
"""),
        keypair=storage_key,
        validator=CredentialValidator(_keyring(authorities), revocations),
        mapper=ConceptMapper(aerospace_reference_ontology()),
    )
    storage = VOMember(
        name="StorageCo",
        agent=storage_agent,
        services=[
            ServiceDescription.of(
                "StorageCo", "StoragePartnerService",
                roles=[ROLE_STORAGE],
                capabilities={"storage": "engineering-analysis-data",
                              "capacityTB": "50"},
                quality=0.75,
            )
        ],
    )

    members = {
        member.name: member for member in (aerospace, optim, hpc, storage)
    }
    # Everyone (members and the Initiator itself, when receiving back
    # tickets it minted) trusts the Initiator's key directly, so
    # self-issued VO Descriptors and VO Participation Tickets verify
    # (paper §8 extension and §5.1 tickets).
    for agent in [aircraft_agent] + [m.agent for m in members.values()]:
        agent.validator.keyring.add("AircraftCo", aircraft_key.public)

    # ---------------------------------------------------------------- SOA --
    host = HostEdition(transport)
    member_apps = {
        name: MemberEdition(member=member, transport=transport)
        for name, member in members.items()
    }
    for app in member_apps.values():
        app.register()
    initiator_edition = InitiatorEdition(initiator, transport, host)

    return AircraftScenario(
        transport=transport,
        host=host,
        initiator=initiator,
        initiator_edition=initiator_edition,
        members=members,
        member_apps=member_apps,
        authorities=authorities,
        revocations=revocations,
        contract=build_contract(),
        keyring_template=_keyring(authorities),
        bus=bus,
    )


def build_fig1_workflow(vo) -> "OperationWorkflow":
    """The operation-phase workflow of paper Fig. 1.

    The engineer selects and optimizes a wing design; the optimization
    partner fetches the design-control file from the portal (after
    re-verifying its certification — the TN of Fig. 1's dashed arrow
    3a); the HPC service computes flow solutions whose results land at
    the storage partner; "Steps 5 and 6 are executed repeatedly until
    the target result is achieved".
    """
    from repro.vo.workflow import OperationWorkflow, WorkflowStep

    steps = (
        WorkflowStep(
            name="select-wing-design",
            source_role="Initiator",
            target_role=ROLE_DESIGN_PORTAL,
            operation="select wing design from the product database",
        ),
        WorkflowStep(
            name="activate-optimization",
            source_role="Initiator",
            target_role=ROLE_OPTIMIZATION,
            operation="activate the design-optimization service",
        ),
        WorkflowStep(
            name="fetch-control-file",
            source_role=ROLE_OPTIMIZATION,
            target_role=ROLE_DESIGN_PORTAL,
            operation="access the design-optimization control file",
            protected_resource="ISO 002 Certification",
        ),
        WorkflowStep(
            name="compute-flow-solution",
            source_role=ROLE_OPTIMIZATION,
            target_role=ROLE_HPC,
            operation="compute wing profile and flow solution",
            iterative=True,
        ),
        WorkflowStep(
            name="store-lift-drag-values",
            source_role=ROLE_HPC,
            target_role=ROLE_STORAGE,
            operation="store new wing lift and drag values",
            iterative=True,
        ),
        WorkflowStep(
            name="compute-revised-design",
            source_role=ROLE_OPTIMIZATION,
            target_role=ROLE_DESIGN_PORTAL,
            operation="compute the revised design",
        ),
    )
    return OperationWorkflow(vo=vo, steps=steps)


def enable_selective_disclosure(scenario: AircraftScenario) -> None:
    """Attach selective-disclosure forms to every member credential so
    the suspicious strategies can run (paper Section 6.3 extension)."""
    agents = [scenario.initiator.agent] + [
        member.agent for member in scenario.members.values()
    ]
    for agent in agents:
        for credential in agent.profile:
            authority = scenario.authorities[credential.issuer]
            agent.add_selective(
                SelectiveCredential.issue_from(
                    credential, authority.keypair.private
                )
            )
