"""Exception hierarchy and error-code taxonomy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.

Machine-readable discrimination goes through :class:`ErrorCode`: one
enum naming every way the service boundary can say "no".  Exceptions
carry their code as :attr:`ReproError.error_code` (settable per
instance, defaulting per class), so a peer receiving a rejection — a
guard violation, an overload shed, a replayed request — can branch on
the code instead of parsing ad-hoc failure strings.  The protocol
guard (:mod:`repro.hardening.guard`), the admission controller
(:mod:`repro.hardening.admission`), and the negotiation-level
:class:`~repro.negotiation.messages.FailureNotice` all draw from this
single taxonomy.
"""

from __future__ import annotations

from enum import Enum
from typing import ClassVar, Optional


class ErrorCode(Enum):
    """Typed codes for every service-boundary rejection and failure.

    Grouped by origin; the value strings are wire-stable (they appear
    in SOAP faults, event logs, and soak reports).
    """

    # -- protocol-guard rejections (repro.hardening.guard) ------------------
    #: The message could not be parsed at all (not a mapping, broken
    #: XML, unreadable fields).
    MALFORMED_MESSAGE = "malformed_message"
    #: Parsed, but violates the operation's schema (unknown or missing
    #: fields, wrong types, unparseable enum values).
    SCHEMA_VIOLATION = "schema_violation"
    #: A field or document exceeds the configured size budget.
    OVERSIZED_PAYLOAD = "oversized_payload"
    #: An embedded XML document nests deeper (or fans out wider) than
    #: the configured structural limits.
    DEPTH_EXCEEDED = "depth_exceeded"
    #: The operation name is not part of the service contract.
    UNKNOWN_OPERATION = "unknown_operation"
    #: The negotiation id does not name a live session.
    UNKNOWN_SESSION = "unknown_session"
    #: A sequence number arrived out of order (stale, skipped ahead,
    #: or reordered in transit).
    OUT_OF_ORDER = "out_of_order"
    #: A phase operation arrived before its prerequisite phase ran.
    PHASE_SKIP = "phase_skip"
    #: A new message arrived for a session that already terminated.
    POST_TERMINAL = "post_terminal"
    #: A retry reused an idempotency token (requestId / clientSeq) with
    #: a payload that differs from the recorded original.
    REPLAY_MISMATCH = "replay_mismatch"

    # -- admission control (repro.hardening.admission) ----------------------
    #: The service shed the request under load; retry after the hint.
    OVERLOADED = "overloaded"
    #: The client's propagated deadline had already expired when the
    #: request reached the service; the work was shed unevaluated.
    DEADLINE_EXPIRED = "deadline_expired"

    # -- transport / service lifecycle --------------------------------------
    #: The endpoint did not answer (lost message, crash, open circuit).
    UNREACHABLE = "unreachable"
    #: All retry attempts for a call were exhausted.
    RETRY_EXHAUSTED = "retry_exhausted"
    #: The per-endpoint circuit breaker is open.
    CIRCUIT_OPEN = "circuit_open"
    #: The service's database tier could not be reached.
    DB_UNAVAILABLE = "db_unavailable"
    #: The service instance was closed or crashed.
    SERVICE_CLOSED = "service_closed"
    #: A non-terminal session outlived its TTL and was expired.
    SESSION_EXPIRED = "session_expired"
    #: The service caught an unexpected exception; nothing leaked.
    INTERNAL = "internal"

    # -- negotiation verdicts (FailureNotice) --------------------------------
    #: Generic negotiation failure (see the FailureReason taxonomy for
    #: the protocol-level detail).
    NEGOTIATION_FAILED = "negotiation_failed"
    #: A disclosed credential failed verification.
    CREDENTIAL_REJECTED = "credential_rejected"
    #: The policy phase proved no trust sequence can exist.
    NO_TRUST_SEQUENCE = "no_trust_sequence"

    # -- trust retraction (repro.trust) --------------------------------------
    #: An already-accepted credential was retracted mid-negotiation
    #: (revocation event, negative credential) and the re-verification
    #: on the next turn failed.
    CREDENTIAL_REVOKED = "credential_revoked"
    #: A revocation list was offered for distribution without a valid
    #: issuer signature (``RevocationList.revoke`` drops the signature;
    #: the list must be re-signed before it can be published).
    UNSIGNED_REVOCATION_LIST = "unsigned_revocation_list"

    @classmethod
    def parse(cls, text: str) -> "ErrorCode":
        normalized = text.strip().lower()
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown error code {text!r}")


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``error_code`` is the machine-readable :class:`ErrorCode`: passed
    per instance (keyword-only) or inherited from the class-level
    :attr:`default_code`; ``None`` for errors predating the taxonomy.
    """

    default_code: ClassVar[Optional[ErrorCode]] = None

    def __init__(self, *args, error_code: Optional[ErrorCode] = None) -> None:
        super().__init__(*args)
        self.error_code = (
            error_code if error_code is not None else type(self).default_code
        )


# ---------------------------------------------------------------------------
# XML / serialization layer
# ---------------------------------------------------------------------------

class XMLError(ReproError):
    """Malformed or unserializable XML content."""

    default_code = ErrorCode.MALFORMED_MESSAGE


class XPathError(XMLError):
    """Invalid XPath-subset expression or evaluation failure."""


# ---------------------------------------------------------------------------
# Cryptographic substrate
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyError_(CryptoError):
    """Invalid, malformed, or mismatched key material."""


class SignatureError(CryptoError):
    """Signature creation or verification failed."""


# ---------------------------------------------------------------------------
# Credential layer
# ---------------------------------------------------------------------------

class CredentialError(ReproError):
    """Base class for credential-related failures."""


class CredentialFormatError(CredentialError):
    """A credential document does not conform to the X-TNL schema."""


class CredentialExpiredError(CredentialError):
    """The credential's validity window does not cover the check time."""


class CredentialRevokedError(CredentialError):
    """The credential appears on its issuer's revocation list."""

    default_code = ErrorCode.CREDENTIAL_REVOKED


class CredentialOwnershipError(CredentialError):
    """Proof of ownership of the credential's subject key failed."""


class IssuanceError(CredentialError):
    """A credential authority refused or failed to issue a credential."""


class SelectiveDisclosureError(CredentialError):
    """Hash-based selective disclosure verification failed."""


# ---------------------------------------------------------------------------
# Policy layer
# ---------------------------------------------------------------------------

class PolicyError(ReproError):
    """Base class for disclosure-policy failures."""


class PolicyParseError(PolicyError):
    """The policy DSL or XML form could not be parsed."""


class ConditionError(PolicyError):
    """A policy condition is malformed or cannot be evaluated."""


# ---------------------------------------------------------------------------
# Ontology layer
# ---------------------------------------------------------------------------

class OntologyError(ReproError):
    """Base class for ontology failures."""


class ConceptNotFoundError(OntologyError):
    """A referenced concept does not exist in the ontology."""


class MappingError(OntologyError):
    """Concept-to-credential mapping failed (Algorithm 1)."""


# ---------------------------------------------------------------------------
# Negotiation layer
# ---------------------------------------------------------------------------

class NegotiationError(ReproError):
    """Base class for trust-negotiation failures."""


class StrategyError(NegotiationError):
    """A strategy constraint was violated (e.g. X.509 with suspicious)."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage failures."""


class DocumentNotFoundError(StorageError):
    """No document matched the requested key or query."""


class DatabaseUnavailableError(StorageError):
    """The (simulated) database connection could not be opened.

    Transient by nature — the resilience layer treats it as retryable,
    mirroring the prototype's Oracle connection failures."""

    default_code = ErrorCode.DB_UNAVAILABLE


# ---------------------------------------------------------------------------
# Services layer
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for simulated web-service failures."""


class TransportError(ServiceError):
    """The simulated transport could not deliver a message."""

    default_code = ErrorCode.UNREACHABLE


class SessionError(ServiceError):
    """Unknown or invalid negotiation session id."""

    default_code = ErrorCode.UNKNOWN_SESSION


class TimeoutError(TransportError):  # noqa: A001 - deliberate shadow
    """A call exceeded its deadline: the request or the response was
    lost, or the endpoint is down.  Shadows the builtin on purpose
    (as :class:`asyncio.TimeoutError` does); always retryable."""


class CircuitOpenError(ServiceError):
    """The per-endpoint circuit breaker is open: the endpoint failed
    repeatedly and calls are being rejected locally until the breaker's
    reset timeout elapses (then a half-open probe is allowed)."""

    default_code = ErrorCode.CIRCUIT_OPEN


class RetryExhaustedError(ServiceError):
    """All retry attempts for a call failed.

    Carries the number of ``attempts`` made and the ``last_error`` that
    caused the final failure."""

    default_code = ErrorCode.RETRY_EXHAUSTED

    def __init__(self, message: str, attempts: int = 0,
                 last_error: "Exception | None" = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class GuardRejection(ServiceError):
    """The protocol guard rejected an inbound message before it reached
    the negotiation engine.  The specific violation is carried in
    ``error_code`` (schema violation, oversized payload, out-of-order
    sequence, post-terminal message, ...)."""

    default_code = ErrorCode.MALFORMED_MESSAGE


class OverloadError(ServiceError):
    """Admission control shed the request: the service's bounded work
    queue is over its priority threshold.  ``retry_after_ms`` is the
    backpressure hint — the earliest simulated time delta at which a
    retry has a chance of being admitted.  :class:`ResilientTransport`
    honors it instead of hammering the saturated peer."""

    default_code = ErrorCode.OVERLOADED

    def __init__(self, message: str, retry_after_ms: float = 0.0,
                 error_code: "ErrorCode | None" = None) -> None:
        super().__init__(message, error_code=error_code)
        self.retry_after_ms = retry_after_ms


class DeadlineExpiredError(ServiceError):
    """The client-propagated deadline had already passed when the
    request reached the service, so the work was shed unevaluated."""

    default_code = ErrorCode.DEADLINE_EXPIRED


class InternalServiceError(ServiceError):
    """The service caught an unexpected exception at its boundary and
    translated it instead of leaking a stack trace to the peer."""

    default_code = ErrorCode.INTERNAL


# ---------------------------------------------------------------------------
# VO layer
# ---------------------------------------------------------------------------

class VOError(ReproError):
    """Base class for Virtual Organization failures."""


class LifecycleError(VOError):
    """An operation was attempted in the wrong lifecycle phase."""


class ContractError(VOError):
    """Contract construction or validation failed."""


class InvitationError(VOError):
    """Invitation handling failed (unknown invite, double response, ...)."""


class MembershipError(VOError):
    """Membership operation failed (unknown member, role conflicts, ...)."""
