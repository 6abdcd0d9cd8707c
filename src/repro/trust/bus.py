"""The retraction-event bus: nonmonotonic trust, end to end.

Trust established by the Trust-X protocol is *monotone by default*: a
signature verdict, a cached trust sequence, a reputation score — each
only ever accumulates.  Nonmonotonic trust management (Czenko et al.)
requires the opposite capability: a fact can be *retracted* and every
derived artifact must follow, synchronously, before the next
negotiation turn can rely on it.

:class:`TrustEvent` names the retraction (a credential revoked, a CRL
published, a negative credential asserted, a reputation decayed below
threshold) and :meth:`TrustBus.retract` propagates it:

1. **Revocation registry** — a carried CRL is installed (signed and
   version-checked; unsigned lists are rejected with
   :data:`~repro.errors.ErrorCode.UNSIGNED_REVOCATION_LIST`).
2. **Signature cache** — exactly the ``(issuer, serial)``-tagged
   verdicts the event contradicts are evicted from
   :data:`repro.perf.SIGNATURE_CACHE`; other serials of the same
   issuer keep their entries (precision the old whole-issuer flush
   lacked).
3. **Sequence caches** — every registered
   :class:`~repro.negotiation.cache.SequenceCache` drops the cached
   trust sequences whose provenance includes a retracted credential.
4. **Epoch** — the process-wide :func:`trust_epoch` advances, which an
   in-flight :class:`~repro.negotiation.core.NegotiationCore` samples
   each exchange turn to re-verify the credentials it has already
   accepted.
5. **Subscribers** — registered callbacks (strategy escalation,
   scenario reputation) observe the event; the bus also remembers
   which parties an event *touched* so a later negotiation can
   escalate against them (:meth:`TrustBus.touched`).

The bus is the single entry point for revocation operations.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.credentials.credential import Credential
from repro.credentials.revocation import RevocationList, RevocationRegistry
from repro.perf import SIGNATURE_CACHE

__all__ = [
    "TrustEvent",
    "TrustEventKind",
    "TrustBus",
    "RetractionReceipt",
    "trust_epoch",
    "register_sequence_cache",
    "default_bus",
]


class TrustEventKind(Enum):
    """The ways previously-established trust can be retracted."""

    #: One specific credential was revoked by its issuer.
    CREDENTIAL_REVOKED = "credential_revoked"
    #: An issuer published a (newer) revocation list; the delta against
    #: the superseded list is the set of retracted credentials.
    CRL_PUBLISHED = "crl_published"
    #: A negative credential was asserted against a party — an explicit
    #: "do not trust" statement outside the CRL mechanism.
    NEGATIVE_CREDENTIAL = "negative_credential"
    #: A party's reputation decayed below the isolation threshold.
    REPUTATION_DECAYED = "reputation_decayed"


@dataclass(frozen=True)
class TrustEvent:
    """One retraction, with enough provenance to evict precisely.

    ``issuer``/``serials`` name the cache entries the event
    contradicts; ``subjects`` names the parties it touches (for
    strategy escalation and reputation); ``crl`` optionally carries a
    revocation list to install in the bus's registry.
    """

    kind: TrustEventKind
    issuer: str = ""
    serials: frozenset[int] = frozenset()
    subjects: frozenset[str] = frozenset()
    crl: Optional[RevocationList] = None
    detail: str = ""

    @classmethod
    def credential_revoked(
        cls, credential: Credential, *,
        crl: Optional[RevocationList] = None, detail: str = "",
    ) -> "TrustEvent":
        """Retraction of one credential.  Pass the authority's re-signed
        ``crl`` so the bus's registry learns the revocation too (the
        usual flow after :meth:`CredentialAuthority.revoke`)."""
        return cls(
            kind=TrustEventKind.CREDENTIAL_REVOKED,
            issuer=credential.issuer,
            serials=frozenset({credential.serial}),
            subjects=frozenset({credential.subject}),
            crl=crl,
            detail=detail or f"revoked {credential.cred_id!r}",
        )

    @classmethod
    def crl_published(
        cls, crl: RevocationList, *, detail: str = "",
    ) -> "TrustEvent":
        """Publication of an issuer's current revocation list.  The
        serials actually retracted are the delta against the list the
        registry held before — computed by :meth:`TrustBus.retract`."""
        return cls(
            kind=TrustEventKind.CRL_PUBLISHED,
            issuer=crl.issuer,
            serials=frozenset(crl.serials),
            crl=crl,
            detail=detail or f"CRL v{crl.version} for {crl.issuer!r}",
        )

    @classmethod
    def negative_credential(
        cls, *, issuer: str, serial: int, subject: str, detail: str = "",
    ) -> "TrustEvent":
        return cls(
            kind=TrustEventKind.NEGATIVE_CREDENTIAL,
            issuer=issuer,
            serials=frozenset({serial}),
            subjects=frozenset({subject}),
            detail=detail or f"negative credential against {subject!r}",
        )

    @classmethod
    def reputation_decayed(
        cls, member: str, *, score: float, threshold: float,
        detail: str = "",
    ) -> "TrustEvent":
        return cls(
            kind=TrustEventKind.REPUTATION_DECAYED,
            subjects=frozenset({member}),
            detail=detail or (
                f"{member!r} decayed to {score:.3f} < {threshold:.3f}"
            ),
        )


@dataclass(frozen=True)
class RetractionReceipt:
    """What one :meth:`TrustBus.retract` call actually did."""

    event: TrustEvent
    #: Serials newly retracted by this event (for CRL publications,
    #: the delta against the superseded list; empty when the event
    #: retracted nothing new).
    retracted: frozenset[int]
    #: Signature-cache verdicts evicted (exact ``(issuer, serial)``
    #: tags, not a whole-issuer flush).
    evicted_signatures: int
    #: Cached trust sequences evicted across registered caches.
    evicted_sequences: int
    #: The trust epoch after this retraction.
    epoch: int


# -- process-wide retraction epoch ------------------------------------------------

_epoch = 0
_epoch_lock = threading.Lock()


def trust_epoch() -> int:
    """Monotone counter advanced by every effective retraction.

    An in-flight negotiation samples it per exchange turn: unchanged
    means no retraction happened anywhere in the process and the turn
    may trust what it already verified; advanced means already-accepted
    credentials must be re-verified before the exchange continues.
    """
    return _epoch


def _advance_epoch() -> int:
    global _epoch
    with _epoch_lock:
        _epoch += 1
        return _epoch


# -- sequence-cache registry ------------------------------------------------------

_sequence_caches: "weakref.WeakSet" = weakref.WeakSet()


def register_sequence_cache(cache) -> None:
    """Enroll a sequence cache for retraction-driven eviction.

    Called by :class:`repro.negotiation.cache.SequenceCache` on
    construction (weakly referenced — the registry never keeps a cache
    alive).  ``cache`` must expose
    ``invalidate_retracted(issuer, serials) -> int``.
    """
    _sequence_caches.add(cache)


def _evict_sequences(issuer: str, serials: frozenset[int]) -> int:
    dropped = 0
    for cache in list(_sequence_caches):
        dropped += cache.invalidate_retracted(issuer, serials)
    return dropped


class TrustBus:
    """The retraction surface over one revocation registry.

    >>> bus = TrustBus()
    >>> bus.publish_crl(authority.crl)          # doctest: +SKIP
    >>> authority.revoke(credential)            # doctest: +SKIP
    >>> receipt = bus.retract(                  # doctest: +SKIP
    ...     TrustEvent.credential_revoked(credential, crl=authority.crl)
    ... )

    Construction is cheap: a bus wraps an existing registry (or creates
    a fresh one) and keeps only its own subscriber list and touched-
    party memory.  Cache eviction and the epoch are process-wide, so
    every bus sees every retraction's cache effects; subscriber
    notification and :meth:`touched` are per-bus.
    """

    def __init__(
        self, registry: Optional[RevocationRegistry] = None,
    ) -> None:
        #: The revocation registry this bus governs — hand it to
        #: :class:`~repro.credentials.validation.CredentialValidator`.
        self.registry = registry if registry is not None else RevocationRegistry()
        self._subscribers: list[Callable[[TrustEvent], None]] = []
        self._touched: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- subscription -----------------------------------------------------------

    def subscribe(
        self, callback: Callable[[TrustEvent], None],
    ) -> Callable[[], None]:
        """Observe every retraction; returns an unsubscribe callable."""
        with self._lock:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return unsubscribe

    def touched(self, party: str) -> int:
        """How many retractions have touched ``party`` (as credential
        subject or decayed member) on this bus."""
        with self._lock:
            return self._touched.get(party, 0)

    # -- the one entry point ----------------------------------------------------

    def retract(self, event: TrustEvent) -> RetractionReceipt:
        """Propagate one retraction synchronously through every layer.

        Returns a receipt stating exactly what was retracted and
        evicted; when the receipt's ``retracted`` set is empty (e.g. an
        initial, empty CRL publication) no caches were touched and the
        epoch did not advance.
        """
        retracted = event.serials
        if event.crl is not None:
            newly = self.registry._install(event.crl)
            if event.kind is TrustEventKind.CRL_PUBLISHED:
                retracted = newly
            else:
                retracted = retracted | newly
        evicted_signatures = 0
        evicted_sequences = 0
        if retracted and event.issuer:
            for serial in retracted:
                evicted_signatures += SIGNATURE_CACHE.invalidate_tag(
                    (event.issuer, serial)
                )
            evicted_sequences = _evict_sequences(event.issuer, retracted)
        effective = bool(retracted) or event.kind in (
            TrustEventKind.NEGATIVE_CREDENTIAL,
            TrustEventKind.REPUTATION_DECAYED,
        )
        epoch = _advance_epoch() if effective else trust_epoch()
        if effective:
            with self._lock:
                for subject in event.subjects:
                    self._touched[subject] = self._touched.get(subject, 0) + 1
                subscribers = list(self._subscribers)
        else:
            subscribers = []
        for callback in subscribers:
            callback(event)
        return RetractionReceipt(
            event=event,
            retracted=frozenset(retracted),
            evicted_signatures=evicted_signatures,
            evicted_sequences=evicted_sequences,
            epoch=epoch,
        )

    # -- conveniences over retract() --------------------------------------------

    def publish_crl(self, crl: RevocationList) -> RetractionReceipt:
        """Install an issuer's revocation list."""
        return self.retract(TrustEvent.crl_published(crl))

    def revoke(
        self, authority, credential: Credential, *, detail: str = "",
    ) -> RetractionReceipt:
        """Revoke ``credential`` at its ``authority`` and propagate:
        the authority re-signs its CRL, the bus installs it and evicts
        exactly that credential's cached artifacts."""
        authority.revoke(credential)
        return self.retract(TrustEvent.credential_revoked(
            credential, crl=authority.crl, detail=detail,
        ))


# -- default bus ------------------------------------------------------------------

_default_bus: Optional[TrustBus] = None
_default_bus_lock = threading.Lock()


def default_bus() -> TrustBus:
    """The process-default bus (fresh registry), created on first use.

    Applications with their own :class:`RevocationRegistry` construct
    their own bus; the default exists so short scripts can write
    ``default_bus().publish_crl(ca.crl)`` without plumbing.
    """
    global _default_bus
    with _default_bus_lock:
        if _default_bus is None:
            _default_bus = TrustBus()
        return _default_bus
