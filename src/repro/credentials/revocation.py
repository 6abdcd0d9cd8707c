"""Revocation lists and the registry negotiators consult.

The credential-exchange phase "checks for revocation and validity
dates" (paper Section 4.2) and a negotiation fails outright when "a
party uses a revoked certificate".  Each authority maintains a signed
revocation list of serial numbers; parties consult a registry mapping
issuer names to their current lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.keys import PrivateKey, PublicKey, verify_b64
from repro.errors import CredentialRevokedError, ErrorCode, SignatureError

__all__ = ["RevocationList", "RevocationRegistry"]


@dataclass
class RevocationList:
    """A credential authority's list of revoked serial numbers."""

    issuer: str
    serials: set[int] = field(default_factory=set)
    version: int = 0
    signature_b64: Optional[str] = None

    def revoke(self, serial: int) -> None:
        """Add ``serial``; bumps the list version and drops the signature
        (the authority must re-sign)."""
        if serial not in self.serials:
            self.serials.add(serial)
            self.version += 1
            self.signature_b64 = None

    def is_revoked(self, serial: int) -> bool:
        return serial in self.serials

    def signing_bytes(self) -> bytes:
        payload = {
            "issuer": self.issuer,
            "version": self.version,
            "serials": sorted(self.serials),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def sign(self, key: PrivateKey) -> None:
        self.signature_b64 = key.sign_b64(self.signing_bytes())

    def verify(self, key: PublicKey) -> bool:
        if self.signature_b64 is None:
            return False
        return verify_b64(key, self.signing_bytes(), self.signature_b64)


@dataclass
class RevocationRegistry:
    """Published revocation lists, looked up by issuer name.

    In the paper's deployment each party would fetch CRLs from the
    issuing authorities; here the registry models that distribution
    point.  An issuer without a published list is treated as having
    revoked nothing.
    """

    _lists: dict[str, RevocationList] = field(default_factory=dict)
    #: Serials as of each issuer's last installed publication.  Kept
    #: separately from the list itself because authorities mutate their
    #: list in place (``revoke()`` then re-sign then re-publish) — the
    #: newly-revoked delta must be computed against the *published*
    #: snapshot, not the shared mutable object.
    _snapshots: dict[str, frozenset[int]] = field(default_factory=dict)

    def _install(self, crl: RevocationList) -> frozenset[int]:
        """Accept ``crl`` as the issuer's current list (no cache work).

        Rejects unsigned lists — :meth:`RevocationList.revoke` drops
        the signature, and a list the authority never re-signed must
        not be distributed — and stale versions.  Returns the serials
        newly revoked relative to the publication it superseded, so the
        caller (:meth:`repro.trust.TrustBus.retract`) can evict exactly
        the cache entries this publication contradicts.
        """
        if crl.signature_b64 is None:
            raise SignatureError(
                f"unsigned revocation list for {crl.issuer!r}: re-sign "
                "after revoke() before publishing",
                error_code=ErrorCode.UNSIGNED_REVOCATION_LIST,
            )
        current = self._lists.get(crl.issuer)
        if current is not None and current.version > crl.version:
            raise SignatureError(
                f"stale revocation list for {crl.issuer!r}: "
                f"version {crl.version} < published {current.version}"
            )
        previous = self._snapshots.get(crl.issuer, frozenset())
        self._lists[crl.issuer] = crl
        self._snapshots[crl.issuer] = frozenset(crl.serials)
        return frozenset(crl.serials) - previous

    def list_for(self, issuer: str) -> Optional[RevocationList]:
        return self._lists.get(issuer)

    def is_revoked(self, issuer: str, serial: int) -> bool:
        crl = self._lists.get(issuer)
        return crl is not None and crl.is_revoked(serial)

    def ensure_not_revoked(self, issuer: str, serial: int) -> None:
        if self.is_revoked(issuer, serial):
            raise CredentialRevokedError(
                f"credential serial {serial} was revoked by {issuer!r}"
            )
