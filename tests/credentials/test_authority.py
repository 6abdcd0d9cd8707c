"""Credential authorities and revocation lists."""

import pytest

from repro.credentials.authority import CredentialAuthority
from repro.credentials.credential import Credential
from repro.credentials.revocation import RevocationList, RevocationRegistry
from repro.credentials.sensitivity import Sensitivity
from repro.crypto.keys import verify_b64
from repro.errors import (
    CredentialRevokedError,
    ErrorCode,
    IssuanceError,
    SignatureError,
)
from repro.trust import TrustBus
from tests.conftest import ISSUE_AT


class TestIssuance:
    def test_issued_credential_verifies(self, infn, shared_keypair):
        cred = infn.issue("T", "S", shared_keypair.fingerprint, {"a": 1}, ISSUE_AT)
        assert cred.is_signed
        assert verify_b64(infn.public_key, cred.signing_bytes(), cred.signature_b64)

    def test_serials_increment(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        first = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        second = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        assert second.serial == first.serial + 1

    def test_default_cred_id_unique(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        ids = {
            ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT).cred_id
            for _ in range(5)
        }
        assert len(ids) == 5

    def test_explicit_cred_id(self, infn, shared_keypair):
        cred = infn.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT,
                          cred_id="custom-id")
        assert cred.cred_id == "custom-id"

    def test_sensitivity_carried(self, infn, shared_keypair):
        cred = infn.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT,
                          sensitivity=Sensitivity.HIGH)
        assert cred.sensitivity is Sensitivity.HIGH

    def test_empty_type_rejected(self, infn, shared_keypair):
        with pytest.raises(IssuanceError):
            infn.issue("", "S", shared_keypair.fingerprint, {}, ISSUE_AT)

    def test_tracks_issued_types(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        ca.issue("Alpha", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        assert "Alpha" in ca.issued_types


class TestRevocation:
    def test_revoke_own_credential(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        cred = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        assert not ca.has_revoked(cred)
        ca.revoke(cred)
        assert ca.has_revoked(cred)

    def test_cannot_revoke_foreign_credential(self, infn, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        foreign = infn.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        with pytest.raises(IssuanceError):
            ca.revoke(foreign)

    def test_crl_is_signed_after_revoke(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        cred = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        ca.revoke(cred)
        assert ca.crl.verify(ca.public_key)

    def test_crl_version_bumps(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        cred = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        version = ca.crl.version
        ca.revoke(cred)
        assert ca.crl.version == version + 1

    def test_revoking_twice_is_idempotent(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        cred = ca.issue("T", "S", shared_keypair.fingerprint, {}, ISSUE_AT)
        ca.revoke(cred)
        version = ca.crl.version
        ca.revoke(cred)
        assert ca.crl.version == version


class TestRevocationList:
    def test_unsigned_list_fails_verification(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        crl = RevocationList(issuer="CA")
        assert not crl.verify(ca.public_key)

    def test_revoke_drops_signature(self, shared_keypair):
        ca = CredentialAuthority.create("CA", key_bits=512)
        crl = RevocationList(issuer="CA")
        crl.sign(ca.keypair.private)
        crl.revoke(7)
        assert crl.signature_b64 is None


class TestRevocationRegistry:
    @staticmethod
    def _signed_crl(key, serials=(), version=None):
        crl = RevocationList(issuer="CA")
        for serial in serials:
            crl.revoke(serial)
        if version is not None:
            crl.version = version
        crl.sign(key)
        return crl

    def test_lookup(self, shared_keypair):
        bus = TrustBus()
        bus.publish_crl(self._signed_crl(shared_keypair.private, [5]))
        registry = bus.registry
        assert registry.is_revoked("CA", 5)
        assert not registry.is_revoked("CA", 6)
        assert not registry.is_revoked("Other", 5)

    def test_ensure_not_revoked_raises(self, shared_keypair):
        bus = TrustBus()
        bus.publish_crl(self._signed_crl(shared_keypair.private, [5]))
        with pytest.raises(CredentialRevokedError):
            bus.registry.ensure_not_revoked("CA", 5)
        bus.registry.ensure_not_revoked("CA", 6)  # must not raise

    def test_stale_publish_rejected(self, shared_keypair):
        bus = TrustBus()
        bus.publish_crl(self._signed_crl(shared_keypair.private, version=3))
        stale = self._signed_crl(shared_keypair.private, version=1)
        with pytest.raises(SignatureError):
            bus.publish_crl(stale)

    def test_unsigned_publish_rejected(self, shared_keypair):
        bus = TrustBus()
        crl = RevocationList(issuer="CA")
        crl.revoke(5)  # drops any signature; the authority never re-signed
        with pytest.raises(SignatureError) as excinfo:
            bus.publish_crl(crl)
        assert excinfo.value.error_code is ErrorCode.UNSIGNED_REVOCATION_LIST
        assert not bus.registry.is_revoked("CA", 5)  # nothing was installed

    def test_bus_publishes_into_a_given_registry(self, shared_keypair):
        registry = RevocationRegistry()
        TrustBus(registry=registry).publish_crl(
            self._signed_crl(shared_keypair.private, [5])
        )
        assert registry.is_revoked("CA", 5)

    def test_unknown_issuer_has_no_list(self):
        assert RevocationRegistry().list_for("nobody") is None
