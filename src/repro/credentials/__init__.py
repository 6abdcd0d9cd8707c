"""Credential layer: X-TNL credentials and their infrastructure.

X-TNL credentials (paper Section 4.1, Fig. 6) are signed XML documents
carrying a party's attributes.  This subpackage implements:

- :mod:`attributes` — typed attribute values,
- :mod:`credential` — the credential document (header/content/signature),
- :mod:`profile` — the X-Profile collecting a party's credentials,
- :mod:`sensitivity` — low/medium/high labels and ``CredCluster``,
- :mod:`authority` — Credential Authorities issuing and revoking,
- :mod:`revocation` — revocation lists,
- :mod:`x509` — X.509v2-style attribute certificates and the VO
  membership token,
- :mod:`selective` — the hash-based selective-disclosure extension the
  paper proposes in Section 6.3,
- :mod:`chain` — credential chains resolved during the exchange phase,
- :mod:`validation` — the full verification pipeline used when a
  credential is received.
"""

from repro.credentials.attributes import AttributeValue
from repro.credentials.authority import CredentialAuthority
from repro.credentials.chain import CredentialChain, ChainResolver
from repro.credentials.credential import Credential, ValidityPeriod
from repro.credentials.profile import XProfile
from repro.credentials.revocation import RevocationList, RevocationRegistry
from repro.credentials.selective import SelectiveCredential
from repro.credentials.sensitivity import Sensitivity, cred_cluster
from repro.credentials.validation import (
    CredentialValidator,
    ValidationReport,
)
from repro.credentials.x509 import AttributeCertificate, VOMembershipToken

__all__ = [
    "AttributeValue",
    "Credential",
    "ValidityPeriod",
    "XProfile",
    "Sensitivity",
    "cred_cluster",
    "CredentialAuthority",
    "RevocationList",
    "RevocationRegistry",
    "AttributeCertificate",
    "VOMembershipToken",
    "SelectiveCredential",
    "CredentialChain",
    "ChainResolver",
    "CredentialValidator",
    "ValidationReport",
]
