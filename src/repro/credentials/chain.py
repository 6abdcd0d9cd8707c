"""Credential chains and delegated retrieval.

During the exchange phase a party may "eventually retrieve those
credentials that are not immediately available through credentials
chains" (paper Section 4.2).  A chain links a credential to the
credential that certifies its issuer, up to an authority the verifier
already trusts: e.g. a regional quality certificate issued by a body
that itself holds an accreditation credential from a root authority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.credentials.credential import Credential
from repro.crypto.keys import Keyring
from repro.errors import CredentialError

__all__ = ["CredentialChain", "ChainResolver"]

#: Attribute a chain-link credential uses to carry the certified
#: issuer's public key (JSON form) — the material that lets a verifier
#: continue signature checks down the chain.
CERTIFIED_KEY_ATTRIBUTE = "certifiedKey"


@dataclass(frozen=True)
class CredentialChain:
    """An ordered chain ``leaf, link1, ..., linkN``.

    ``links[i]`` certifies the issuer of ``links[i-1]`` (with
    ``links[0]`` certifying the leaf's issuer); the last link must be
    issued by an authority present in the verifier's keyring.
    """

    leaf: Credential
    links: tuple[Credential, ...] = ()

    def __len__(self) -> int:
        return 1 + len(self.links)

    def validate_structure(self) -> None:
        """Check issuer/subject continuity of the chain."""
        expected_subject = self.leaf.issuer
        for index, link in enumerate(self.links):
            if link.subject != expected_subject:
                raise CredentialError(
                    f"chain break at link {index}: certifies "
                    f"{link.subject!r} but {expected_subject!r} was needed"
                )
            if not link.has_attribute(CERTIFIED_KEY_ATTRIBUTE):
                raise CredentialError(
                    f"chain link {index} lacks the "
                    f"{CERTIFIED_KEY_ATTRIBUTE!r} attribute"
                )
            expected_subject = link.issuer


@dataclass
class ChainResolver:
    """Builds chains for credentials whose issuer the verifier does not
    directly trust.

    ``lookup`` maps an issuer name to the credential certifying it (or
    None); it models the external retrieval step of the exchange phase.
    """

    keyring: Keyring
    lookup: Callable[[str], Optional[Credential]]
    max_depth: int = 8

    def resolve(self, leaf: Credential) -> CredentialChain:
        """Return a chain from ``leaf`` to a trusted authority.

        A leaf whose issuer is already trusted resolves to a chain of
        length one.  Raises :class:`CredentialError` when no chain
        reaches a trusted authority within ``max_depth`` links.
        """
        links: list[Credential] = []
        issuer = leaf.issuer
        seen = {issuer}
        while not self.keyring.trusts(issuer):
            if len(links) >= self.max_depth:
                raise CredentialError(
                    f"no trust chain for issuer {leaf.issuer!r} within "
                    f"{self.max_depth} links"
                )
            link = self.lookup(issuer)
            if link is None:
                raise CredentialError(
                    f"cannot retrieve a credential certifying issuer "
                    f"{issuer!r}"
                )
            links.append(link)
            issuer = link.issuer
            if issuer in seen:
                raise CredentialError(
                    f"circular trust chain through issuer {issuer!r}"
                )
            seen.add(issuer)
        chain = CredentialChain(leaf, tuple(links))
        chain.validate_structure()
        return chain
