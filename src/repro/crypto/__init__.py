"""Cryptographic substrate for credential signatures.

The paper's prototype relies on standard PKI operations: credential
authorities sign X-TNL credentials and X.509-style attribute
certificates, and negotiation parties verify those signatures with the
issuers' public keys.  Since the reproduction environment is offline,
this subpackage implements the needed primitives from scratch:

- :mod:`repro.crypto.numbers` — Miller-Rabin primality, prime
  generation, modular inverse.
- :mod:`repro.crypto.rsa` — RSA key generation and PKCS#1-v1.5-style
  SHA-256 signatures (CRT signing with a verify-before-release check).
- :mod:`repro.crypto.keys` — serialization, fingerprints, and keyrings.

Key sizes are configurable; tests and benchmarks default to small-but-
real keys so that thousands of signatures stay cheap, while examples use
2048-bit keys to demonstrate realistic deployments.
"""

from repro.crypto.keys import (
    KeyPair,
    Keyring,
    PrivateKey,
    PublicKey,
    verify_b64,
)
from repro.crypto.rsa import generate_keypair, sign, verify

__all__ = [
    "KeyPair",
    "Keyring",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "sign",
    "verify",
    "verify_b64",
]
