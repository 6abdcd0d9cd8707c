"""RSA key generation and SHA-256 signatures.

Signatures use deterministic PKCS#1-v1.5 style padding.  Signing runs
over the Chinese Remainder Theorem (two half-size exponentiations mod
``p`` and ``q`` instead of one full-size one mod ``n``) and checks the
result against the public key before releasing it: a CRT signature
computed with one faulty half reveals a factor of ``n``
(Boneh-DeMillo-Lipton), so a signature that does not verify raises
instead of leaving the process.  The output is byte-identical to
textbook ``pow(m, d, n)``.

It is a reproduction substrate, not a hardened production library: it
favours clarity and determinism so that the negotiation engine's
signature checks are real (a tampered credential genuinely fails to
verify) without an external dependency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.numbers import generate_prime, modular_inverse
from repro.errors import CryptoError, SignatureError

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
    "verify_batch",
]

# DER prefix for a SHA-256 DigestInfo, as in PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)

_DEFAULT_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    modulus: int
    exponent: int

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key; carries the public half for convenience.

    The CRT exponents ``(d mod (p-1), d mod (q-1), q^-1 mod p)`` are
    derived once at construction; they take no part in the
    constructor, ``repr``, equality or hashing.
    """

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int
    _crt: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q, d = self.prime_p, self.prime_q, self.private_exponent
        object.__setattr__(
            self, "_crt", (d % (p - 1), d % (q - 1), modular_inverse(q, p))
        )

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(self.modulus, self.public_exponent)

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


def generate_keypair(bits: int = 1024) -> RSAPrivateKey:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    512-bit keys are accepted for fast test fixtures; real examples use
    1024 or 2048 bits.
    """
    if bits < 256:
        raise CryptoError(f"RSA modulus too small: {bits} bits")
    half = bits // 2
    while True:
        p = generate_prime(half)
        q = generate_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _DEFAULT_PUBLIC_EXPONENT == 0:
            continue
        d = modular_inverse(_DEFAULT_PUBLIC_EXPONENT, phi)
        return RSAPrivateKey(n, _DEFAULT_PUBLIC_EXPONENT, d, p, q)


def _pad_digest(digest: bytes, length: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest."""
    payload = _SHA256_DIGEST_INFO + digest
    if length < len(payload) + 11:
        raise SignatureError(
            f"key too small to sign a SHA-256 digest ({length} bytes)"
        )
    padding = b"\xff" * (length - len(payload) - 3)
    return b"\x00\x01" + padding + b"\x00" + payload


def sign(key: RSAPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` with ``key``; returns the raw signature bytes.

    Raises :class:`SignatureError` when the CRT result fails the
    verify-before-release check, so a faulty signature never leaves.
    """
    digest = hashlib.sha256(message).digest()
    encoded = _pad_digest(digest, key.byte_length)
    value = int.from_bytes(encoded, "big")
    p, q, n = key.prime_p, key.prime_q, key.modulus
    d_p, d_q, q_inv = key._crt
    s_p = pow(value, d_p, p)
    s_q = pow(value, d_q, q)
    signature = s_q + q * ((s_p - s_q) * q_inv % p)
    # A direct pow, not verify(): the padded value is already at hand,
    # and the check is signing work, not one more verification.
    if pow(signature, key.public_exponent, n) != value:
        raise SignatureError("RSA-CRT fault check failed; signature withheld")
    return signature.to_bytes(key.byte_length, "big")


def verify(key: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """Return True when ``signature`` over ``message`` verifies under
    ``key``.  Never raises for a merely-invalid signature."""
    if len(signature) != key.byte_length:
        return False
    value = int.from_bytes(signature, "big")
    if value >= key.modulus:
        return False
    recovered = pow(value, key.exponent, key.modulus)
    expected = _pad_digest(
        hashlib.sha256(message).digest(), key.byte_length
    )
    return recovered.to_bytes(key.byte_length, "big") == expected


def verify_batch(items) -> list:
    """Verify a batch of ``(key, sha256_digest, signature)`` triples.

    Returns one bool per item, each exactly what
    ``verify(key, message, signature)`` would return for a message
    hashing to ``sha256_digest``.  The batch form amortizes the
    per-call marshalling: the PKCS#1 padding prefix is built once per
    key size and identical triples are verified once.

    The classical RSA screening trick — checking
    ``prod(sig_i)^e == prod(pad(digest_i)) (mod n)`` in a single
    exponentiation — is deliberately **not** used here.  Unweighted, it
    is unsound against adversarial batches (a peer can cancel a bad
    signature against a compensating one, and these verdicts feed a
    cache); with random weights it needs one small-exponent
    exponentiation per item *plus* the weighting arithmetic, which for
    e = 65537 costs more than the plain per-item check it replaces.

    No library code calls it; it stays only because the wall-clock
    benchmark's tracer (``perfbench/``) looks it up by name.
    """
    # Padding depends only on (digest length, key byte length); cache
    # the constant prefix per pair so the loop is pure concatenation.
    prefixes: dict[tuple, bytes] = {}
    results: dict[tuple, bool] = {}
    verdicts = []
    for key, digest, signature in items:
        length = key.byte_length
        item_key = (key.modulus, key.exponent, digest, signature)
        cached = results.get(item_key)
        if cached is not None:
            verdicts.append(cached)
            continue
        ok = False
        if len(signature) == length:
            value = int.from_bytes(signature, "big")
            if value < key.modulus:
                prefix = prefixes.get((length, len(digest)))
                if prefix is None:
                    payload_len = len(_SHA256_DIGEST_INFO) + len(digest)
                    if length < payload_len + 11:
                        raise SignatureError(
                            "key too small to sign a SHA-256 digest "
                            f"({length} bytes)"
                        )
                    prefix = (
                        b"\x00\x01"
                        + b"\xff" * (length - payload_len - 3)
                        + b"\x00"
                        + _SHA256_DIGEST_INFO
                    )
                    prefixes[(length, len(digest))] = prefix
                recovered = pow(value, key.exponent, key.modulus)
                ok = recovered.to_bytes(length, "big") == prefix + digest
        results[item_key] = ok
        verdicts.append(ok)
    return verdicts
