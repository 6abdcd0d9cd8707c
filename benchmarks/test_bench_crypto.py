"""Ablation — cryptographic cost of credential exchange.

The exchange phase verifies one issuer signature and one ownership
proof per disclosure.  This bench sweeps RSA key sizes to show how the
signature share of negotiation cost scales, and measures the full
credential verification pipeline.

Full-mode gate: ``rsa.sign`` (CRT plus its verify-before-release fault
check) must be at least 2x faster than a textbook ``pow(m, d, n)``
sign, computed here, at 1024 bits.  512 and 2048 bits are reported,
not gated.  ``BENCH_QUICK=1`` shrinks the repeats and skips the gate.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

import pytest

from benchmarks.conftest import print_series
from repro.credentials.authority import CredentialAuthority
from repro.credentials.revocation import RevocationRegistry
from repro.trust import TrustBus
from repro.credentials.validation import CredentialValidator, OwnershipProof
from repro.crypto import rsa
from repro.crypto.keys import KeyPair, Keyring
from tests.conftest import ISSUE_AT, NEGOTIATION_AT

KEY_BITS = [512, 1024, 2048]

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Timed rounds per key size (the median round is reported) and
#: operations per round.
ROUNDS = 3 if QUICK else 7
OPS = 5 if QUICK else 20

GATED_BITS = 1024
MIN_CRT_SPEEDUP = 2.0


@pytest.fixture(scope="module", params=KEY_BITS)
def keypair(request):
    return request.param, rsa.generate_keypair(request.param)


def test_bench_keygen_512(benchmark):
    benchmark(rsa.generate_keypair, 512)


def test_bench_sign(benchmark, keypair):
    bits, key = keypair
    benchmark(rsa.sign, key, b"design-optimization control file")
    benchmark.extra_info["bits"] = bits


def test_bench_verify(benchmark, keypair):
    bits, key = keypair
    signature = rsa.sign(key, b"msg")
    assert benchmark(rsa.verify, key.public_key, b"msg", signature)
    benchmark.extra_info["bits"] = bits


@pytest.fixture(scope="module")
def validation_setup():
    ca = CredentialAuthority.create("CA", key_bits=1024)
    holder = KeyPair.generate(1024)
    ring = Keyring()
    ring.add("CA", ca.public_key)
    registry = RevocationRegistry()
    TrustBus(registry=registry).publish_crl(ca.crl)
    credential = ca.issue("T", "Holder", holder.fingerprint,
                          {"a": 1, "b": "x"}, ISSUE_AT)
    return CredentialValidator(ring, registry), credential, holder


def test_bench_full_validation_pipeline(benchmark, validation_setup):
    validator, credential, holder = validation_setup

    def run():
        nonce = validator.issue_challenge()
        proof = OwnershipProof.respond(nonce, holder.private)
        return validator.validate(credential, NEGOTIATION_AT, proof, nonce)

    report = benchmark(run)
    assert report.ok


def _median_ms(operation) -> float:
    """Median over ``ROUNDS`` of the mean per-call time of ``OPS`` calls."""
    rounds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(OPS):
            operation()
        rounds.append((time.perf_counter() - started) / OPS * 1e3)
    return statistics.median(rounds)


def test_crypto_series_report(benchmark):
    benchmark(lambda: None)  # series reports run once, not timed

    rows = []
    speedups = {}
    for bits in KEY_BITS:
        key = rsa.generate_keypair(bits)
        message = b"m"
        digest = hashlib.sha256(message).digest()
        encoded = int.from_bytes(
            rsa._pad_digest(digest, key.byte_length), "big"
        )
        d, n = key.private_exponent, key.modulus
        signature = rsa.sign(key, message)
        assert signature == pow(encoded, d, n).to_bytes(key.byte_length, "big")
        textbook_ms = _median_ms(lambda: pow(encoded, d, n))
        sign_ms = _median_ms(lambda: rsa.sign(key, message))
        verify_ms = _median_ms(
            lambda: rsa.verify(key.public_key, message, signature)
        )
        speedups[bits] = textbook_ms / sign_ms
        rows.append((
            bits, f"{textbook_ms:.2f}", f"{sign_ms:.2f}",
            f"{speedups[bits]:.2f}x", f"{verify_ms:.3f}",
        ))
    print_series(
        "RSA cost by key size (per disclosure: 1 sign + 2 verifies)",
        rows,
        headers=(
            "modulus bits", "textbook sign ms", "CRT sign ms",
            "speedup", "verify ms",
        ),
    )
    # Signing cost grows superlinearly with the modulus.
    sign_costs = [float(row[2]) for row in rows]
    assert sign_costs[0] < sign_costs[-1]
    if QUICK:
        return  # quick mode measures and reports; only full mode gates
    assert speedups[GATED_BITS] >= MIN_CRT_SPEEDUP, (
        f"CRT signing must be >= {MIN_CRT_SPEEDUP}x the textbook "
        f"pow(m, d, n) sign at {GATED_BITS} bits, measured "
        f"{speedups[GATED_BITS]:.2f}x"
    )
