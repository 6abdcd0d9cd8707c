"""``rsa.verify_batch``: one verdict per triple, each equal to scalar
``rsa.verify``.  Nothing in the library calls it; it stays while the
wall-clock benchmark's tracer (``perfbench/``) still names it."""

from __future__ import annotations

import hashlib

from repro.crypto import keys, rsa


def _signed(keypair: keys.KeyPair, message: bytes):
    """(raw_key, digest, signature) triple for the rsa-level batch."""
    return (
        keypair.public.raw,
        hashlib.sha256(message).digest(),
        keypair.private.sign(message),
    )


class TestRsaVerifyBatch:
    def test_matches_scalar_verify_item_by_item(self):
        alice = keys.KeyPair.generate(512)
        bob = keys.KeyPair.generate(512)
        good_a = _signed(alice, b"alpha")
        good_b = _signed(bob, b"beta")
        # Signature from the wrong key.
        crossed = (alice.public.raw, good_a[1], good_b[2])
        # Right key, digest of a different message.
        wrong_digest = (
            alice.public.raw,
            hashlib.sha256(b"tampered").digest(),
            good_a[2],
        )
        # Corrupted signature bytes (still the right length).
        corrupt = (
            alice.public.raw, good_a[1],
            bytes(good_a[2][:-1]) + bytes([good_a[2][-1] ^ 1]),
        )
        items = [good_a, crossed, good_b, wrong_digest, corrupt]
        assert rsa.verify_batch(items) == [True, False, True, False, False]
        # Scalar oracle on the valid ones: same key, same message.
        assert rsa.verify(alice.public.raw, b"alpha", good_a[2])
        assert not rsa.verify(alice.public.raw, b"alpha", corrupt[2])

    def test_duplicate_items_share_one_verification(self):
        pair = keys.KeyPair.generate(512)
        triple = _signed(pair, b"repeat")
        verdicts = rsa.verify_batch([triple] * 5)
        assert verdicts == [True] * 5

    def test_empty_batch(self):
        assert rsa.verify_batch([]) == []
