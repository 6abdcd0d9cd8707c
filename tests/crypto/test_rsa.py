"""RSA key generation and signatures."""

import hashlib
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.numbers import generate_prime
from repro.errors import CryptoError, SignatureError


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(512)


class TestKeyGeneration:
    def test_modulus_bit_length(self, key):
        assert key.modulus.bit_length() == 512

    def test_public_exponent(self, key):
        assert key.public_exponent == 65537

    def test_modulus_is_product_of_primes(self, key):
        assert key.prime_p * key.prime_q == key.modulus

    def test_private_exponent_inverts_public(self, key):
        phi = (key.prime_p - 1) * (key.prime_q - 1)
        assert (key.private_exponent * key.public_exponent) % phi == 1

    def test_too_small_modulus_rejected(self):
        with pytest.raises(CryptoError):
            rsa.generate_keypair(128)

    def test_distinct_keys(self):
        assert rsa.generate_keypair(512).modulus != rsa.generate_keypair(512).modulus

    @pytest.mark.parametrize("bits", [64, 127, 256, 512])
    def test_primes_have_top_two_bits_set(self, bits):
        for _ in range(10):
            prime = generate_prime(bits)
            assert prime.bit_length() == bits
            assert prime >> (bits - 2) == 0b11

    @pytest.mark.parametrize("bits", [256, 511, 512, 1024])
    def test_every_modulus_has_exactly_the_requested_bits(self, bits):
        for _ in range(5):
            key = rsa.generate_keypair(bits)
            assert key.modulus.bit_length() == bits
            assert key.prime_p * key.prime_q == key.modulus

    def test_crt_parameters_stay_out_of_equality_and_repr(self, key):
        twin = rsa.RSAPrivateKey(
            key.modulus, key.public_exponent, key.private_exponent,
            key.prime_p, key.prime_q,
        )
        assert twin == key and hash(twin) == hash(key)
        assert "_crt" not in repr(key)


class TestSignVerify:
    def test_roundtrip(self, key):
        message = b"the design-optimization control file"
        signature = rsa.sign(key, message)
        assert rsa.verify(key.public_key, message, signature)

    def test_tampered_message_fails(self, key):
        signature = rsa.sign(key, b"original")
        assert not rsa.verify(key.public_key, b"tampered", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(rsa.sign(key, b"msg"))
        signature[0] ^= 0xFF
        assert not rsa.verify(key.public_key, b"msg", bytes(signature))

    def test_wrong_key_fails(self, key):
        other = rsa.generate_keypair(512)
        signature = rsa.sign(key, b"msg")
        assert not rsa.verify(other.public_key, b"msg", signature)

    def test_wrong_length_signature_rejected(self, key):
        assert not rsa.verify(key.public_key, b"msg", b"short")

    def test_signature_value_above_modulus_rejected(self, key):
        blob = (key.modulus + 1).to_bytes(key.byte_length, "big") \
            if (key.modulus + 1).bit_length() <= key.byte_length * 8 \
            else b"\xff" * key.byte_length
        assert not rsa.verify(key.public_key, b"msg", blob)

    def test_signature_length_matches_key(self, key):
        assert len(rsa.sign(key, b"x")) == key.byte_length

    def test_signing_is_deterministic(self, key):
        assert rsa.sign(key, b"same") == rsa.sign(key, b"same")

    def test_empty_message_roundtrip(self, key):
        signature = rsa.sign(key, b"")
        assert rsa.verify(key.public_key, b"", signature)

    def test_key_too_small_to_sign(self):
        # A 256-bit key cannot hold the 51-byte DigestInfo + padding.
        tiny = rsa.generate_keypair(256)
        with pytest.raises(SignatureError):
            rsa.sign(tiny, b"msg")


def _encoded(key: rsa.RSAPrivateKey, message: bytes) -> int:
    """The padded message representative ``m`` that ``sign`` exponentiates."""
    digest = hashlib.sha256(message).digest()
    return int.from_bytes(rsa._pad_digest(digest, key.byte_length), "big")


class TestCRTFaultCheck:
    def test_faulty_half_raises_instead_of_signing(self, key):
        d_p, d_q, q_inv = key._crt
        faulty = rsa.RSAPrivateKey(
            key.modulus, key.public_exponent, key.private_exponent,
            key.prime_p, key.prime_q,
        )
        object.__setattr__(faulty, "_crt", (d_p ^ 2, d_q, q_inv))
        with pytest.raises(SignatureError, match="fault check"):
            rsa.sign(faulty, b"the design-optimization control file")
        # The original key is untouched and still signs.
        assert rsa.verify(key.public_key, b"x", rsa.sign(key, b"x"))

    @pytest.mark.parametrize("corrupt", ["p", "q"])
    def test_unchecked_faulty_signature_would_reveal_a_factor(
        self, key, corrupt
    ):
        """Boneh-DeMillo-Lipton: the value the check withholds factors n."""
        m = _encoded(key, b"msg")
        p, q, n, e = key.prime_p, key.prime_q, key.modulus, key.public_exponent
        d_p, d_q, q_inv = key._crt
        if corrupt == "p":
            d_p ^= 2
        else:
            d_q ^= 2
        s_p, s_q = pow(m, d_p, p), pow(m, d_q, q)
        faulty = s_q + q * ((s_p - s_q) * q_inv % p)
        assert pow(faulty, e, n) != m
        leaked = gcd(pow(faulty, e, n) - m, n)
        assert leaked == (p if corrupt == "q" else q)
        assert leaked in (p, q)


_PARITY_KEYS = {bits: rsa.generate_keypair(bits) for bits in (512, 1024)}


@settings(max_examples=30, deadline=None)
@given(
    message=st.binary(max_size=256),
    bits=st.sampled_from(sorted(_PARITY_KEYS)),
)
def test_crt_sign_matches_textbook_pow(message, bits):
    key = _PARITY_KEYS[bits]
    reference = pow(_encoded(key, message), key.private_exponent, key.modulus)
    assert rsa.sign(key, message) == reference.to_bytes(key.byte_length, "big")


@settings(max_examples=20, deadline=None)
@given(message=st.binary(max_size=256))
def test_sign_verify_property(message):
    key = _PROPERTY_KEY
    signature = rsa.sign(key, message)
    assert rsa.verify(key.public_key, message, signature)
    assert not rsa.verify(key.public_key, message + b"x", signature)


_PROPERTY_KEY = rsa.generate_keypair(512)
