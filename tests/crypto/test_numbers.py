"""Number-theoretic primitives."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import numbers
from repro.crypto.numbers import (
    RANDOM_CANDIDATE_ROUNDS,
    SMALL_PRIMES,
    generate_prime,
    is_probable_prime,
    modular_inverse,
)
from repro.errors import CryptoError


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 997, 7919, 104729])
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 9, 561, 104730, 997 * 7919])
    def test_known_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_negative_numbers_are_not_prime(self):
        assert not is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_small_primes_table_is_prime(self):
        for prime in SMALL_PRIMES:
            assert is_probable_prime(prime)


class TestGeneratePrime:
    def test_generated_prime_has_exact_bit_length(self):
        for bits in (16, 32, 64):
            prime = generate_prime(bits)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)

    def test_generated_prime_is_odd(self):
        assert generate_prime(32) % 2 == 1

    def test_too_small_raises(self):
        with pytest.raises(CryptoError):
            generate_prime(4)


def _log2_dlp_bound(k: int, t: int) -> float:
    """log2 of the Damgard-Landrock-Pomerance bound on the chance that
    a random odd k-bit composite passes t Miller-Rabin rounds (Menezes
    et al., Handbook of Applied Cryptography, Fact 4.48)."""
    bounds = []
    if t == 1:
        bounds.append(2 * math.log2(k) + 2 * (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or 3 <= t <= k / 9:
        bounds.append(
            1.5 * math.log2(k) + t - 0.5 * math.log2(t)
            + 2 * (2 - math.sqrt(t * k))
        )
    if k / 9 <= t <= k / 4:
        bounds.append(math.log2(
            7 / 20 * k * 2.0 ** (-5 * t)
            + 1 / 7 * k ** 3.75 * 2.0 ** (-k / 2 - 2 * t)
            + 12 * k * 2.0 ** (-k / 4 - 3 * t)
        ))
    if t >= k / 4:
        bounds.append(math.log2(1 / 7 * k ** 3.75) - k / 2 - 2 * t)
    return min(bounds, default=0.0)


def _min_rounds(k: int, log2_error: int) -> int:
    return next(
        t for t in range(1, 100) if _log2_dlp_bound(k, t) <= log2_error
    )


class TestRandomCandidateRounds:
    def test_table_is_pinned(self):
        assert RANDOM_CANDIDATE_ROUNDS == (
            (2048, 2), (1536, 3), (1024, 4), (768, 5),
            (512, 8), (384, 11), (256, 17), (160, 24),
        )

    def test_bound_reproduces_the_published_2_pow_80_table(self):
        # Handbook of Applied Cryptography, Table 4.4.
        published = {100: 27, 150: 18, 200: 15, 250: 12, 300: 9, 350: 8,
                     400: 7, 450: 6, 550: 5, 650: 4, 850: 3, 1300: 2}
        assert {k: _min_rounds(k, -80) for k in published} == published

    def test_every_size_reaches_2_pow_minus_100(self):
        upper = 4096
        for size, rounds in RANDOM_CANDIDATE_ROUNDS:
            assert rounds == max(
                _min_rounds(k, -100) for k in range(size, upper)
            ), size
            upper = size

    def test_generate_prime_uses_the_table(self, monkeypatch):
        seen = []
        real = numbers.is_probable_prime

        def spy(candidate, rounds=40):
            seen.append(rounds)
            return real(candidate, rounds)

        monkeypatch.setattr(numbers, "is_probable_prime", spy)
        for bits, rounds in ((256, 17), (512, 8), (64, 40)):
            seen.clear()
            assert generate_prime(bits).bit_length() == bits
            assert set(seen) == {rounds}


class TestModularInverse:
    def test_known_inverse(self):
        assert modular_inverse(3, 11) == 4  # 3*4 = 12 ≡ 1 (mod 11)

    def test_non_invertible_raises(self):
        with pytest.raises(CryptoError):
            modular_inverse(6, 9)

    @given(
        value=st.integers(min_value=2, max_value=10_000),
        modulus=st.sampled_from([101, 997, 65537, 104729]),
    )
    def test_inverse_property(self, value, modulus):
        if value % modulus == 0:
            return
        inverse = modular_inverse(value, modulus)
        assert (value * inverse) % modulus == 1
