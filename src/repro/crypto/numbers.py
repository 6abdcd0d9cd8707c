"""Number-theoretic primitives backing the RSA implementation."""

from __future__ import annotations

import secrets

from repro.errors import CryptoError

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "modular_inverse",
    "SMALL_PRIMES",
]

# Primes below 1000, used as a cheap trial-division sieve before the
# Miller-Rabin rounds.
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211,
    223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379,
    383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461,
    463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563,
    569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643,
    647, 653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739,
    743, 751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829,
    839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937,
    941, 947, 953, 967, 971, 977, 983, 991, 997,
)


def _miller_rabin_round(candidate: int, witness: int) -> bool:
    """One Miller-Rabin round; returns False when ``witness`` proves
    ``candidate`` composite."""
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(witness, d, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, candidate)
        if x == candidate - 1:
            return True
    return False


def is_probable_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses.

    With 40 rounds the composite-acceptance probability is below 4^-40,
    which is far below any practical concern.
    """
    if candidate < 2:
        return False
    for prime in SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    for _ in range(rounds):
        witness = secrets.randbelow(candidate - 3) + 2
        if not _miller_rabin_round(candidate, witness):
            return False
    return True


def generate_prime(bits: int) -> int:
    """Generate a random probable prime of exactly ``bits`` bits.

    The top two bits are forced, so the product of a ``bits``-bit and a
    ``bits'``-bit prime always has ``bits + bits'`` bits (each prime is
    at least ``1.5 * 2^(bits-1)``, above FIPS 186-4 B.3.1's
    ``sqrt(2) * 2^(bits-1)`` bound) and RSA key generation never throws
    a pair away for a short modulus.
    """
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    while True:
        candidate = secrets.randbits(bits)
        # Force the top two bits and oddness.
        candidate |= (3 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate


def modular_inverse(value: int, modulus: int) -> int:
    """Return ``value^-1 mod modulus`` (extended Euclid via pow)."""
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:
        raise CryptoError(
            f"{value} is not invertible modulo {modulus}"
        ) from exc
