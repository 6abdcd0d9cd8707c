"""Performance layer: bounded caches, counters, and the ablation switch.

See :mod:`repro.perf.caches` for the design notes.  This package must
not import from any other ``repro`` subpackage — every layer of the
stack imports *it*.
"""

from repro.perf.caches import (
    CANONICAL_CACHE,
    DIGEST_CACHE,
    NULL_LOCK,
    SIGNATURE_CACHE,
    XPATH_CACHE,
    CacheStats,
    LRUCache,
    NullLock,
    all_caches,
    all_stats,
    caches_disabled,
    caches_enabled,
    clear_all_caches,
    drop_issuer_signatures,
    set_caches_enabled,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "NullLock",
    "NULL_LOCK",
    "all_caches",
    "all_stats",
    "clear_all_caches",
    "caches_enabled",
    "set_caches_enabled",
    "caches_disabled",
    "XPATH_CACHE",
    "CANONICAL_CACHE",
    "DIGEST_CACHE",
    "SIGNATURE_CACHE",
    "drop_issuer_signatures",
]
