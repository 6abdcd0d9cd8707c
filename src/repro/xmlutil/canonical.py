"""Deterministic XML serialization for signing.

Two X-TNL documents with the same logical content must serialize to the
same byte string so that signatures verify regardless of attribute order
or incidental whitespace.  This module implements a small canonical form
inspired by XML-C14N:

- attributes are emitted in sorted order;
- text is escaped minimally and surrounding whitespace of *structural*
  (element-only) nodes is dropped;
- no XML declaration, no namespace rewriting (X-TNL documents are
  namespace-free).
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Optional
from xml.etree import ElementTree as ET

from repro.errors import XMLError
from repro.perf import CANONICAL_CACHE, DIGEST_CACHE

__all__ = ["canonicalize", "element_digest", "parse_xml"]


def parse_xml(text: str) -> ET.Element:
    """Parse ``text`` into an Element, wrapping parse errors in XMLError."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLError(f"malformed XML: {exc}") from exc


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def _write(element: ET.Element, parts: list[str]) -> None:
    tag = element.tag
    if not isinstance(tag, str):
        # Comments and processing instructions are not part of the
        # canonical form.
        return
    parts.append("<" + tag)
    attrib = element.attrib
    if attrib:
        values = "".join(attrib.values())
        if "&" in values or "<" in values or ">" in values or '"' in values:
            for name, value in sorted(attrib.items()):
                parts.append(f' {name}="{_escape_attr(value)}"')
        else:
            # the common case (ids, phases, numbers): one scan of all
            # the values instead of escaping each one
            for name, value in sorted(attrib.items()):
                parts.append(f' {name}="{value}"')
    text = element.text
    if not len(element):
        if text:
            parts.append(f">{_escape_text(text.strip())}</{tag}>")
        else:
            parts.append(f"></{tag}>")
        return
    parts.append(">")
    if text and text.strip():
        # text beside child elements is kept; indentation-only
        # whitespace of a structural element is dropped
        parts.append(_escape_text(text.strip()))
    for child in element:
        _write(child, parts)
        tail = child.tail
        if tail and tail.strip():
            parts.append(_escape_text(tail.strip()))
    parts.append(f"</{tag}>")


def canonicalize(element: ET.Element | str,
                 cache_key: Optional[Hashable] = None) -> str:
    """Return the canonical string form of ``element``.

    Accepts either an Element or an XML string (which is parsed first).
    The output is stable across attribute ordering and pretty-printing
    whitespace, making it safe to sign and to compare.

    Elements are mutable and unhashable, so memoization is strictly
    opt-in: callers that can vouch the serialized content is fully
    determined by some hashable value (e.g. a frozen
    :class:`~repro.credentials.credential.Credential`) pass it as
    ``cache_key`` and the canonical string is served from
    :data:`repro.perf.CANONICAL_CACHE` on repeats.
    """
    if cache_key is not None:
        return CANONICAL_CACHE.get_or_compute(
            cache_key, lambda: canonicalize(element)
        )
    if isinstance(element, str):
        element = parse_xml(element)
    parts: list[str] = []
    _write(element, parts)
    return "".join(parts)


def element_digest(element: ET.Element | str,
                   cache_key: Optional[Hashable] = None) -> bytes:
    """SHA-256 digest of the canonical form of ``element``.

    ``cache_key`` has the same contract as in :func:`canonicalize`; a
    keyed call memoizes the digest (and, transitively, the canonical
    form) in :data:`repro.perf.DIGEST_CACHE`.
    """
    if cache_key is not None:
        return DIGEST_CACHE.get_or_compute(
            cache_key,
            lambda: hashlib.sha256(
                canonicalize(element, cache_key=cache_key).encode("utf-8")
            ).digest(),
        )
    return hashlib.sha256(canonicalize(element).encode("utf-8")).digest()
