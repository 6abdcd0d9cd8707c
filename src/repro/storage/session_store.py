"""Durable journals for negotiation-session checkpoints.

:class:`~repro.services.tn_service.TNWebService` checkpoints every
session transition as a ``<negotiationSession>`` XML element.  A
:class:`SessionStore` is the append-only durability substrate behind
that machinery: each checkpoint is journalled as one record, and after
a crash ``latest()`` replays the journal into the last-known state of
every session so a restarted (or failed-over) node can resume in-flight
negotiations deterministically.

Two backends share the interface:

- :class:`InMemorySessionStore` — a plain journal list, for tests and
  single-process runs;
- :class:`WALSessionStore` — an append-only JSONL write-ahead log on
  disk.  Each record carries an LSN and a content checksum; recovery
  tolerates a *torn* final record (power loss mid-append) by truncating
  it, but treats a bad checksum anywhere earlier as real corruption.

A real database backend can slot in later by implementing the same
four methods.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from abc import ABC, abstractmethod
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional
from xml.etree import ElementTree as ET

from repro.errors import StorageError, XMLError
from repro.xmlutil.canonical import canonicalize, parse_xml

__all__ = ["SessionStore", "InMemorySessionStore", "WALSessionStore"]


class SessionStore(ABC):
    """Append-only journal of session checkpoints.

    ``append`` is called by the checkpoint machinery on every session
    transition; ``latest`` is the recovery read path.  Implementations
    must preserve append order per session so that the last record for
    a session id is its most recent checkpoint.
    """

    name: str = "session-store"

    @abstractmethod
    def append(self, session_id: str, element: ET.Element) -> None:
        """Journal one checkpoint of ``session_id``."""

    @abstractmethod
    def latest(self) -> dict[str, ET.Element]:
        """Last journalled checkpoint per session id, parsed."""

    @abstractmethod
    def records(self) -> int:
        """Number of intact records in the journal."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying resources (no-op by default)."""

    # -- fault hooks ---------------------------------------------------------------

    def tear_last_record(self) -> bool:
        """Simulate a torn write: damage the most recent record.

        Returns True when a record was damaged.  Backends that cannot
        express partial writes may drop the record instead; either way
        recovery must behave as if the append never completed.
        """
        return False


class InMemorySessionStore(SessionStore):
    """Journal kept in process memory.

    Survives a *service* crash (``TNWebService.crash()`` drops volatile
    session state but not the store object) — the moral equivalent of a
    database reachable from a restarted node — but not a process exit.
    """

    def __init__(self, name: str = "session-journal") -> None:
        self.name = name
        self._journal: list[tuple[str, str]] = []
        self.torn_discarded = 0

    def append(self, session_id: str, element: ET.Element) -> None:
        self._journal.append((session_id, canonicalize(element)))

    def latest(self) -> dict[str, ET.Element]:
        state: dict[str, ET.Element] = {}
        for session_id, xml in self._journal:
            state[session_id] = parse_xml(xml)
        return state

    def records(self) -> int:
        return len(self._journal)

    def tear_last_record(self) -> bool:
        """A torn in-memory append is simply an append that never
        happened: drop the final record."""
        if not self._journal:
            return False
        self._journal.pop()
        self.torn_discarded += 1
        return True


def _record_crc(lsn: int, session_id: str, xml: str) -> str:
    digest = hashlib.sha256(f"{lsn}|{session_id}|{xml}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _record_line(lsn: int, session_id: str, xml: str) -> bytes:
    """One journal line: the bytes ``json.dumps(record, sort_keys=True)``
    plus a newline would give, written out for the record's four fixed
    keys."""
    return (
        f'{{"crc": "{_record_crc(lsn, session_id, xml)}", "lsn": {lsn}, '
        f'"session": {_json_string(session_id)}, '
        f'"xml": {_json_string(xml)}}}\n'
    ).encode("utf-8")


class WALSessionStore(SessionStore):
    """Append-only JSONL write-ahead log.

    One record per line::

        {"crc": "9f2c...", "lsn": 7, "session": "tn-3",
         "xml": "<negotiationSession .../>"}

    Opening an existing file replays it: every intact record is kept,
    and a damaged *final* record (truncated line, invalid JSON, or crc
    mismatch) is discarded and physically truncated away — the append
    it belonged to never committed.  Damage anywhere before the final
    record is not a torn write and raises :class:`StorageError`.

    Appends go through one unbuffered handle, opened on the first
    append (a store that is only read never opens one) and released by
    :meth:`close`.  In memory the store keeps only the latest record's
    XML per session; LSNs run gap-free from 1, so the record count is
    the last LSN.  The log is not ``fsync``-ed: it survives a process
    crash, not an operating-system crash.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self.name = f"wal:{os.path.basename(self.path)}"
        self.torn_discarded = 0
        self._latest: dict[str, str] = {}  # session id -> latest xml
        self._lsn = 0
        self._committed_bytes = 0  # file offset past the last intact record
        self._handle: Optional[io.FileIO] = None
        self._recover()

    # -- recovery -----------------------------------------------------------------

    def _recover(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if self._replay(raw):
            self.torn_discarded += 1
        if self._committed_bytes != len(raw):
            # drop the torn tail so later appends start on a clean line
            with open(self.path, "r+b") as handle:
                handle.truncate(self._committed_bytes)

    def _replay(self, raw: bytes) -> bool:
        """Rebuild the in-memory view from the journal bytes ``raw``:
        every intact record up to the first damaged one, which must be
        the final record.  Returns whether a damaged record was found."""
        self._latest = {}
        self._lsn = 0
        lines = raw.split(b"\n")
        # a fully committed file ends with a newline, so the final split
        # element is empty; anything else is a torn tail candidate
        good_bytes = 0
        for lineno, line in enumerate(lines):
            if not line:
                continue
            record = self._parse_record(line)
            if record is None:
                if any(lines[lineno + 1:]):
                    raise StorageError(
                        f"WAL {self.path!r} corrupt at record "
                        f"{lineno + 1} (not the final record)"
                    )
                self._committed_bytes = good_bytes
                return True
            lsn, session_id, xml = record
            if lsn != self._lsn + 1:
                raise StorageError(
                    f"WAL {self.path!r} LSN gap: expected "
                    f"{self._lsn + 1}, found {lsn}"
                )
            self._latest[session_id] = xml
            self._lsn = lsn
            good_bytes += len(line) + 1
        self._committed_bytes = good_bytes
        return False

    @staticmethod
    def _parse_record(line: bytes) -> Optional[tuple[int, str, str]]:
        try:
            payload = json.loads(line)
        except (ValueError, TypeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            lsn = int(payload["lsn"])
            session_id = payload["session"]
            xml = payload["xml"]
            crc = payload["crc"]
        except (KeyError, TypeError, ValueError):
            return None
        if not isinstance(session_id, str) or not isinstance(xml, str):
            return None
        if crc != _record_crc(lsn, session_id, xml):
            return None
        return lsn, session_id, xml

    # -- SessionStore interface ----------------------------------------------------

    def append(self, session_id: str, element: ET.Element) -> None:
        xml = canonicalize(element)
        lsn = self._lsn + 1
        data = _record_line(lsn, session_id, xml)
        handle = self._handle
        if handle is None:
            # write at the committed offset, not the file end: a torn
            # tail left by a simulated power loss is overwritten, never
            # extended
            handle = self._handle = open(
                self.path, "r+b" if os.path.exists(self.path) else "wb",
                buffering=0,
            )
            handle.truncate(self._committed_bytes)
            handle.seek(self._committed_bytes)
        view = memoryview(data)
        while view:
            view = view[handle.write(view):]
        self._committed_bytes += len(data)
        self._latest[session_id] = xml
        self._lsn = lsn

    def latest(self) -> dict[str, ET.Element]:
        state: dict[str, ET.Element] = {}
        for session_id, xml in self._latest.items():
            try:
                state[session_id] = parse_xml(xml)
            except XMLError as exc:  # crc guarantees this is unreachable
                raise StorageError(
                    f"WAL {self.path!r} holds unparseable XML for "
                    f"session {session_id!r}"
                ) from exc
        return state

    def records(self) -> int:
        return self._lsn

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def close(self) -> None:
        """Release the append handle; the next append reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def tear_last_record(self) -> bool:
        """Chop the final committed record mid-line, as a power loss
        during the append would.  The in-memory view rewinds to match
        what a recovering reader will see: the committed prefix before
        the torn record is replayed, and the torn bytes stay on disk
        for the next append (or reopen) to cut away.  Tearing again
        with no append in between tears the record before."""
        if not self._lsn:
            return False
        self.close()
        with open(self.path, "r+b") as handle:
            committed = handle.read(self._committed_bytes)
            cut = committed.rfind(b"\n", 0, -1) + 1  # start of the final record
            handle.truncate(cut + max(1, (len(committed) - 1 - cut) // 2))
        self._replay(committed[:cut])
        self.torn_discarded += 1
        return True
