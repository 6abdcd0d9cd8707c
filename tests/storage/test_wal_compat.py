"""A WAL written before the open-handle journal must still replay.

``wal_fixtures/three-sessions.wal`` was recorded by :func:`write_script`
from the ``WALSessionStore`` that opened, truncated and closed the file
for every record and kept every record's XML in memory.
``three-sessions.json`` holds what that store reported on reopening the
file.  The current store must reopen the file with the same replay, and
the same script must write the same bytes.

Regenerate (only when the record format is meant to change)::

    PYTHONPATH=src python tests/storage/test_wal_compat.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

from repro.storage.session_store import WALSessionStore
from repro.xmlutil.canonical import canonicalize

FIXTURES = Path(__file__).resolve().parent / "wal_fixtures"
RECORDED_WAL = FIXTURES / "three-sessions.wal"
RECORDED_REPLAY = FIXTURES / "three-sessions.json"


def _checkpoint(session_id: str, phase: str, requester: str,
                outcome: dict | None = None) -> ET.Element:
    """A ``<negotiationSession>`` shaped like the TN service's."""
    element = ET.Element("negotiationSession", {
        "id": session_id,
        "phase": phase,
        "requester": requester,
        "strategy": "standard",
        "resource": "VoMembership" if phase != "started" else "",
        "at": "2008-04-07T12:00:00" if phase != "started" else "",
        "requestId": f"req-{session_id}",
        "lastSeq": "0" if phase == "started" else "2",
        "policyBilled": str(phase != "started").lower(),
        "exchangeBilled": str(phase == "exchange").lower(),
    })
    if outcome is not None:
        node = ET.SubElement(element, "outcome", {
            "success": str(outcome["success"]).lower(),
            "failureReason": outcome.get("reason", ""),
            "policyMessages": "4",
            "exchangeMessages": "3",
        })
        if outcome.get("detail"):
            node.set("failureDetail", outcome["detail"])
        disclosed = ET.SubElement(node, "disclosedBy", {"party": "requester"})
        for cred_id in outcome.get("disclosed", ()):
            ET.SubElement(disclosed, "credential", {"id": cred_id})
    return element


#: (session id, checkpoint) in append order.  Requester names and
#: failure details exercise JSON escaping (non-ASCII, quotes) and XML
#: attribute escaping (``&``, ``<``, ``>``, ``"``).
SCRIPT = (
    ("tn-1", _checkpoint("tn-1", "started", "Aircraft")),
    ("tn-2", _checkpoint("tn-2", "started", "Zoë & Co")),
    ("tn-1", _checkpoint("tn-1", "policy", "Aircraft",
                         {"success": True, "disclosed": ("c-1",)})),
    ("tn-3", _checkpoint("tn-3", "started", 'Quote "q" <x>')),
    ("tn-1", _checkpoint("tn-1", "exchange", "Aircraft",
                         {"success": True, "disclosed": ("c-1", "c-2")})),
    ("tn-2", _checkpoint("tn-2", "policy", "Zoë & Co", {
        "success": False, "reason": "no_trust_sequence",
        "detail": 'no view for "VoMembership" <root> & friends — ∅',
    })),
    ("tn-3", _checkpoint("tn-3", "policy", 'Quote "q" <x>',
                         {"success": True, "disclosed": ("c-9",)})),
)


def write_script(path: Path) -> None:
    """Append the script's checkpoints, then tear the final record."""
    wal = WALSessionStore(path)
    try:
        for session_id, element in SCRIPT:
            wal.append(session_id, element)
        assert wal.tear_last_record()
    finally:
        wal.close()


def replay_of(path: Path) -> dict:
    """What reopening ``path`` reports (reopening truncates a torn
    tail, so callers pass a copy)."""
    wal = WALSessionStore(path)
    try:
        return {
            "records": wal.records(),
            "lastLsn": wal.last_lsn,
            "tornDiscarded": wal.torn_discarded,
            "latest": {
                session_id: canonicalize(element)
                for session_id, element in sorted(wal.latest().items())
            },
        }
    finally:
        wal.close()


def test_recorded_wal_replays_identically(tmp_path):
    copy = tmp_path / "three-sessions.wal"
    shutil.copyfile(RECORDED_WAL, copy)
    recorded_replay = json.loads(RECORDED_REPLAY.read_text(encoding="utf-8"))
    assert replay_of(copy) == recorded_replay
    # recovery cut the torn tail away and kept every committed byte
    recorded = RECORDED_WAL.read_bytes()
    assert recorded.startswith(copy.read_bytes())
    assert copy.read_bytes().endswith(b"\n")


def test_same_script_writes_identical_bytes(tmp_path):
    path = tmp_path / "three-sessions.wal"
    write_script(path)
    assert path.read_bytes() == RECORDED_WAL.read_bytes()


def test_appends_after_recorded_wal_continue_its_journal(tmp_path):
    copy = tmp_path / "three-sessions.wal"
    shutil.copyfile(RECORDED_WAL, copy)
    wal = WALSessionStore(copy)
    try:
        wal.append("tn-3", SCRIPT[-1][1])
        assert wal.records() == wal.last_lsn == len(SCRIPT)
    finally:
        wal.close()
    reopened = replay_of(copy)
    assert reopened["records"] == len(SCRIPT)
    assert reopened["tornDiscarded"] == 0
    assert reopened["latest"]["tn-3"] == canonicalize(SCRIPT[-1][1])


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FIXTURES.mkdir(exist_ok=True)
    write_script(RECORDED_WAL)
    replay_copy = FIXTURES / "replay.tmp"
    shutil.copyfile(RECORDED_WAL, replay_copy)
    try:
        replay = replay_of(replay_copy)
    finally:
        replay_copy.unlink()
    RECORDED_REPLAY.write_text(
        json.dumps(replay, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n", encoding="utf-8",
    )
    print(f"wrote {RECORDED_WAL} and {RECORDED_REPLAY}", file=sys.stderr)
