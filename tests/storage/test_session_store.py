"""SessionStore backends: journal semantics, WAL recovery, torn writes."""

from xml.etree import ElementTree as ET

import pytest

from repro.errors import StorageError
from repro.storage.session_store import (
    InMemorySessionStore,
    WALSessionStore,
)
from repro.xmlutil.canonical import canonicalize


def checkpoint(session_id: str, phase: str) -> ET.Element:
    element = ET.Element("negotiationSession")
    element.set("id", session_id)
    element.set("phase", phase)
    return element


@pytest.fixture(params=["memory", "wal"])
def store(request, tmp_path):
    if request.param == "memory":
        yield InMemorySessionStore()
    else:
        wal = WALSessionStore(tmp_path / "sessions.wal")
        yield wal
        wal.close()


class TestJournalSemantics:
    def test_latest_returns_last_checkpoint_per_session(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-2", checkpoint("tn-2", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        latest = store.latest()
        assert set(latest) == {"tn-1", "tn-2"}
        assert latest["tn-1"].get("phase") == "policy"
        assert latest["tn-2"].get("phase") == "started"
        assert store.records() == 3

    def test_empty_store(self, store):
        assert store.latest() == {}
        assert store.records() == 0
        assert store.tear_last_record() is False

    def test_tear_discards_final_record(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        assert store.tear_last_record() is True
        assert store.torn_discarded == 1
        assert store.latest()["tn-1"].get("phase") == "started"
        assert store.records() == 1

    def test_append_after_tear_overwrites_torn_tail(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        store.tear_last_record()
        store.append("tn-1", checkpoint("tn-1", "exchange"))
        assert store.latest()["tn-1"].get("phase") == "exchange"
        assert store.records() == 2


class TestWALRecovery:
    def test_reopen_replays_journal(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-2", checkpoint("tn-2", "started"))
        wal.close()

        reopened = WALSessionStore(path)
        assert reopened.records() == 3
        assert reopened.last_lsn == 3
        latest = reopened.latest()
        assert latest["tn-1"].get("phase") == "policy"
        assert latest["tn-2"].get("phase") == "started"

    def test_reopen_discards_torn_final_record(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.close()
        # chop the final line in half, as a mid-append power loss would
        data = path.read_bytes()
        cut = data[:-1].rfind(b"\n") + 1
        path.write_bytes(data[: cut + (len(data) - cut) // 2])

        recovered = WALSessionStore(path)
        assert recovered.torn_discarded == 1
        assert recovered.records() == 1
        assert recovered.latest()["tn-1"].get("phase") == "started"
        # recovery physically truncated the torn tail
        assert path.read_bytes().endswith(b"\n")

    def test_append_after_torn_recovery_continues_lsn(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.tear_last_record()
        wal.append("tn-1", checkpoint("tn-1", "expired"))
        wal.close()

        reopened = WALSessionStore(path)
        assert reopened.records() == 2
        assert reopened.last_lsn == 2
        assert reopened.latest()["tn-1"].get("phase") == "expired"

    def test_mid_file_corruption_is_not_a_torn_write(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert b"policy" in lines[1]
        lines[1] = lines[1].replace(b"policy", b"hacked", 1)
        path.write_bytes(b"".join(lines))

        with pytest.raises(StorageError, match="corrupt at record 2"):
            WALSessionStore(path)

    def test_lsn_gap_is_corruption(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2])

        with pytest.raises(StorageError, match="LSN gap"):
            WALSessionStore(path)

    def test_missing_file_is_an_empty_store(self, tmp_path):
        wal = WALSessionStore(tmp_path / "absent.wal")
        assert wal.records() == 0
        assert wal.latest() == {}


def _replay(path) -> tuple:
    """(records, last_lsn, canonical latest) of a fresh reopen."""
    reopened = WALSessionStore(path)
    try:
        return (
            reopened.records(),
            reopened.last_lsn,
            {sid: canonicalize(el) for sid, el in reopened.latest().items()},
        )
    finally:
        reopened.close()


class TestWALTears:
    def test_two_tears_without_append_fall_back_two_records(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-2", checkpoint("tn-2", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-2", checkpoint("tn-2", "policy"))
        assert wal.tear_last_record() and wal.tear_last_record()
        assert wal.records() == wal.last_lsn == 2
        assert wal.torn_discarded == 2
        live = {sid: canonicalize(el) for sid, el in wal.latest().items()}
        assert live == {
            "tn-1": canonicalize(checkpoint("tn-1", "started")),
            "tn-2": canonicalize(checkpoint("tn-2", "started")),
        }
        assert _replay(path) == (2, 2, live)

    def test_tear_after_tear_and_append_matches_reopen(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        for phase in ("started", "policy", "exchange"):
            wal.append("tn-1", checkpoint("tn-1", phase))
        wal.tear_last_record()
        wal.append("tn-1", checkpoint("tn-1", "expired"))
        wal.tear_last_record()
        wal.tear_last_record()
        wal.append("tn-2", checkpoint("tn-2", "started"))
        live = {sid: canonicalize(el) for sid, el in wal.latest().items()}
        assert live["tn-1"] == canonicalize(checkpoint("tn-1", "started"))
        assert (wal.records(), wal.last_lsn) == (2, 2)
        wal.close()
        assert _replay(path) == (2, 2, live)

    def test_tear_keeps_torn_bytes_until_the_next_append(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        committed = path.read_bytes()
        wal.tear_last_record()
        torn = path.read_bytes()
        first_line = committed[: committed.index(b"\n") + 1]
        assert torn.startswith(first_line) and len(torn) > len(first_line)
        assert not torn.endswith(b"\n")
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        assert path.read_bytes().startswith(first_line)
        assert path.read_bytes().count(b"\n") == 2


class TestWALHandle:
    def test_read_only_reopen_opens_no_handle(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        assert wal._handle is not None
        wal.close()
        reader = WALSessionStore(path)
        assert reader.records() == 1 and reader.latest()
        assert reader._handle is None

    def test_close_is_idempotent_and_append_reopens(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.close()
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.close()
        wal.close()
        assert wal._handle is None
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.close()
        assert _replay(path)[:2] == (2, 2)

    def test_tear_releases_the_handle(self, tmp_path):
        wal = WALSessionStore(tmp_path / "sessions.wal")
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.tear_last_record()
        assert wal._handle is None
        assert wal.records() == 0 and wal.latest() == {}
