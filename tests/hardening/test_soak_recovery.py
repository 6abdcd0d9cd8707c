"""The crash-recovery acceptance bar: a seeded kill-restart soak over
the sharded cluster with durable WAL journals and a hash-chained audit
log, plus the negative tamper-detection check on the produced log."""

import json

from repro.hardening.soak import SoakConfig
from repro.obs.audit import verify_audit_log
from tests.hardening.soak_helpers import normalised_json, recorded, seeded_soak


class TestKillRestartSoakAcceptance:
    def test_500_negotiations_with_kills_zero_lost_sessions(self, tmp_path):
        """The PR's acceptance criterion: >= 500 seeded negotiations on
        a 3-shard cluster with periodic node kills (every third one
        tearing the victim's WAL tail first) completes with zero
        invariant violations — including zero terminal sessions lost
        across crash/recovery — and a verifiable audit chain."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        audit_log = tmp_path / "audit.jsonl"
        report = seeded_soak(SoakConfig(
            seed=7,
            negotiations=500,
            cluster_shards=3,
            node_kill_every=60,
            wal_dir=str(wal_dir),
            audit_log_path=str(audit_log),
        ))
        assert report.ok, report.to_json()
        assert report.violations == []
        assert report.unhandled == []
        # The drills actually happened and the cluster actually healed.
        assert report.node_kills > 0
        assert report.node_restarts > 0
        assert report.failovers > 0
        assert report.torn_records_discarded > 0
        assert report.wal_records > 0
        assert report.summary().startswith("PASS")
        # Sync parity with the recorded report of the replaced soak.
        assert normalised_json(report) == recorded("sync-cluster-500")

        # The canonical record verifies end to end.
        assert report.audit is not None
        assert report.audit["ok"] is True
        assert report.audit["events"] > 0
        assert report.audit["epochs"] > 0
        audit = verify_audit_log(audit_log)
        assert audit.ok, audit.summary()

        # Negative check: flip one byte of one committed record and the
        # chain must break at exactly that point.
        lines = audit_log.read_bytes().splitlines(keepends=True)
        tampered = lines[:]
        victim = len(lines) // 2
        tampered[victim] = tampered[victim].replace(b"1", b"2", 1)
        assert tampered[victim] != lines[victim]
        audit_log.write_bytes(b"".join(tampered))
        broken = verify_audit_log(audit_log)
        assert not broken.ok
        assert broken.error_line is not None

    def test_cluster_soak_report_round_trips(self, tmp_path):
        report = seeded_soak(SoakConfig(
            seed=11, negotiations=120, roles=3,
            cluster_shards=2, node_kill_every=40,
            wal_dir=str(tmp_path),
        ))
        assert report.ok, report.to_json()
        decoded = json.loads(report.to_json())
        assert decoded["cluster"]["nodeKills"] == report.node_kills
        assert decoded["cluster"]["nodeRestarts"] == report.node_restarts
        assert decoded["cluster"]["failovers"] == report.failovers
        assert decoded["cluster"]["walRecords"] == report.wal_records
