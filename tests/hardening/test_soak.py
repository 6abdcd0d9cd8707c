"""The chaos-soak acceptance bar, sync-driver parity, and the report
plumbing."""

import json

from repro.hardening.soak import SoakConfig
from tests.hardening.soak_helpers import normalised_json, recorded, seeded_soak


class TestChaosSoakAcceptance:
    def test_2000_negotiations_zero_violations(self):
        """The PR's acceptance criterion: a seeded soak of >= 2000
        mixed negotiations under adversarial faults and overload
        completes with zero invariant violations and zero unhandled
        exceptions."""
        report = seeded_soak(SoakConfig(seed=7, negotiations=2000))
        assert report.ok, report.to_json()
        assert report.violations == []
        assert report.unhandled == []
        # The storm actually happened: every subsystem was exercised.
        assert report.successes > 0
        assert sum(report.probes_fired.values()) > 0
        assert report.probe_rejections > 0
        assert report.probe_anomalies == []
        assert report.admission_shed > 0
        assert report.admission_expired > 0
        assert report.guard_rejected > 0
        assert report.backpressure_waits > 0
        assert report.reaped > 0
        assert report.byzantine_attempts > 0
        assert report.byzantine_successes == 0
        assert report.internal_errors == 0
        assert report.fuzz_probes > 0
        assert report.fuzz_failures == []
        assert report.summary().startswith("PASS")
        # Sync parity: the drill plan reproduces the recorded report of
        # the soak it replaced, byte for byte.
        assert normalised_json(report) == recorded("sync-seed7-2000")

    def test_retraction_drills_match_recorded_report(self):
        report = seeded_soak(
            SoakConfig(seed=7, negotiations=300, retract_every=25)
        )
        assert report.ok, report.to_json()
        assert report.retraction_drills > 0
        assert report.stale_completions == 0
        assert normalised_json(report) == recorded("sync-retract-300")


class TestSoakDeterminismAndReport:
    def test_same_seed_same_report(self):
        config = SoakConfig(seed=21, negotiations=60, roles=3)
        first = seeded_soak(config)
        second = seeded_soak(config)
        assert first.to_dict() == second.to_dict()

    def test_same_seed_byte_identical_with_every_drill(self, tmp_path):
        config = SoakConfig(
            seed=9, negotiations=80, roles=3, cluster_shards=3,
            node_kill_every=20, retract_every=15, byzantine_every=17,
        )
        assert seeded_soak(config).to_json() == seeded_soak(config).to_json()

    def test_different_seed_different_storm(self):
        base = seeded_soak(SoakConfig(seed=3, negotiations=60, roles=3))
        other = seeded_soak(SoakConfig(seed=4, negotiations=60, roles=3))
        assert base.to_dict() != other.to_dict()

    def test_report_json_round_trips(self):
        report = seeded_soak(SoakConfig(seed=5, negotiations=40, roles=2))
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is report.ok
        assert decoded["seed"] == 5
        assert decoded["negotiations"] == 40
        assert decoded["admission"]["offered"] == (
            decoded["admission"]["admitted"]
            + decoded["admission"]["shed"]
            + decoded["admission"]["expired"]
        )
