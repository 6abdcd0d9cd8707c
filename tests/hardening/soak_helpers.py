"""Helpers shared by the chaos-soak tests."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.hardening.soak import chaos_soak
from repro.services import tn_client

#: Reports of the seeded parity configs, recorded from the soak as it
#: stood before the drills were merged into one plan (two separate
#: sync and asyncio implementations), each from a fresh requestId
#: counter, with the audit-log path replaced by ``<audit>``.
RECORDED = Path(__file__).resolve().parent / "soak_reports"


def seeded_soak(config, plan=None):
    """Run the soak from a fresh requestId counter.

    Cluster routing hashes the process-wide requestId counter, so two
    runs compare equal only from the same counter state; the process
    counter is restored afterwards.
    """
    saved = tn_client._request_ids
    tn_client._request_ids = itertools.count(1)
    try:
        return chaos_soak(config, plan)
    finally:
        tn_client._request_ids = saved


def normalised_json(report) -> str:
    """``report.to_json()`` with the audit-log path normalised."""
    data = json.loads(report.to_json())
    if data["audit"] is not None:
        data["audit"]["path"] = "<audit>"
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def recorded(name: str) -> str:
    return (RECORDED / f"{name}.json").read_text()
