"""Cross-check the traced ledger against a cProfile attribution.

Usage, from the root of a checkout::

    python3 perfbench/crosscheck.py --workload join-distinct

Two runs of the same workload and seed, for ``SECONDS`` on one fresh
stack each:

1. traced: every chunk recorded by the ledger's span wrappers;
2. profiled: no wrappers, the same loop under :mod:`cProfile`.

For each layer with a single obvious set of entry functions it prints
the layer's inclusive share of session time by both methods, their
ratio, and the layer's time per session by both methods; the first row
is the session itself.  The two are biased in opposite directions.  cProfile charges
its own cost to every Python call it sees, builtins such as ``pow``
included, so call-heavy code and the session root it divides by grow,
and a layer made of few expensive calls (``rsa.sign``) shrinks.  The
wrappers charge their cost to the layer they wrap, so a layer of many
short calls grows.  Agreement within a few points is what the ledger
needs; where the two differ more, an independent timing has to decide
(see the README).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
SEED = 1
SECONDS = 8.0

#: ledger layer -> profiled functions, as (source file suffix, name).
LAYERS = {
    "crypto.sign": [("crypto/rsa.py", "sign")],
    "crypto.verify": [("crypto/rsa.py", "verify"),
                      ("crypto/rsa.py", "verify_batch")],
    "storage.wal_append": [("storage/session_store.py", "append")],
    "xmlutil.canonicalize": [("xmlutil/canonical.py", "canonicalize")],
    "policy.compliance": [("policy/compliance.py", "candidates"),
                          ("policy/compliance.py", "satisfies_term"),
                          ("policy/compliance.py", "satisfy"),
                          ("policy/compliance.py", "first_satisfiable")],
    "credentials.validate": [("credentials/validation.py", "validate")],
    "hardening.guard": [("hardening/guard.py", "validate"),
                        ("hardening/guard.py", "check_transition")],
}
#: The session root, as profiled: the client's three-operation call.
ROOT_FUNCTIONS = [("services/tn_client.py", "negotiate"),
                  ("services/aio.py", "negotiate")]


def _profiled_seconds(stats: pstats.Stats, functions) -> float:
    total = 0.0
    for (filename, _, name), row in stats.stats.items():
        cumulative = row[3]
        for suffix, wanted in functions:
            if name == wanted and filename.replace(os.sep, "/").endswith(
                suffix
            ):
                total += cumulative
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="join-distinct",
                        choices=("join-distinct", "policy-bushy"))
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    from ledger import Tracer, default_points
    from stacks import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="crosscheck-", dir=WORKDIR)
    cls = WORKLOADS[args.workload]
    try:
        tracer = Tracer(default_points())
        tracer.install()
        try:
            traced = cls(SEED, workdir, tracer)
            traced.setup()
            traced.run_for(float("inf"), max_sessions=traced.warmup)
            tracer.active = True
            traced_sessions = traced.run_for(SECONDS).sessions
            tracer.active = False
            traced.finish()
        finally:
            tracer.uninstall()
        ledger = tracer.ledger()
        root_s = ledger.roots["client"][1]

        profiled = cls(SEED, workdir)
        profiled.setup()
        profiled.run_for(float("inf"), max_sessions=profiled.warmup)
        profiler = cProfile.Profile()
        profiler.enable()
        profiled_sessions = profiled.run_for(SECONDS).sessions
        profiler.disable()
        profiled.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stats = pstats.Stats(profiler)
    profile_root_s = _profiled_seconds(stats, ROOT_FUNCTIONS)

    rows = {}
    print(f"{'layer':24s} {'ledger':>8s} {'cProfile':>9s} {'ratio':>6s}"
          f" {'ledger ms':>10s} {'cProfile ms':>12s}")
    layers = {"session": (root_s, profile_root_s)}
    layers.update(
        (layer, (ledger.inclusive_s.get(layer, 0.0),
                 _profiled_seconds(stats, functions)))
        for layer, functions in LAYERS.items()
    )
    for layer, (ledger_s, profile_s) in layers.items():
        ledger_share = ledger_s / root_s
        profile_share = profile_s / profile_root_s
        ratio = ledger_share / profile_share if profile_share else None
        ledger_ms = ledger_s * 1e3 / max(1, traced_sessions)
        profile_ms = profile_s * 1e3 / max(1, profiled_sessions)
        rows[layer] = {"ledger": ledger_share, "cprofile": profile_share,
                       "ratio": ratio, "ledger_ms": ledger_ms,
                       "cprofile_ms": profile_ms}
        print(f"{layer:24s} {ledger_share:8.1%} {profile_share:9.1%} "
              + (f"{ratio:6.2f}" if ratio is not None else "     -")
              + f" {ledger_ms:10.3f} {profile_ms:12.3f}")
    out = os.path.join(WORKDIR, f"crosscheck-{args.workload}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": SECONDS,
                   "layers": rows}, handle, indent=2)
    print(f"written to {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
