"""Wall-clock benchmark of the TN/VO stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-distinct --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it wraps each layer's public
entry points (see ``ledger.py``), alternates traced and untraced
chunks, and reports the per-layer ledger.  Either way every session is
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the program
under test cannot be found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space (WAL directories, span dumps), inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Measurement window; a machine probe runs between windows.
WINDOW_S = 0.5
#: A window is clean when its probes are within this share of the
#: cleanest window's of its stratum (see ``clean_flags``).
CLEAN_MARGIN = 0.10
STRATA = 4
#: The machine probe's time on the reference machine at its best
#: observed speed.  Reported timings are rescaled to it.
PROBE_REFERENCE_S = 0.00075
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "sessions_per_s": "1/s",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
    "formation_ms": "ms",
    "formation_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "crypto.signs": "1/session",
    "crypto.sign_ms": "ms/session",
    "crypto.verifies": "1/session",
    "crypto.verify_ms": "ms/session",
    "negotiation.engine_self_ms": "ms/session",
    "negotiation.policy_messages": "1/session",
    "negotiation.exchange_messages": "1/session",
    "policy.compliance_ms": "ms/session",
    "seqcache.hits": "1/session",
    "seqcache.misses": "1/session",
    "seqcache.hit_rate": "ratio",
    "seqcache.invalidations": "1/session",
    "seqcache.replay_ms": "ms/session",
    "perf.signature_verify.hit_rate": "ratio",
    "perf.xpath_ast.hit_rate": "ratio",
    "perf.canonical_xml.hit_rate": "ratio",
    "perf.element_digest.hit_rate": "ratio",
    "trust.retractions": "1/session",
    "trust.retract_ms": "ms/session",
    "trust.evicted": "1/session",
    "credentials.validate_calls": "1/session",
    "credentials.validate_self_ms": "ms/session",
    "storage.wal_appends": "1/session",
    "storage.wal_append_ms": "ms/session",
    "storage.wal_bytes_per_session": "B/session",
    "storage.doc_put_ms": "ms/session",
    "xmlutil.canonicalize_ms": "ms/session",
    "hardening.guard_ms": "ms/session",
    "hardening.admission_ms": "ms/session",
    "hardening.shed": "1/session",
    "tn_service.self_ms": "ms/session",
    "cluster.route_self_ms": "ms/session",
    "cluster.failovers": "1/session",
    "cluster.start_replays": "1/session",
    "resilience.attempts": "1/session",
    "resilience.retries": "1/session",
    "resilience.self_ms": "ms/session",
    "vo.join_self_ms": "ms/session",
    "vo.admit_ms": "ms/session",
    "transport.calls_per_session": "1/session",
    "transport.sim_ms_per_session": "ms/session",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def tail(samples: list[float], q: float) -> tuple[float, float]:
    """``(percentile used, value)``: ``q``, or the highest lower
    standard percentile that still has ten samples beyond it."""
    from repro.obs.metrics import percentile

    for candidate in PERCENTILES:
        if candidate > q:
            continue
        if len(samples) * (100.0 - candidate) / 100.0 >= 10 or candidate == 50:
            return candidate, percentile(samples, candidate)
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes, best of three.

    The work (string formatting, dict inserts, a sort, lookups) does
    not touch the program under test, so its time only tells how fast
    the machine runs right now.
    """
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        table = {}
        for value in range(3000):
            table[str(value)] = value * value
        sum(table[key] for key in sorted(table))
        best = min(best, time.perf_counter() - began)
    return best


def speed_factors(probes: list[float]) -> list[float]:
    """Per interval between consecutive probes, the factor that
    rescales a wall-clock time measured in it to the reference machine
    speed: ``PROBE_REFERENCE_S`` over the mean of its two probes."""
    return [
        2 * PROBE_REFERENCE_S / (before + after)
        for before, after in zip(probes, probes[1:])
    ]


def clean_flags(probes: list[float]) -> list[bool]:
    """Which of the intervals between consecutive probes to measure.

    Other tenants of a shared host slow this one down by up to 1.7x
    for seconds at a time, and only ever slow it down.  An interval is
    judged by the slower of its two bounding probes.  The intervals are
    split into ``STRATA`` consecutive groups, so that the kept ones are
    spread over the whole run: the program's own state drifts as a run
    goes on (the TN service keeps every session it served).  In each
    group an interval is clean when it is within ``CLEAN_MARGIN`` of
    the group's best, or no worse than the group's median, so at least
    half of every group counts.
    """
    bounds = [max(pair) for pair in zip(probes, probes[1:])]
    size = -(-len(bounds) // STRATA)
    flags = []
    for first in range(0, len(bounds), size):
        group = bounds[first:first + size]
        cutoff = max(min(group) * (1 + CLEAN_MARGIN),
                     statistics.median(group))
        flags.extend(bound <= cutoff for bound in group)
    return flags


def setup_times(workload) -> tuple[list[float], list[float]]:
    """Build the workload ``setup_repeats`` times, keeping the last;
    returns the rescaled times of the clean set-ups, and the raw times
    of all of them.  Releasing the previous build, and collecting its
    garbage, happen before the stopwatch starts, so every sample times
    construction alone."""
    times = []
    probes = [machine_probe()]
    for _ in range(workload.setup_repeats):
        workload.teardown()
        gc.collect()
        began = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - began)
        probes.append(machine_probe())
    scaled = [
        elapsed * factor
        for elapsed, factor, clean in zip(
            times, speed_factors(probes), clean_flags(probes)
        )
        if clean
    ]
    return scaled, times


def measure_windows(workload, seconds: float,
                    rss_after: Optional[int] = None,
                    before_window=None) -> tuple[list, list[float], float]:
    """Run ``WINDOW_S`` chunks with a probe between each for
    ``seconds``; returns the chunks, the probes, and the peak RSS, read
    as soon as ``rss_after`` sessions were measured (at the end when
    fewer were).  ``before_window(index)`` runs before each window."""
    chunks = []
    probes = [machine_probe()]
    measured = 0
    rss_mb = None
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        if before_window is not None:
            before_window(len(chunks))
        cap = None
        if rss_after is not None and rss_mb is None:
            cap = rss_after - measured
        chunk = workload.run_for(WINDOW_S, max_sessions=cap)
        measured += chunk.sessions
        if cap is not None and measured >= rss_after:
            rss_mb = peak_rss_mb()
        chunks.append(chunk)
        probes.append(machine_probe())
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    return chunks, probes, rss_mb


def end_to_end(workload, seconds: float) -> tuple[dict, list[str]]:
    clean_setups, setups = setup_times(workload)
    workload.run_for(float("inf"), max_sessions=workload.warmup)
    gc.collect()
    chunks, probes, rss_mb = measure_windows(
        workload, seconds, workload.rss_after
    )
    measured = sum(chunk.sessions for chunk in chunks)
    kept = [
        (chunk, factor) for chunk, factor, clean in zip(
            chunks, speed_factors(probes), clean_flags(probes)
        ) if clean
    ]
    latencies = [x * f for chunk, f in kept for x in chunk.latencies_s]
    batches = [x * f for chunk, f in kept for x in chunk.batches_s]
    wall = sum(chunk.wall_s * f for chunk, f in kept)
    raw_wall = sum(chunk.wall_s for chunk, _ in kept)
    if not latencies or not batches:
        # Every session raised (each already counted as failed): report
        # the run as incorrect rather than inventing timings.
        workload.fail(f"{workload.name}: no session completed in "
                      f"{seconds} s", count=0)
        return dict.fromkeys(END_TO_END, 0.0), []
    from repro.obs.metrics import percentile
    from stacks import BATCH

    session_q, session_tail = tail(latencies, workload.session_tail_q)
    batch_q, batch_tail = tail(batches, workload.batch_tail_q)
    values = {
        "sessions_per_s": len(latencies) / wall,
        "session_p50_ms": percentile(latencies, 50) * 1e3,
        "session_tail_ms": session_tail * 1e3,
        "formation_ms": percentile(batches, 50) * 1e3,
        "formation_tail_ms": batch_tail * 1e3,
        "setup_s": statistics.median(clean_setups),
        "peak_rss_mb": rss_mb,
    }
    raw = sorted(x for chunk, _ in kept for x in chunk.latencies_s)
    notes = [
        f"{len(kept)}/{len(chunks)} windows clean, {raw_wall:.2f} s; "
        f"{len(latencies)} sessions; session_tail_ms is p{session_q:g}",
        f"before rescaling to the reference speed (x{wall / raw_wall:.3f}): "
        f"sessions_per_s={len(raw) / raw_wall:.2f}, "
        f"session_p50_ms={percentile(raw, 50) * 1e3:.3f}",
        f"{len(batches)} formation batches (of {BATCH} sessions, or one "
        f"VO); formation_tail_ms is p{batch_q:g}",
        f"setup_s over {len(clean_setups)}/{len(setups)} clean set-ups: "
        + ", ".join(f"{t:.3f}" for t in setups),
        f"peak_rss_mb read after {min(measured, workload.rss_after)} "
        "measured sessions",
        "machine probe ms: best {:.3f}, median {:.3f}, worst {:.3f}".format(
            *(1e3 * value for value in (
                min(probes), statistics.median(probes), max(probes),
            ))
        ),
    ]
    return values, notes


def _perf_cache_stats() -> dict[str, tuple[int, int]]:
    from repro.perf import all_stats

    return {
        name: (stats.hits, stats.misses)
        for name, stats in all_stats().items()
    }


def _rate(chunks: list, factors: list[float], flags: list[bool]) -> float:
    """Rescaled sessions per second over the clean chunks (all of them,
    if none is)."""
    kept = [
        (chunk, factor)
        for chunk, factor, clean in zip(chunks, factors, flags) if clean
    ] or list(zip(chunks, factors))
    wall = sum(chunk.wall_s * factor for chunk, factor in kept)
    return sum(chunk.sessions for chunk, _ in kept) / wall if wall else 0.0


def traced(workload, tracer, seconds: float, spans_path: str
           ) -> tuple[dict, list[str]]:
    workload.setup()
    workload.run_for(float("inf"), max_sessions=workload.warmup)
    gc.collect()
    counters_before = workload.counters()
    caches_before = _perf_cache_stats()

    def toggle(index: int) -> None:
        tracer.active = index % 2 == 1

    chunks, probes, _ = measure_windows(workload, seconds,
                                        before_window=toggle)
    tracer.active = False
    flags = clean_flags(probes)
    factors = speed_factors(probes)
    plain = _rate(chunks[0::2], factors[0::2], flags[0::2])
    timed = _rate(chunks[1::2], factors[1::2], flags[1::2])
    counters_after = workload.counters()
    caches_after = _perf_cache_stats()
    tracer.write(spans_path)

    traced_windows = [
        (chunk, factor) for chunk, factor, clean in zip(
            chunks[1::2], factors[1::2], flags[1::2]
        ) if clean
    ] or list(zip(chunks[1::2], factors[1::2]))
    ledger = tracer.ledger(within=[
        (chunk.began, chunk.began + chunk.wall_s)
        for chunk, _ in traced_windows
    ])
    scale = statistics.mean(factor for _, factor in traced_windows)
    sessions = max(1, ledger.calls.get("client", 0))
    counted = max(1, counters_after["sessions"] - counters_before["sessions"])

    def ms(layer: str, inclusive: bool = True) -> float:
        table = ledger.inclusive_s if inclusive else ledger.self_s
        return table.get(layer, 0.0) * 1e3 * scale / sessions

    def calls(layer: str) -> float:
        return ledger.calls.get(layer, 0) / sessions

    def per_session(counter: str) -> float:
        delta = (counters_after.get(counter, 0)
                 - counters_before.get(counter, 0))
        return delta / counted

    def hit_rate(name: str) -> float:
        hits = caches_after[name][0] - caches_before[name][0]
        misses = caches_after[name][1] - caches_before[name][1]
        return hits / (hits + misses) if hits + misses else 0.0

    seq_hits = per_session("seqcache.hits")
    seq_misses = per_session("seqcache.misses")
    root = "bench.formation" if workload.name == "formation" else "client"
    values = {
        "crypto.signs": calls("crypto.sign"),
        "crypto.sign_ms": ms("crypto.sign"),
        "crypto.verifies": calls("crypto.verify"),
        "crypto.verify_ms": ms("crypto.verify"),
        "negotiation.engine_self_ms": ms("negotiation.engine", False),
        "negotiation.policy_messages": per_session("policy_messages"),
        "negotiation.exchange_messages": per_session("exchange_messages"),
        "policy.compliance_ms": ms("policy.compliance"),
        "seqcache.hits": seq_hits,
        "seqcache.misses": seq_misses,
        "seqcache.hit_rate": (
            seq_hits / (seq_hits + seq_misses)
            if seq_hits + seq_misses else 0.0
        ),
        "seqcache.invalidations": per_session("seqcache.invalidations"),
        "seqcache.replay_ms": ms("seqcache.replay"),
        "perf.signature_verify.hit_rate": hit_rate("signature_verify"),
        "perf.xpath_ast.hit_rate": hit_rate("xpath_ast"),
        "perf.canonical_xml.hit_rate": hit_rate("canonical_xml"),
        "perf.element_digest.hit_rate": hit_rate("element_digest"),
        "trust.retractions": per_session("retractions"),
        "trust.retract_ms": ms("trust.retract"),
        "trust.evicted": per_session("evicted"),
        "credentials.validate_calls": calls("credentials.validate"),
        "credentials.validate_self_ms": ms("credentials.validate", False),
        "storage.wal_appends": calls("storage.wal_append"),
        "storage.wal_append_ms": ms("storage.wal_append"),
        "storage.wal_bytes_per_session": per_session("storage.wal_bytes"),
        "storage.doc_put_ms": ms("storage.doc_put"),
        "xmlutil.canonicalize_ms": ms("xmlutil.canonicalize"),
        "hardening.guard_ms": ms("hardening.guard"),
        "hardening.admission_ms": ms("hardening.admission"),
        "hardening.shed": per_session("hardening.shed"),
        "tn_service.self_ms": ms("tn_service", False),
        "cluster.route_self_ms": ms("cluster", False),
        "cluster.failovers": per_session("cluster.failovers"),
        "cluster.start_replays": per_session("cluster.start_replays"),
        "resilience.attempts": per_session("resilience.attempts"),
        "resilience.retries": per_session("resilience.retries"),
        "resilience.self_ms": ms("resilience", False),
        "vo.join_self_ms": ms("vo.join", False),
        "vo.admit_ms": ms("vo.admit"),
        "transport.calls_per_session": per_session("transport.calls"),
        "transport.sim_ms_per_session": per_session("sim_ms"),
        "trace.coverage": ledger.coverage(root),
        "trace.overhead": timed / plain if plain else 0.0,
    }
    total_self = sum(ledger.self_s.values()) or 1.0
    notes = [
        f"{sessions} traced sessions at {timed:.1f}/s, untraced "
        f"{plain:.1f}/s (clean windows); "
        f"{len(tracer.spans)} spans written to "
        f"{os.path.relpath(spans_path, ROOT)}",
        "self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in sorted(
                ((layer, value / total_self)
                 for layer, value in ledger.self_s.items()),
                key=lambda item: -item[1],
            )
        ),
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing: no "
              f"{os.path.relpath(os.path.join(SRC, 'repro'), ROOT)} "
              "next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ledger import Tracer, default_points
    from stacks import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    tracer = None
    try:
        if args.trace:
            tracer = Tracer(default_points())
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        try:
            if args.trace:
                spans_path = os.path.join(
                    WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
                )
                values, notes = traced(
                    workload, tracer, args.seconds, spans_path
                )
                units = PER_LAYER
            else:
                values, notes = end_to_end(workload, args.seconds)
                units = END_TO_END
        finally:
            workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = workload.failed == 0 and not workload.problems
    for note in notes:
        print(f"# {args.workload}: {note}")
    print(f"# {args.workload}: failed_share="
          f"{workload.failed / max(1, workload.attempted)} "
          f"({workload.failed}/{workload.attempted})")
    for problem in workload.problems:
        print(f"# FAIL {problem}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
