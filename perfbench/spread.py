"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads join-distinct formation \\
        --seeds 1-10 [--out .perfbench/x.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Every run is untraced and
lasts ``run_seconds`` from ``BENCHMARK.json``.  Runs are sequential, so
they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in runs[-1]["metrics"].items()
            ), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = dict(summarize(values), values=values)
            row = metrics[name]
            bound = bounds.get(name)
            print(f"{workload:14s} {name:32s} median {row['median']:12.4f} "
                  f"q1 {row['q1']:12.4f} q3 {row['q3']:12.4f} "
                  f"spread {row['spread']:7.2%}"
                  + (f"  bound {bound:.0%}" if bound else ""), flush=True)
        report[workload] = {
            "seconds": seconds,
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
