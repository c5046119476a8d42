#!/usr/bin/env python3
"""Record a benchmark baseline: every workload on seeds 1..RUNS, then one
traced run each (seed 1), written as JSON.  Each run measures for
`run_seconds` of BENCHMARK.json.

For each workload and end-to-end metric the record holds the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread (quartile
distance / median); next to them, one traced run's per-layer metrics.

    python3 bench/record.py --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import run_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("axiom-suite", "nf-roundtrip", "dense-mixture", "monte-carlo")
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    record = {"machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                         f"Python {platform.python_version()}",
              "seeds": list(range(1, RUNS + 1)),
              "seconds": run_seconds(), "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        ops = []
        for seed in record["seeds"]:
            result = run(workload, seed, 0)
            ops.append(result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        traced = run(workload, record["seeds"][0], 1)
        record["workloads"][workload] = {
            "ops_per_run": ops,
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
        }
        for name, v in values.items():
            print(f"  {name:12s} spread {summary(v)['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
