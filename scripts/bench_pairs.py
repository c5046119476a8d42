#!/usr/bin/env python3
"""Paired benchmark runs of two trees: a parent and a change.

For each workload and seed, runs ``bench/run.py --trace 0`` once from each
tree, one process at a time, alternating which side runs first (the parent
first in pairs 0, 2, 4, ... of the run order).  Prints each side's median
and quartiles per end-to-end metric, the pairs the change wins and whether
a gain holds (better in at least 9 of 10 pairs and, in the median, by more
than the distance between the parent's quartiles), and writes the record
as a ``BENCH_*.json`` file.  Quartiles are `summary` of bench/record.py.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --parent-rev REV \\
        --pairs axiom-suite:1-10 --pairs nf-roundtrip:1-4 --extra axiom-suite:11 \\
        --describe "what changed" --claim "what is claimed" --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True   # write nothing under bench/
sys.path.insert(0, os.path.join(ROOT, "bench"))
from record import summary  # noqa: E402
from run import run_seconds  # noqa: E402

SIDES = ("parent", "change")


def directions() -> dict:
    """{metric: "higher" or "lower"}: the end-to-end metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def compare(parent: list, change: list, better: str) -> dict:
    """One metric over paired runs: the pairs the change wins, its median
    over the parent's minus 1, the parent's quartile spread, both sides'
    medians and quartiles, and whether a gain holds."""
    before, after = summary(parent), summary(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    gap = sign * (after["median"] - before["median"])
    return {"change_wins": wins,
            "change_vs_parent": after["median"] / before["median"] - 1,
            "parent_quartile_spread": before["spread"],
            "medians": {"parent": before["median"], "change": after["median"],
                        "parent_quartiles": [before["q1"], before["q3"]],
                        "change_quartiles": [after["q1"], after["q3"]]},
            "gain_holds": 10 * wins >= 9 * len(parent)
            and gap > before["q3"] - before["q1"]}


def seeds_of(text: str) -> list:
    """``"1-10"`` or ``"1,3,5"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def plan(spec: str) -> tuple:
    workload, _, seeds = spec.partition(":")
    return workload, seeds_of(seeds)


def run_one(tree: str, workload: str, seed: int) -> tuple:
    """(exit code, the last JSON line of ``bench/run.py``) at the benchmark's
    own run length; stops when the run printed none."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, timeout=900)
    try:
        return proc.returncode, json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from None


def run_pair(trees: dict, workload: str, seed: int, index: int, runs) -> dict:
    """{side: (exit, result, ran first)} of one pair, appended to `runs`."""
    order = SIDES if index % 2 == 0 else SIDES[::-1]
    out = {}
    for side in order:
        code, result = run_one(trees[side], workload, seed)
        runs.append({"workload": workload, "seed": seed, "side": side,
                     "first": order[0], "exit": code, "result": result})
        out[side] = (code, result, side == order[0])
        print(f"{workload} seed {seed} {side}: exit {code}, ops_per_s "
              f"{result['metrics']['ops_per_s']['value']:.1f}", flush=True)
    return out


def side_record(pairs: list, side: str, names) -> dict:
    results = [pair[side][1] for pair in pairs]
    return {"attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "exit": [pair[side][0] for pair in pairs],
            "first": [pair[side][2] for pair in pairs],
            "end_to_end": {name: [r["metrics"][name]["value"] for r in results]
                           for name in names}}


def workload_record(seeds: list, pairs: list, better: dict) -> tuple:
    """(the workload's record, each metric's `compare`)."""
    record = {"seeds": seeds, **{side: side_record(pairs, side, better)
                                 for side in SIDES}}
    stats = {name: compare(record["parent"]["end_to_end"][name],
                           record["change"]["end_to_end"][name], direction)
             for name, direction in better.items()}
    for key in ("change_wins", "change_vs_parent", "parent_quartile_spread",
                "medians"):
        record[key] = {name: s[key] for name, s in stats.items()}
    return record, stats


def report(workload: str, stats: dict, pairs: int) -> None:
    print(f"== {workload} ({pairs} pairs)")
    for name, s in stats.items():
        m = s["medians"]
        print(f"  {name:12s} parent {m['parent']:.4g} [{m['parent_quartiles'][0]:.4g}, "
              f"{m['parent_quartiles'][1]:.4g}]  change {m['change']:.4g} "
              f"[{m['change_quartiles'][0]:.4g}, {m['change_quartiles'][1]:.4g}]  "
              f"{s['change_vs_parent']:+.1%}, wins {s['change_wins']}/{pairs}, "
              f"gain holds: {'yes' if s['gain_holds'] else 'no'}", flush=True)


def machine() -> str:
    try:
        import numpy
        numpy = f", NumPy {numpy.__version__}"
    except ImportError:
        numpy = ""
    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}{numpy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="the parent's tree")
    parser.add_argument("change", help="the change's tree")
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD:SEEDS", help="e.g. axiom-suite:1-10")
    parser.add_argument("--extra", metavar="WORKLOAD:SEED",
                        help="one more pair, on a seed not run while changing")
    parser.add_argument("--describe", default="")
    parser.add_argument("--claim", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    better = directions()
    runs, index, workloads = [], 0, {}
    for workload, seeds in map(plan, args.pairs):
        pairs = []
        for seed in seeds:
            pairs.append(run_pair(trees, workload, seed, index, runs))
            index += 1
        workloads[workload], stats = workload_record(seeds, pairs, better)
        report(workload, stats, len(seeds))
    record = {"change": args.describe, "claim": args.claim,
              "command": "python3 bench/run.py --workload W --seed N --trace 0",
              "machine": machine(),
              "method": "pairs of parent and change on the same seed, alternating "
                        "which runs first (the parent first in pairs 0, 2, 4, ... "
                        "of the run order); each side runs from its own copy of "
                        "the tree, one process at a time; 'change_wins' counts "
                        "pairs where the change is better; 'change_vs_parent' is "
                        "the change's median over the parent's, minus 1; "
                        "'parent_quartile_spread' is the distance between the "
                        "parent's quartiles (statistics.quantiles, n=4, as in "
                        "bench/record.py) over its median; 'medians' holds each "
                        "side's median and quartiles; 'extra_pair' is one pair on "
                        "a seed not run while the change was written",
              "parent": args.parent_rev, "seconds": run_seconds(),
              "workloads": workloads, "extra_pair": None, "runs": runs}
    if args.extra:
        workload, (seed,) = plan(args.extra)
        pair = run_pair(trees, workload, seed, index, runs)
        record["extra_pair"] = {"workload": workload, "seed": seed, **{
            side: {**{name: m["value"] for name, m in result["metrics"].items()},
                   "first": first, "exit": code, "failed": result["failed"]}
            for side, (code, result, first) in pair.items()}}
        print(f"extra {workload} seed {seed}: ops_per_s " + ", ".join(
            f"{side} {record['extra_pair'][side].get('ops_per_s')}" for side in SIDES))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
