#!/usr/bin/env python3
"""cgm benchmark: one seeded workload, closed loop, single process.

One caller issues operations back to back through cgm's public API for
`--seconds` seconds and checks every result.  With `--trace 0` the last line
of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run (see README.md).
Exits 1 when any output check fails, 2 when cgm's sources are missing.

Times are in reference seconds: the machine's current speed is probed with a
fixed pure-Python job every PROBE_EVERY_S, and each measured time is scaled
by PROBE_NOMINAL_S over the probe times around it, so that a shared host
running slower or faster for a while does not read as a change of cgm.

    python3 bench/run.py --workload axiom-suite --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
OVERHEAD_ROUNDS = 3
MIN_BEYOND = 10
PROBE_EVERY_S = 0.1
PROBE_SPAN = 10             # probes on each side averaged for one window
SETUP_PROBE_S = 0.5
PROBE_NOMINAL_S = 0.0008    # probe time at reference speed (x86-64, 2 vCPU)


def run_seconds() -> int:
    """Length of one measured run: `run_seconds` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def probe_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        table[i] = (i, acc)
    return acc


def probe() -> float:
    """Current machine speed: best of three runs of a fixed job."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        probe_work()
        best = min(best, perf_counter() - start)
    return best


def load_workload(name: str, seed: int):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


def probe_for(seconds: float) -> list:
    """Probe times, back to back for `seconds`."""
    end = perf_counter() + seconds
    times = []
    while perf_counter() < end:
        times.append(probe())
    return times


def setup_seconds(args) -> list:
    """SETUP_SAMPLES times fresh interpreter to inputs ready (`import cgm`
    plus input generation): (measured, reference) seconds each.  The parent
    probes for SETUP_PROBE_S before the first child and after every child,
    so the probes just before and just after a child bracket the host's
    speed while it ran."""
    probes = [probe_for(SETUP_PROBE_S)]
    took = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        took.append(float(proc.stdout.split()[-1]) - start)
        probes.append(probe_for(SETUP_PROBE_S))
    samples = []
    for i, seconds in enumerate(took):
        near = probes[i] + probes[i + 1]
        samples.append((seconds,
                        seconds * PROBE_NOMINAL_S * len(near) / sum(near)))
    return samples


def one_cpu():
    """Keep this process, and the set-up children it starts, on one CPU
    with numpy's BLAS on one thread.  On a shared host each CPU's speed
    drifts on its own, so the speed probe only tracks work that runs on
    the CPU the probe ran on."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def tail(latencies: list, pct: float):
    """Latency at `pct`, or at the highest percentile that still has
    MIN_BEYOND samples beyond it when the run is too short for `pct`."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(math.ceil(pct / 100 * n) - 1, 0)
    if n - 1 - index < MIN_BEYOND:
        index = max(n - 1 - MIN_BEYOND, 0)
        pct = 100 * (index + 1) / n
    return ordered[index], pct, n - 1 - index


def execute(workload, positions, on_op=None, check=True):
    """Run ops at the given positions; returns (measured latencies,
    reference latencies, failed positions)."""
    ops = workload.ops
    measured = []
    failed = set()
    probes = [probe()]
    window_of = []          # index of the probe that opens each op's window
    next_probe = perf_counter() + PROBE_EVERY_S
    for pos in positions:
        op = ops[pos % len(ops)]
        if on_op is not None:
            on_op(pos)
        start = perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a crashing op is a failed op
            result = exc
        measured.append(perf_counter() - start)
        window_of.append(len(probes) - 1)
        if isinstance(result, Exception) or \
                (check and not workload.check(op, result)):
            failed.add(pos)
        if perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = perf_counter() + PROBE_EVERY_S
    probes.append(probe())
    # The host flips between speeds every few tens of milliseconds and
    # drifts over seconds: the mean of the probes within PROBE_SPAN of an
    # op's window estimates its speed without one probe's luck.
    scale = []
    for i in range(len(probes) - 1):
        near = probes[max(i - PROBE_SPAN, 0):i + PROBE_SPAN + 2]
        scale.append(PROBE_NOMINAL_S * len(near) / sum(near))
    reference = [t * scale[w] for t, w in zip(measured, window_of)]
    return measured, reference, failed


def timed_positions(seconds: float):
    """0, 1, 2, ... until `seconds` have passed."""
    deadline = perf_counter() + seconds
    pos = 0
    while perf_counter() < deadline:
        yield pos
        pos += 1


def untraced(args) -> dict:
    setups = setup_seconds(args)
    workload = load_workload(args.workload, args.seed)
    measured, latencies, failed = execute(workload,
                                          timed_positions(args.seconds))
    done = len(latencies)
    failed |= workload.finish(done)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timings(setup, lat):
        tail_s, pct, beyond = tail(lat, workload.tail_pct)
        return {"setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_tail_ms": (tail_s * 1e3, "ms"),
                "peak_rss_mb": (rss, "MB")}, pct, beyond

    metrics, tail_pct, beyond = timings([r for _, r in setups], latencies)
    raw, _, _ = timings([m for m, _ in setups], measured)
    print(f"workload {workload.name}, seed {args.seed}: {workload.size}")
    print(f"{done} ops in {sum(measured):.2f} s busy, {len(failed)} failed")
    print(f"  {'metric':12s} {'reference':>12s} {'measured':>12s}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {raw[name][0]:12.4f} {unit}")
    print(f"  {'fail_ratio':12s} {len(failed) / done:12.4f} ratio")
    print(f"  op_tail_ms is p{tail_pct:g} over {done} samples "
          f"({beyond} beyond it)")
    if hasattr(workload, "gates"):
        print(f"  {'nf_gate_ratio':12s} {workload.gates[1] / workload.gates[0]:12.4f} "
              f"ratio ({workload.gates[1]} emitted / {workload.gates[0]} input gates)")
    return {"correct": not failed, "attempted": done, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def overhead_ratio(workload, positions) -> float:
    """Traced over untraced time of the same ops (reference seconds), the
    median of OVERHEAD_ROUNDS rounds that alternate which pass runs first.
    The counted pass ran before them, so every pass finds cgm's caches in
    the same, warm state.  The checks already ran in the counted pass.
    The rounds replay the first half of the counted ops, which keeps a
    traced run within about twice the time of an untraced one."""
    from tracer import Tracer

    def busy(trace: bool) -> float:
        if not trace:
            return sum(execute(workload, positions, check=False)[1])
        tracer = Tracer()
        tracer.install()
        try:
            return sum(execute(workload, positions, tracer.next_op,
                               check=False)[1])
        finally:
            tracer.uninstall()

    ratios = []
    for i in range(OVERHEAD_ROUNDS):
        order = (True, False) if i % 2 else (False, True)
        took = {trace: busy(trace) for trace in order}
        ratios.append(took[True] / took[False])
    return statistics.median(ratios)


def traced(args) -> dict:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        workload = load_workload(args.workload, args.seed)
        tracer.begin_ops()
        positions = range(workload.trace_ops)
        _, traced_lat, failed = execute(workload, positions, tracer.next_op)
        tracer.end_ops()
    finally:
        tracer.uninstall()
    failed |= workload.finish(len(traced_lat))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = overhead_ratio(
        workload, positions[:len(positions) // 2])
    print(f"workload {workload.name}, seed {args.seed}: {workload.size}")
    print(f"traced {len(traced_lat)} ops, {len(failed)} failed; "
          f"{len(tracer.span_name)} spans")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g}")
    units = {"calls": "count", "self_s": "s", "ratio": "ratio",
             "share": "ratio", "per_s": "1/s"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items()
                     if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return {"correct": not failed, "attempted": len(traced_lat),
            "failed": len(failed), "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("axiom-suite", "nf-roundtrip",
                                 "dense-mixture", "monte-carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cgm", "__init__.py")):
        print(f"cgm sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    one_cpu()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_only:
        load_workload(args.workload, args.seed)
        print(time.monotonic())
        return 0
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
