#!/usr/bin/env python3
"""Sweep the full axiom catalog with the randomized soundness harness and
write the per-schema report to axioms.json.

Example:
    python scripts/run_axiom_suite.py --trials 100 --seed 7 --out axioms.json
"""

import argparse
import json
import sys
import time

from cgm.axioms import CATALOG, check_soundness, get_axiom
from cgm.semantics import DEFAULT_TOLERANCE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=("auto", "rational", "float"),
                        default="auto")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--out", default="axioms.json")
    args = parser.parse_args()

    reports = []
    worst = 0.0
    start = time.time()
    for name in CATALOG:
        tick = time.time()
        report = check_soundness(get_axiom(name), args.trials, args.seed,
                                 tol=args.tolerance, backend=args.backend)
        status = "pass" if report.passed else "FAIL"
        print(f"{name:16s} {status}  ({args.trials} trials, "
              f"{time.time() - tick:5.2f}s)")
        for failure in report.failures:
            worst = max(worst, failure.deviation)
            print(f"    deviation={failure.deviation!r} with {failure.binding}")
        reports.append({"name": name, "trials": report.trials,
                        "failures": [{"bindingDump": f.binding,
                                      "deviation": f.deviation}
                                     for f in report.failures]})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"trials": args.trials, "seed": args.seed,
                   "backend": args.backend, "reports": reports},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    failed = sum(1 for r in reports if r["failures"])
    print(f"\n{len(reports) - failed}/{len(reports)} schemas sound "
          f"in {time.time() - start:.1f}s; report written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
