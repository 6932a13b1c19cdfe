#!/usr/bin/env python3
"""Bench-regression gate: fail if a throughput metric dropped too far.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json KEY [KEY...]
      [--tolerance=0.2]

Each KEY names a numeric throughput field in both JSON objects (e.g.
split_evals_per_sec, cached_pipelines_per_sec).  The gate fails (exit 1)
when current < baseline * (1 - tolerance) for any key — a drop beyond
the tolerance below the committed baseline.  Improvements and small
regressions pass.  Missing keys fail loudly rather than silently
passing.
"""

import json
import sys


def main(argv):
    tolerance = 0.2
    args = []
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
        else:
            args.append(a)
    if len(args) < 3:
        sys.stderr.write(__doc__)
        return 2

    baseline_path, current_path, keys = args[0], args[1], args[2:]
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(current_path) as f:
        current = json.load(f)

    failed = False
    for key in keys:
        if key not in baseline or key not in current:
            print(f"FAIL {key}: missing from "
                  f"{baseline_path if key not in baseline else current_path}")
            failed = True
            continue
        base, cur = float(baseline[key]), float(current[key])
        floor = base * (1.0 - tolerance)
        verdict = "FAIL" if cur < floor else "ok"
        print(f"{verdict:4s} {key}: current {cur:.1f} vs baseline {base:.1f} "
              f"(floor {floor:.1f}, tolerance {tolerance:.0%})")
        if cur < floor:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
