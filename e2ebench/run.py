#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see NOTES.md).

Run from the repository root:

    python3 e2ebench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds the a64fxcc libraries plus the
benchmark binary e2e_bench (Release) into .bench_build/e2ebench; later calls
only rebuild what changed.  e2e_bench's human report goes to stderr, and the
last line of stdout is its JSON result.  Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
EXPECT = os.path.join(HERE, "expected_cells.tsv")
WORKLOADS = ("paper_cold", "restudy_warm", "procs_journal")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_bench(argv):
    """Run e2e_bench in its own process group; return (code, stdout)."""
    proc = subprocess.Popen([BINARY, *argv], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds any worker process e2e_bench forked.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that the correctness gate rejects and accepts "
                        "what it should, then exit")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        code, _ = run_bench(["--self-test", "--expect", EXPECT,
                             "--seed", str(args.seed)])
        return code

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    try:
        code, out = run_bench([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expect", EXPECT, "--work-dir", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"e2ebench: e2e_bench exited with {code}", file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("e2ebench: e2e_bench printed no valid result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
