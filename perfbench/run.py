#!/usr/bin/env python3
"""Build the slot-loop benchmark from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload healthy-bfa --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/perfbench (configured once, then brought up
to date on every run; build output goes to standard error). The benchmark
binary's standard output is passed through unchanged, so its last line is the
JSON result. With --trace 1 the run's spans are written as a Chrome trace to
.bench_build/perfbench-out/trace-<workload>-seed<seed>.json.

Exit status: the binary's (0 only when the correctness gate passed), or
non-zero without a result when the sources are missing or the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "wdm_perfbench")
# A run measures for --seconds plus a few seconds of set-up and checks;
# anything much longer is a hang.
RUN_SLACK_S = 60


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the repository sources (src/) are not next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # A SIGTERM becomes SystemExit inside subprocess.run, which then kills
    # and reaps the benchmark instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(
            cmd, timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % (args.seconds + RUN_SLACK_S),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
