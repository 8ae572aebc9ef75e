#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every metric, the median of
the runs and the distance between the first and third quartile as a share of
that median (statistics.quantiles(values, n=4)), beside the metric's bound
from BENCHMARK.json. A spread under a third of the bound is marked "ok".

    python3 perfbench/spread.py --workload fleet-barrier --seeds 1-10

Seeds are a range "a-b" or a comma list. --trace 1 reports the per-layer
metrics instead (they have no bound).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s%s"
                 % (seed, proc.returncode, proc.stdout, proc.stderr))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"],
                          args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: correct=%s failed=%d  %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.6g" % (n, m["value"])
                     for n, m in result["metrics"].items())),
              file=sys.stderr)
    print("%-32s %14s %9s %7s" % ("metric", "median", "IQR/med", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
            if name == "setup_s":
                verdict += " (spread not gated)"
        print("%-32s %14.6g %9.4f %7s %s" % (
            name, med, spread, "" if bound is None else bound, verdict))


if __name__ == "__main__":
    main()
