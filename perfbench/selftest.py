#!/usr/bin/env python3
"""Self-test of the slot-loop benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly through run.py, untraced and traced, at the
default seed (whose digests are pinned) and at one other seed, and checks
that each run:

  * ends with the JSON result line: exactly the keys correct, attempted,
    failed and metrics, the gate passed, nothing failed;
  * reports exactly the metrics BENCHMARK.json names for that mode, with
    their units, as finite numbers, and every end-to-end metric non-zero;
  * (traced) has step-stage shares that sum to 1, and wrote a loadable
    Chrome trace whose child spans name the slot span as their parent.

Last, it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exit status 0 when every check passed.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# fleet-barrier is not in BENCHMARK.json's workload list (README.md says
# why) but stays runnable, so it is tested too.
WORKLOADS = ["healthy-bfa", "degraded-fa-overload", "fleet-barrier"]
SEEDS = [1, 7]
STAGES = ["aging", "faults", "retry", "ingress", "admission", "partition",
          "fanout", "residual"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(label, proc, expected):
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, "%s: exit %d\n%s" % (label, proc.returncode,
                                                      proc.stderr[-2000:]))
    if not lines:
        check(False, label + ": no output")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        check(False, label + ": last line is not JSON: " + lines[-1])
        return None
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          label + ": result keys " + str(sorted(result)))
    check(result.get("correct") is True, label + ": gate failed\n" +
          proc.stdout[-2000:])
    check(result.get("failed") == 0, label + ": failed operations")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, label + ": attempted")
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(expected),
          label + ": metric names differ from BENCHMARK.json: %s"
          % sorted(set(metrics) ^ set(expected)))
    for name, m in metrics.items():
        check(sorted(m) == ["unit", "value"], label + ": %s keys" % name)
        check(m.get("unit") == expected.get(name),
              label + ": %s unit %s" % (name, m.get("unit")))
        check(isinstance(m.get("value"), (int, float))
              and math.isfinite(m["value"]), label + ": %s value" % name)
    return metrics


def check_trace(label, path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        check(False, "%s: trace %s does not load: %s" % (label, path, e))
        return
    spans = [e for e in events if e.get("ph") == "X"]
    check(len(spans) > 0, label + ": trace has no spans")
    for e in spans:
        if not all(k in e for k in ("name", "ts", "dur", "id", "args")):
            check(False, label + ": malformed span " + json.dumps(e))
            return
        parent = e["args"].get("parent")
        if parent is not None and parent != "slot":
            check(False, label + ": span parent " + str(parent))
            return


def bare_checkout_refuses():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("healthy-bfa", 1, 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0, "bare checkout: run succeeded")
    check(not last.startswith("{"), "bare checkout: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        check(w["name"] in WORKLOADS, "unknown workload " + w["name"])
    for workload in WORKLOADS:
        for seed in SEEDS:
            label = "%s seed %d untraced" % (workload, seed)
            metrics = check_result(label, run(workload, seed, 0), end_to_end)
            for name, m in (metrics or {}).items():
                check(m["value"] != 0, label + ": %s is 0" % name)
            label = "%s seed %d traced" % (workload, seed)
            metrics = check_result(label, run(workload, seed, 1), per_layer)
            if metrics:
                shares = sum(metrics["stage.%s.share" % s]["value"]
                             for s in STAGES)
                check(abs(shares - 1.0) < 1e-9,
                      label + ": stage shares sum to %.12f" % shares)
            check_trace(label, os.path.join(
                ROOT, ".bench_build", "perfbench-out",
                "trace-%s-seed%d.json" % (workload, seed)))
            print("ok: %s seed %d" % (workload, seed))
    bare_checkout_refuses()
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
