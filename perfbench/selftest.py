#!/usr/bin/env python3
"""Smoke self-test of the benchmark's output contract.

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b,c]

Runs every workload (default: those in BENCHMARK.json plus exact_mixed)
briefly with tracing off and on, and checks that the last stdout line is the
result object, that every metric BENCHMARK.json names is emitted (end-to-end
ones with --trace 0, per-layer ones with --trace 1), finite and with its
unit, that end-to-end values are positive, and that every check passed.
Exits 1 on the first violation. Takes a few minutes: exact_mixed sets up
cold three times.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("%s --trace %d exited %d" % (workload, trace, out.returncode))
    return json.loads(lines[-1])


def check(result, defs, workload, trace, positive):
    where = "%s --trace %d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(where + ": result keys are " + ",".join(sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail(where + ": correct=%s failed=%s" % (result["correct"],
                                                 result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(where + ": attempted=%r" % result["attempted"])
    metrics = result["metrics"]
    names = [d["name"] for d in defs]
    if sorted(metrics) != sorted(names):
        missing = set(names) - set(metrics)
        extra = set(metrics) - set(names)
        fail(where + ": missing %s, unexpected %s" % (sorted(missing),
                                                     sorted(extra)))
    for d in defs:
        m = metrics[d["name"]]
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(where + ": %s is not a finite number (%r)" % (d["name"], v))
        if m.get("unit") != d["unit"]:
            fail(where + ": %s has unit %r, expected %r" % (d["name"],
                                                           m.get("unit"),
                                                           d["unit"]))
        if positive and v <= 0:
            fail(where + ": end-to-end metric %s is %r" % (d["name"], v))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    # exact_mixed is runnable but not in the bounded set (README.md).
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names + [
        n for n in ("exact_mixed",) if n not in names]))
    a = ap.parse_args()
    for w in a.workloads.split(","):
        check(run(w, a.seconds, 0), bench["end_to_end"], w, 0, True)
        check(run(w, a.seconds, 1), bench["per_layer"], w, 1, False)
        print("selftest: %s ok" % w, flush=True)
    print("selftest: all metrics emitted, finite and with their units")


if __name__ == "__main__":
    main()
