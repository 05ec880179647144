#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD SECONDS SEED [SEED ...]

Runs the benchmark once per seed (--trace 0) and prints, per metric, the
median and the distance between the first and third quartiles as a share
of the median (statistics.quantiles(values, n=4)), next to the bound in
BENCHMARK.json.  A spread at or above its bound means the metric cannot
resolve a change of that size.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    results = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        r = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(r)
        print("seed %s: correct=%s attempted=%d failed=%d %s" % (
            seed, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in r["metrics"].items())))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        print("%-22s median %-12.5g spread %.3f  bound %s" % (
            name, med, (q[2] - q[0]) / med if med else float("nan"),
            bounds.get(name)))


if __name__ == "__main__":
    main()
