#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at scale 1 for a three-second window, plain and traced, and
requires a correct result with no failures.  Then runs each workload once
more with one reference answer deliberately corrupted and requires the
wrong answers to be counted: failed > 0 and correct = false.  Exits
non-zero on the first violated expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dblp-explain", "tpch-sas", "serve-socket"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "3", "--trace", str(trace),
           "--scale", "1"] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("FAIL %s: exit %d" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def main():
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   "%s trace %d: correct, %d attempted, %d failed"
                   % (w, trace, r["attempted"], r["failed"]))
        r = run(w, 0, "--corrupt-reference")
        rate = r["failed"] / r["attempted"]
        expect(not r["correct"] and rate > 0,
               "%s with a corrupted reference: error rate %.3f > 0, correct=%s"
               % (w, rate, r["correct"]))


if __name__ == "__main__":
    main()
