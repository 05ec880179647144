#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dblp-explain --seed 0 --seconds 10 --trace 0

Builds perfbench/main.exe and bin/whynot_server.exe with dune, runs one
workload, streams its output and exits with its status.  The last line
of standard output is the run's JSON result.  Reports, Chrome traces and
scratch files go to .perfbench/ in the checkout.  Exits non-zero,
without a result, when the directory is not a buildable checkout.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the benchmarked sources, so a run names its code even
    where there is no git metadata."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stop_group(pgid):
    """SIGKILL what is left of the run's process group (the benchmark
    and any server child) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    for p in SOURCES + ["bin/whynot_server.ml", "perfbench/main.ml"]:
        if not os.path.exists(os.path.join(ROOT, p)):
            die("%s is missing: not a checkout of this repository" % p)
    os.chdir(ROOT)
    # everything, compiler scratch included, stays inside the checkout
    tmp = os.path.join(ROOT, OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe",
         "./bin/whynot_server.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed", 1)
    env.update(PERFBENCH_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = ["./_build/default/perfbench/main.exe",
           "--server", "./_build/default/bin/whynot_server.exe",
           "--out", OUT] + sys.argv[1:]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if time.monotonic() > deadline:
                break
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
    finally:
        stop_group(proc.pid)
        proc.wait()
    if code is None:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
