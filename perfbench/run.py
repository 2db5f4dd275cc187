#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (release profile, build
tree in perfbench/_build), runs the workload in a fresh process and
prints its result: the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "_build")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
WORKLOADS = ["tcp_rtt_4b", "tcp_bulk_8k", "mq_lossy", "fabric_churn"]

# Environment variables the library reads as defaults (shard and job
# counts). The benchmark measures the library defaults, so none leaks in.
SCRUB = ["ASH_SHARDS", "ASH_JOBS", "OCAMLRUNPARAM"]

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no ASH library sources next to perfbench/; run from a full "
             "checkout of the repository", 2)
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--cache=disabled", "--build-dir", BUILD, "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check outputs against a deliberately wrong "
                         "reference (benchmark self-check)")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1", 2)
    build()
    env = {k: v for k, v in os.environ.items() if k not in SCRUB}
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.wrong_reference:
        cmd.append("--wrong-reference")
    try:
        r = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (a.workload, RUN_TIMEOUT_S))
    if r.returncode != 0:
        fail("bench.exe exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("bench.exe printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: %s" % lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
