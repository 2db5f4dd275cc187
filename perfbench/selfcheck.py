#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--workloads a,b] [--seconds S]

For every workload:
  1. two traced runs with the same seed give identical per-op work
     counts (every per-layer metric that is not a host time);
  2. a run checked against a deliberately wrong reference reports
     failed ops, which proves the output checker can fail;
  3. the host self times of the stages plus the time outside every span
     add up to the traced time per op;
and across all of them, no run leaves a file outside perfbench/.
Exits 1 when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tcp_rtt_4b", "tcp_bulk_8k", "mq_lossy", "fabric_churn"]

# Host times and ratios of host times: these vary run to run.
TIMED_PREFIXES = ("host.", "cluster.")



def run(workload, seed, seconds, trace, wrong=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if wrong:
        cmd.append("--wrong-reference")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tree():
    files = set()
    for d, dirs, names in os.walk(ROOT):
        rel = os.path.relpath(d, ROOT)
        dirs[:] = [x for x in dirs if not (rel == "." and x in
                   ("perfbench", "_build", ".git"))]
        files.update(os.path.join(rel, n) for n in names)
    return files


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    a = ap.parse_args()
    before = tree()
    problems = []
    for w in a.workloads.split(","):
        t1 = run(w, a.seed, a.seconds, 1)
        t2 = run(w, a.seed, a.seconds, 1)
        for r in (t1, t2):
            if not r["correct"] or r["failed"]:
                problems.append("%s: traced run failed %d of %d ops"
                                % (w, r["failed"], r["attempted"]))
        m1, m2 = t1["metrics"], t2["metrics"]
        counts = [k for k in m1 if not k.startswith(TIMED_PREFIXES)]
        differ = [k for k in counts if m1[k]["value"] != m2[k]["value"]]
        if differ:
            problems.append("%s: same-seed traced counts differ: %s" % (
                w, ", ".join("%s %r vs %r" % (k, m1[k]["value"],
                                               m2[k]["value"])
                             for k in differ)))
        print("%s: %d count metrics repeat exactly" % (
            w, len(counts) - len(differ)))

        stages = [k for k in m1 if k.startswith("host.")
                  and k.endswith("_ns_per_op") and k not in
                  ("host.traced_ns_per_op", "host.untraced_ns_per_op")]
        total = sum(m1[k]["value"] for k in stages)
        traced = m1["host.traced_ns_per_op"]["value"]
        if abs(total - traced) > 1e-6 * traced:
            problems.append("%s: stage times add up to %.1f ns, traced %.1f"
                            % (w, total, traced))
        print("%s: %d stage times add up to %.1f of %.1f traced ns per op"
              % (w, len(stages), total, traced))

        bad = run(w, a.seed, a.seconds, 0, wrong=True)
        if bad["correct"] or bad["failed"] == 0:
            problems.append("%s: a wrong reference failed no op" % w)
        print("%s: wrong reference fails %d of %d ops"
              % (w, bad["failed"], bad["attempted"]))
    stray = sorted(tree() - before)
    if stray:
        problems.append("files left outside perfbench/: %s"
                        % ", ".join(stray))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
