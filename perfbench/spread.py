#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
for each end-to-end metric prints the median and the interquartile
range (statistics.quantiles, n=4) as a share of the median, beside the
metric's bound from BENCHMARK.json. A benchmark is steady when every
spread (setup_s aside) is below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in a.workloads.split(","):
        values = {m: [] for m in bounds}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            r = json.loads(out.stdout.strip().splitlines()[-1])
            if not r["correct"] or r["failed"]:
                print("%s seed %d: %d of %d ops failed"
                      % (w, seed, r["failed"], r["attempted"]))
                steady = False
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {m: v["value"] for m, v in r["metrics"].items()})),
                flush=True)
        for m, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            print("%-14s %-20s median %-14.6g spread %.4f bound %.2f %s"
                  % (w, m, med, spread, bounds[m], "" if ok else "WIDE"),
                  flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
