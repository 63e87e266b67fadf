#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, for every
end-to-end metric, the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py --workloads solve_m16,serve_open --runs 10
    python3 perfbench/spread.py --runs 10 --save set1.json
    python3 perfbench/spread.py --runs 10 --save set2.json --compare set1.json

--compare reports, per metric, how far this set's median moved from the
saved set's median in the worse direction, against the bound, and whether
each seed's output digest repeated exactly. Run from the repository root;
every run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    saved = {}
    if args.compare:
        with open(args.compare) as fh:
            saved = json.load(fh)
    record = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        digests = {}
        steal = []
        for k in range(args.runs):
            seed = args.first_seed + k
            stamp, result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false {stamp['problems']}")
            digests[str(seed)] = stamp["digest"]
            if stamp["stamp"].get("host_steal_s", "unknown") != "unknown":
                steal.append(float(stamp["stamp"]["host_steal_s"]))
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = {"values": values, "digests": digests}
        print(f"\n{workload}: {args.runs} runs"
              + (f", host steal per run median {statistics.median(steal):.2f} s,"
                 f" max {max(steal):.2f} s" if steal else ""))
        before = saved.get(workload)
        for name, m in metrics.items():
            vals = values[name]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            line = (f"  {name:14s} median {med:14.6g}  spread {spread:6.3f}"
                    f"  bound {m['bound']:.2f}")
            if name != "setup_s":
                worst = max(worst, spread / m["bound"])
            if before:
                old = statistics.median(before["values"][name])
                change = (med - old) / old if old else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f"  vs saved {change:+.3f} ({'OK' if worse <= m['bound'] else 'WORSE'})"
            print(line)
        if before:
            same = [s for s in digests if before["digests"].get(s) == digests[s]]
            print(f"  digests repeated for {len(same)} of {len(digests)} seeds")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
