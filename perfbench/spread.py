#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, against BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed on each workload (all of them by default)
and prints, per metric, the median of the runs and the distance between
the first and third quartile as a share of that median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound. A spread
above a third of its bound (setup_s excepted) is flagged. Exits 1 when a
run fails or a spread is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            values = run_once(spec, workload, seed)
            if values is None:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            runs.append(values)
        if len(runs) < 2:
            continue
        print("%s (%d runs)" % (workload, len(runs)))
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = (metric["name"] != "setup_s"
                    and spread > metric["bound"] / 3)
            ok = ok and not flag
            print("  %-16s median %-14.6g spread %6.3f  bound %.3f %-8s  runs %s"
                  % (metric["name"], median, spread, metric["bound"],
                     "TOO WIDE" if flag else "",
                     " ".join("%.4g" % v for v in values)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
