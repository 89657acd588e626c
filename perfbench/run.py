#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the psdacc library plus the perfbench
program (Release) into .bench_build/perfbench; later calls reconfigure and
rebuild incrementally (about a second when nothing changed). The program's
output is passed through unchanged: machine facts, a metric table, and as
the last line one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the program's (0 only when every result checked
out). With --trace 1 the spans of the traced windows are written to
.bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = Path(".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build(target):
    """Configures and builds @p target; returns its path or exits 3."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench build failed (%s):\n%s\n"
                                 % (" ".join(cmd), "\n".join(tail)))
                sys.exit(3)
    return BUILD_DIR / target


def self_test():
    """C++ self-tests, plus BENCHMARK.json against the program's metric list."""
    code = subprocess.run([str(build("perfbench_selftest"))]).returncode
    spec = json.loads(Path("BENCHMARK.json").read_text())
    listed = subprocess.run([str(build("perfbench")), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    program = {(kind, name, unit) for kind, name, unit in
              (line.split() for line in listed.splitlines())}
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    if program != declared:
        sys.stderr.write("BENCHMARK.json and perfbench disagree on metrics:\n"
                         "  only in BENCHMARK.json: %s\n  only in perfbench: %s\n"
                         % (sorted(declared - program), sorted(program - declared)))
        code = code or 1
    print("self-test %s" % ("passed" if code == 0 else "FAILED"))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main())
