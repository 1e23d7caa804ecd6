#!/usr/bin/env python3
"""mdsim benchmark: build it, run one workload, print the result.

Run from the repository root:

  python3 perfbench/run.py --workload scaleout|shift|create_storm \\
      --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ together with the simulator sources in src/ into
.bench_build/perfbench (CMake; perfbench/CMakeLists.txt sets the build
type), runs the benchmark binary, and keeps its full record (host facts,
spans, raw counters) in .bench_build/perfbench/results/. Prints the host
facts on one line and the result as the last line:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits 1, printing no result, when the build
fails; exits 1 with "correct": false when a correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 150  # a --trace 1 run does fixed work, whatever the budget


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count())],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken workloads, for the benchmark's own test")
    args = ap.parse_args()

    try:
        binary = build()
        want = expected_metrics(args.trace)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log("perfbench: build failed:", e)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError, subprocess.SubprocessError) as e:
        log("perfbench: benchmark binary failed:", e)
        return 1

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-smoke" if args.smoke else "")
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)

    errors = list(record["errors"])
    metrics = {}
    for m in want:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("metric %s missing or not in %s" %
                          (m["name"], m["unit"]))
        elif not math.isfinite(got["value"]):
            errors.append("metric %s is not finite" % m["name"])
        else:
            metrics[m["name"]] = got
    for e in errors:
        log("perfbench: FAIL:", e)
    if not record["host"]["ndebug"]:
        log("perfbench: WARNING: built without NDEBUG; host timings include "
            "assertions")
    correct = not errors and proc.returncode == 0

    print("host " + json.dumps(record["host"]))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": 0 if correct else record["attempted"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
