#!/usr/bin/env python3
"""Compare two google-benchmark JSON result files.

Usage:
    tools/bench_compare.py OLD.json NEW.json [--filter REGEX]
                           [--min-ratio R|auto]

Prints a per-benchmark table of old/new time and the speedup ratio
(old_time / new_time, so >1 means NEW is faster). When a file contains
repetition aggregates, the `_mean` rows are used and raw repetitions are
ignored; otherwise the plain rows are used. Benchmarks present in only
one file are listed separately.

With --min-ratio, exits 1 if any compared benchmark's speedup falls
below R — usable as a CI regression gate. --min-ratio=auto takes each
benchmark's threshold from its measured spread instead: 1 - (cv_old +
cv_new), where cv = stddev / mean of real_time from the `_stddev` and
`_mean` repetition aggregates (--benchmark_repetitions=N). A slowdown
within the two runs' combined noise passes; auto exits 2 when either
file lacks those aggregates for a compared benchmark.
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    """Return ({name: benchmark-dict}, {name: cv}), preferring `_mean`
    aggregates; cv (stddev / mean of real_time) only for benchmarks with
    both `_mean` and `_stddev` aggregates."""
    with open(path) as f:
        data = json.load(f)
    rows = data.get("benchmarks", [])
    means = {}
    stddevs = {}
    plain = {}
    for b in rows:
        name = b.get("name", "")
        run_type = b.get("run_type", "iteration")
        if run_type == "aggregate":
            if b.get("aggregate_name") == "mean":
                means[name.removesuffix("_mean")] = b
            elif b.get("aggregate_name") == "stddev":
                stddevs[name.removesuffix("_stddev")] = b
        else:
            plain[name] = b
    # Aggregates win: if a benchmark was run with repetitions, its raw
    # repetition rows describe single reps, not the summary.
    merged = dict(plain)
    merged.update(means)
    cvs = {n: stddevs[n]["real_time"] / m["real_time"]
           for n, m in means.items() if n in stddevs and m["real_time"]}
    return merged, cvs


def parse_min_ratio(text):
    return text if text == "auto" else float(text)


def fmt_time(b):
    return f"{b['real_time']:.1f} {b.get('time_unit', 'ns')}"


def fmt_rate(b):
    # The sim_scale ladder emits simulated-ops-per-wall-second alongside
    # the google-benchmark items_per_second (which counts engine events);
    # ops/s is the ladder's figure of merit, so prefer it when present.
    ops = b.get("ops_per_wall_sec")
    if ops:
        return f"{ops / 1e3:.0f}k ops/s"
    ips = b.get("items_per_second")
    return f"{ips / 1e6:.2f}M/s" if ips else "-"


def fmt_scale(b):
    """Rung shape for ladder rows: clients/threads, blank otherwise."""
    if "clients" not in b:
        return ""
    return f"  [{b['clients']} clients, t{b.get('threads', 1)}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline benchmark JSON")
    ap.add_argument("new", help="candidate benchmark JSON")
    ap.add_argument("--filter", default="", metavar="REGEX",
                    help="only compare benchmarks matching REGEX")
    ap.add_argument("--min-ratio", type=parse_min_ratio, default=None,
                    metavar="R|auto",
                    help="fail (exit 1) if any speedup ratio is below R; "
                         "auto: below 1 - (cv_old + cv_new)")
    args = ap.parse_args()

    old, old_cv = load_benchmarks(args.old)
    new, new_cv = load_benchmarks(args.new)
    if args.filter:
        rx = re.compile(args.filter)
        old = {k: v for k, v in old.items() if rx.search(k)}
        new = {k: v for k, v in new.items() if rx.search(k)}

    common = [n for n in old if n in new]
    if not common:
        print("no common benchmarks to compare", file=sys.stderr)
        return 1
    auto = args.min_ratio == "auto"
    if auto:
        lacking = [n for n in common if n not in old_cv or n not in new_cv]
        if lacking:
            print("--min-ratio=auto needs _mean and _stddev aggregates in "
                  "both files (--benchmark_repetitions=N); missing for: "
                  + ", ".join(lacking), file=sys.stderr)
            return 2

    name_w = max(len(n) for n in common)
    header = (f"{'benchmark':<{name_w}}  {'old':>12}  {'new':>12}  "
              f"{'speedup':>8}  {'old rate':>10}  {'new rate':>10}")
    print(header)
    print("-" * len(header))

    worst = None
    failed = []
    for name in common:
        ob, nb = old[name], new[name]
        if ob.get("time_unit", "ns") != nb.get("time_unit", "ns"):
            print(f"{name:<{name_w}}  (mismatched time units, skipped)")
            continue
        ratio = ob["real_time"] / nb["real_time"] if nb["real_time"] else 0.0
        worst = ratio if worst is None else min(worst, ratio)
        bar = ""
        if auto:
            floor = 1.0 - (old_cv[name] + new_cv[name])
            bar = f"  (min {floor:.2f}x)"
            if ratio < floor:
                failed.append(f"{name} {ratio:.2f}x < {floor:.2f}x")
        print(f"{name:<{name_w}}  {fmt_time(ob):>12}  {fmt_time(nb):>12}  "
              f"{ratio:>7.2f}x  {fmt_rate(ob):>10}  {fmt_rate(nb):>10}"
              f"{fmt_scale(nb)}{bar}")

    for name in sorted(set(old) - set(new)):
        print(f"{name:<{name_w}}  only in {args.old}")
    for name in sorted(set(new) - set(old)):
        print(f"{name:<{name_w}}  only in {args.new}")

    if auto:
        if failed:
            print("\nFAIL: slower than the measured spread allows: "
                  + "; ".join(failed), file=sys.stderr)
            return 1
        print("\nOK: every speedup is within its measured spread")
    elif args.min_ratio is not None and worst is not None:
        if worst < args.min_ratio:
            print(f"\nFAIL: worst speedup {worst:.2f}x is below "
                  f"--min-ratio {args.min_ratio}", file=sys.stderr)
            return 1
        print(f"\nOK: worst speedup {worst:.2f}x >= {args.min_ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
