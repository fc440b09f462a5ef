#!/usr/bin/env python3
"""Checks fresh benchmark results against the committed perf trajectory.

The committed files are BENCH_micro.json (bench_micro --benchmark_format=json
with the CI filter) and BENCH_perfbench.json (one perfbench run per
workload at seed 1). Each holds two kinds of column:

  * exact columns, which do not depend on the machine or the run length:
    every bench_micro allocs_per_txn and allocs_per_block counter, and each
    perfbench workload's fingerprint line (commit counts, virtual tps, p50,
    p999, latency samples, store fingerprint; the virtual windows are fixed,
    so it does not depend on --seconds);
  * wall-clock columns (bench_micro real time, perfbench host cost), which
    are printed beside the committed value and never fail the check.

A change that moves an exact column refreshes the committed file in the
same commit and says why in CHANGES.md.

Usage:
  check_bench.py [--micro <bench_micro.json>] [<perfbench stdout> ...]

A perfbench stdout is what `python3 perfbench/run.py --workload <w>
--seed 1 --seconds <s> --trace 0` prints: the fingerprint line, then the
result JSON. Exits 0 when every exact column matches, 1 naming each one
that differs.
"""

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_COUNTERS = ("allocs_per_txn", "allocs_per_block")
WALL_METRICS = ("wall_per_virtual_s", "commits_per_wall_s", "peak_rss_mb",
                "setup_s")


def load(path):
    with open(path) as f:
        return json.load(f)


def exact_counters(micro):
    """{(benchmark, counter): value} over the run's exact counters."""
    out = {}
    for b in micro["benchmarks"]:
        for counter in EXACT_COUNTERS:
            if counter in b:
                out[(b["name"], counter)] = b[counter]
    return out


def check_micro(path, committed):
    fresh = load(path)
    errors = []
    want = exact_counters(committed)
    got = exact_counters(fresh)
    for key in sorted(want.keys() | got.keys()):
        name = f"{key[0]} {key[1]}"
        if key not in got:
            errors.append(f"{name}: missing from {path}")
        elif key not in want:
            errors.append(f"{name}: {got[key]} is not in the committed "
                          "BENCH_micro.json")
        elif got[key] != want[key]:
            errors.append(f"{name}: {got[key]} != committed {want[key]}")
    committed_times = {b["name"]: b for b in committed["benchmarks"]}
    print(f"bench_micro wall clock ({path} vs committed):")
    for b in fresh["benchmarks"]:
        old = committed_times.get(b["name"])
        was = (f"{old['real_time']:12.4g} {old['time_unit']}"
               if old else "           -")
        print(f"  {b['name']:40s} {b['real_time']:12.4g} {b['time_unit']}"
              f"  was {was}")
    return errors


def parse_perfbench(path):
    """(fingerprint line, result JSON) from one run.py stdout."""
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if len(lines) < 2 or not lines[-2].startswith("fingerprint "):
        raise ValueError(f"{path}: expected a fingerprint line and a "
                         "result JSON line")
    return lines[-2], json.loads(lines[-1])


def fingerprint_fields(line):
    return dict(item.split("=", 1) for item in line.split()[1:])


def check_perfbench(path, committed):
    fingerprint, result = parse_perfbench(path)
    fields = fingerprint_fields(fingerprint)
    workload = fields["workload"]
    entry = committed["workloads"].get(workload)
    if entry is None:
        return [f"{workload}: not in the committed BENCH_perfbench.json"]
    errors = []
    want = fingerprint_fields(entry["fingerprint"])
    if fields["seed"] != want["seed"]:
        return [f"{workload}: run at seed {fields['seed']}, committed at "
                f"seed {want['seed']}"]
    for key in sorted(want.keys() | fields.keys()):
        if fields.get(key) != want.get(key):
            errors.append(f"{workload} fingerprint {key}: {fields.get(key)} "
                          f"!= committed {want.get(key)}")
    if not result.get("correct"):
        errors.append(f"{workload}: run did not pass the correctness gate")
    print(f"perfbench {workload} wall clock ({path} vs committed):")
    for name in WALL_METRICS:
        now = result["metrics"][name]
        was = entry["result"]["metrics"][name]["value"]
        print(f"  {name:24s} {now['value']:12.4g} {now['unit']:4s}"
              f"  was {was:12.4g}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--micro", help="bench_micro JSON to check")
    parser.add_argument("perfbench", nargs="*",
                        help="perfbench run.py stdout files to check")
    args = parser.parse_args()
    errors = []
    if args.micro:
        errors += check_micro(args.micro,
                              load(os.path.join(REPO, "BENCH_micro.json")))
    if args.perfbench:
        committed = load(os.path.join(REPO, "BENCH_perfbench.json"))
        for path in args.perfbench:
            errors += check_perfbench(path, committed)
    for e in errors:
        print(f"check_bench: FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print("check_bench: every exact column matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
