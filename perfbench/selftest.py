#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload with --seconds 1 (one
driver process per mode, on the benchmark's real virtual windows), with
tracing off and on, and checks that each metric BENCHMARK.json names is
printed, finite and carries its declared unit, and that the fingerprint
line precedes the result.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    if not lines[-2].startswith("fingerprint "):
        errors.append("no fingerprint line before the result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append("run not marked correct")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} is not a finite number: {value!r}")
        if m.get("unit") != unit:
            errors.append(f"{name} unit {m.get('unit')!r}, expected {unit!r}")
    return errors


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, expected[trace])
            status = "ok" if not errors else "FAIL"
            print(f"{workload:20s} trace={trace}  {status}")
            for e in errors:
                print(f"    {e}")
            failed |= bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
