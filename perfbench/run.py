#!/usr/bin/env python3
"""Thunderbolt host-cost benchmark.

Builds perfbench/thunderbolt_perfbench from source, runs one workload in
fresh driver processes for --seconds of wall time, checks every run and
prints the metrics as the last line of standard output:

    python3 perfbench/run.py --workload cluster-smallbank --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (untraced runs only). --trace 1
reports the per-layer metrics: counts from untraced runs, per-unit wall
costs from traced runs (registry wrappers + pipeline replay), and the
tracing overhead between the two. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("cluster-smallbank", "cluster-tusk", "open-cross")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    for needed in ("CMakeLists.txt", "src/core/cluster.h"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            raise BenchError("repository sources not found: missing "
                             + needed)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(REPO, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "thunderbolt_perfbench", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "thunderbolt_perfbench")


def run_driver(binary, workload, seed, mode):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} failed with exit code "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(binary, args, modes):
    """Runs `modes` in turn, repeating until --seconds have passed."""
    deadline = time.monotonic() + args.seconds
    rounds = []
    while not rounds or time.monotonic() < deadline:
        rounds.append([run_driver(binary, args.workload, args.seed, mode)
                       for mode in modes])
    fingerprints = {run["fingerprint"] for rnd in rounds for run in rnd}
    if len(fingerprints) != 1:
        raise BenchError("virtual outputs differ between runs of one seed:\n"
                         + "\n".join(sorted(fingerprints)))
    return rounds


def failures(run):
    """(attempted, failed) transactions of one run's window."""
    refused = run["rejected"] + run["shed"] + run["invalid_txns_bound"]
    if run["offered"] > 0:
        return run["offered"], refused
    return run["committed"] + run["invalid_txns_bound"], refused


def median_of(runs, fn):
    return statistics.median(fn(r) for r in runs)


def per(num, den):
    return num / den if den else 0.0


def end_to_end(plain):
    first = plain[0]
    attempted, failed = failures(first)
    return {
        "wall_per_virtual_s": (median_of(
            plain, lambda r: r["run_wall_s"] / r["window_virtual_s"]), "s/s"),
        "commits_per_wall_s": (median_of(
            plain, lambda r: r["committed"] / r["run_wall_s"]), "1/s"),
        "peak_rss_mb": (median_of(plain, lambda r: r["peak_rss_mb"]), "MB"),
        "setup_s": (median_of(plain, lambda r: r["setup_s"]), "s"),
        "virtual_tps": (first["virtual_tps"], "1/s"),
        "virtual_p50_latency_s": (first["p50_s"], "s"),
        "virtual_p999_latency_s": (first["p999_s"], "s"),
        "ok_ratio": (1.0 - per(failed, attempted), "ratio"),
    }


def per_layer(plain, traced):
    p = plain[0]
    run_wall = median_of(plain, lambda r: r["run_wall_s"])

    def cost(num, den, scale):
        return median_of(traced, lambda r: per(r[num], r[den]) * scale)

    ce_us = cost("replay_ce_ns", "replay_ce_txns", 1e-3)
    validate_us = cost("replay_validate_ns", "replay_validate_txns", 1e-3)
    cross_us = cost("replay_cross_ns", "replay_cross_txns", 1e-3)
    serial_us = cost("replay_serial_ns", "replay_serial_txns", 1e-3)
    crypto_us = cost("replay_crypto_ns", "replay_blocks", 1e-3)
    store_ns = cost("store_ns", "store_ops", 1.0)
    gen_ns = cost("gen_ns", "gen_txns", 1.0)
    committed = p["committed"]
    window = p["window_virtual_s"]
    attempted, failed = failures(p)

    # Per-unit cost x this run's own count of units, as a share of the
    # untraced window's wall time. Stage costs exclude time in the store,
    # which is its own share, so the shares do not overlap.
    shares = {
        "ce": ce_us * 1e-6 * p["ce_txns"],
        "core": (validate_us * p["validated_txns"]
                 + cross_us * p["cross_executed_txns"]) * 1e-6,
        "baselines": serial_us * 1e-6 * p["serial_executed_txns"],
        "crypto": crypto_us * 1e-6 * p["blocks_proposed"],
        "storage": store_ns * 1e-9 * (p["store_gets"] + p["store_puts"]),
        "workload": gen_ns * 1e-9 * traced[0]["gen_txns"],
    }
    shares = {k: v / run_wall for k, v in shares.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())

    m = {
        "ce.wall_us_per_txn": (ce_us, "us"),
        "ce.txns": (p["ce_txns"], "count"),
        "ce.restarts": (p["ce_restarts"], "count"),
        "ce.useful_ratio": (per(p["ce_txns"],
                                p["ce_txns"] + p["ce_restarts"]), "ratio"),
        "core.validate_wall_us_per_txn": (validate_us, "us"),
        "core.cross_wall_us_per_txn": (cross_us, "us"),
        "baselines.serial_wall_us_per_txn": (serial_us, "us"),
        "core.conversions": (p["conversions"], "count"),
        "core.invalid_blocks": (p["invalid_blocks"], "count"),
        "crypto.wall_us_per_block": (crypto_us, "us"),
        "storage.wall_ns_per_op": (store_ns, "ns"),
        "storage.gets_per_commit": (per(p["store_gets"], committed),
                                    "1/commit"),
        "storage.puts_per_commit": (per(p["store_puts"], committed),
                                    "1/commit"),
        "workload.gen_wall_ns_per_txn": (gen_ns, "ns"),
        "sim.events_per_virtual_s": (p["events"] / window, "1/s"),
        "sim.wall_us_per_event": (run_wall * 1e6 / p["events"], "us"),
        "net.messages_per_commit": (per(p["messages"], committed),
                                    "1/commit"),
        "dag.committed_blocks": (p["dag_committed_blocks"], "count"),
        "dag.txns_per_block": (per(committed, p["dag_committed_blocks"]),
                               "count"),
        "svc.offered": (p["offered"], "count"),
        "svc.rejected": (p["rejected"], "count"),
        "svc.shed": (p["shed"], "count"),
        "svc.queue_wait_p999_s": (p["queue_wait_p999_s"], "s"),
    }
    for key, value in p.items():
        if key.startswith("phase_p50_us."):
            m[f"phase.{key.split('.', 1)[1]}_us.p50"] = (value, "us")
    m["mem.rss_growth_mb_per_virtual_s"] = (median_of(
        plain, lambda r: (r["rss_end_mb"] - r["rss_warm_mb"])
        / r["window_virtual_s"]), "MB/s")
    m["cluster.run_wall_s"] = (run_wall, "s")
    m["cluster.latency_samples"] = (p["latency_samples"], "count")
    m["cluster.fail_ratio"] = (per(failed, attempted), "ratio")
    m["trace.overhead_ratio"] = (statistics.median(
        t["run_wall_s"] / u["run_wall_s"]
        for u, t in zip(plain, traced)), "ratio")
    m["trace.span_overhead_ns"] = (median_of(
        traced, lambda r: r["span_total_ns"]), "ns")
    for layer, share in shares.items():
        m[f"{layer}.est_wall_share"] = (share, "ratio")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.trace == 0:
        plain = [rnd[0] for rnd in measure(binary, args, ["plain"])]
        metrics = end_to_end(plain)
    else:
        rounds = measure(binary, args, ["plain", "traced"])
        plain = [rnd[0] for rnd in rounds]
        traced = [rnd[1] for rnd in rounds]
        metrics = per_layer(plain, traced)
        log("traced fingerprint matches untraced: yes")

    first = plain[0]
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name.startswith("virtual_p"):
            extra = f"  (n={first['latency_samples']})"
        log(f"  {name:40s} {value:14.6g} {unit}{extra}")
    attempted = sum(failures(r)[0] for r in plain)
    failed = sum(failures(r)[1] for r in plain)
    print(first["fingerprint"])
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
