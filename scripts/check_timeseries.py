#!/usr/bin/env python3
"""Schema sanity check for a --timeseries-out artifact.

Validates the invariants the TimeSeriesRecorder promises:
  * top level is {window_us, windows, totals} with window_us > 0;
  * windows are non-overlapping and ordered (a zero-length window is legal
    only as the final flush stamp: counters that moved after the last
    boundary close at end-of-run with start_us == end_us);
  * the flush stamp carries only syncs taken at capture time (store.*,
    trace.*), never a cluster.* counter: cluster outcomes are counted at
    the virtual time they happen, so each lands in a real window;
  * every counter delta is attributed to exactly one window, so the
    per-window deltas of each counter sum to its entry in totals;
  * when the run used the open-loop service front end (svc.* counters
    present), its conservation law holds over the totals:
      offered == admitted + rejected       (door-level split)
      shed + dequeued <= admitted          (the rest is still queued)
      commits <= dequeued                  (the pipeline can only commit
                                            work it was handed)

Usage: check_timeseries.py <timeseries.json>
Exits 0 when the artifact is well-formed, 1 with a diagnostic otherwise.
"""

import json
import sys


def fail(msg):
    print(f"check_timeseries: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: check_timeseries.py <timeseries.json>")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    for key in ("window_us", "windows", "totals"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if not isinstance(doc["window_us"], int) or doc["window_us"] <= 0:
        fail(f"window_us must be a positive integer, got {doc['window_us']!r}")
    if not isinstance(doc["windows"], list):
        fail("windows must be a list")

    prev_end = 0
    for i, w in enumerate(doc["windows"]):
        for key in ("start_us", "end_us", "counters", "gauges", "histograms"):
            if key not in w:
                fail(f"window {i} missing key {key!r}")
        if w["start_us"] > w["end_us"]:
            fail(f"window {i} has negative span [{w['start_us']}, {w['end_us']}]")
        if w["start_us"] == w["end_us"]:
            if i + 1 != len(doc["windows"]):
                fail(f"window {i} is zero-length but not the final flush "
                     "window")
            for name in w["counters"]:
                if name.startswith("cluster."):
                    fail(f"zero-length window {i} carries {name!r}: cluster "
                         "outcomes must land in the window they happen in")
        if w["start_us"] < prev_end:
            fail(f"window {i} overlaps the previous one")
        prev_end = w["end_us"]
        for name, delta in w["counters"].items():
            if not isinstance(delta, int) or delta < 0:
                fail(f"window {i} counter {name!r} delta {delta!r} "
                     "is not a non-negative integer")

    sums = {}
    for w in doc["windows"]:
        for name, delta in w["counters"].items():
            sums[name] = sums.get(name, 0) + delta
    for name, total in doc["totals"].items():
        if sums.get(name, 0) != total:
            fail(f"counter {name!r}: window deltas sum to "
                 f"{sums.get(name, 0)} but totals says {total}")
    for name in sums:
        if name not in doc["totals"]:
            fail(f"counter {name!r} appears in windows but not in totals")

    totals = doc["totals"]
    if "svc.offered" in totals:
        offered = totals.get("svc.offered", 0)
        admitted = totals.get("svc.admitted", 0)
        rejected = totals.get("svc.rejected", 0)
        shed = totals.get("svc.shed", 0)
        dequeued = totals.get("svc.dequeued", 0)
        if offered != admitted + rejected:
            fail(f"svc conservation: offered {offered} != admitted "
                 f"{admitted} + rejected {rejected}")
        if shed + dequeued > admitted:
            fail(f"svc conservation: shed {shed} + dequeued {dequeued} "
                 f"> admitted {admitted}")
        commits = (totals.get("cluster.commits_single", 0) +
                   totals.get("cluster.commits_cross", 0))
        if commits > dequeued:
            fail(f"svc conservation: commits {commits} > dequeued "
                 f"{dequeued}")
        print(f"check_timeseries: svc conservation OK (offered {offered}, "
              f"admitted {admitted}, rejected {rejected}, shed {shed}, "
              f"dequeued {dequeued}, commits {commits})")

    print(f"check_timeseries: OK ({len(doc['windows'])} windows, "
          f"{len(doc['totals'])} counters)")


if __name__ == "__main__":
    main()
