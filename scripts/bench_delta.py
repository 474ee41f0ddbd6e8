#!/usr/bin/env python3
"""Wall-clock comparison of two BENCH_*.json files.

Usage: scripts/bench_delta.py [--fail-above PCT] BASELINE.json CURRENT.json

Prints, per series, the events_per_sec delta of CURRENT relative to
BASELINE, and a warning when the two files' smoke flags or build types
differ. By default this always exits 0: wall-clock numbers depend on the
host, so it is a trend report for humans (and CI logs), not a gate.
Simulated values (requests, latencies, counters) are protected separately
by the determinism tests — this script deliberately ignores them.

With --fail-above PCT the script becomes a coarse regression tripwire: it
exits 1 if any series present in BOTH files slowed down by more than PCT
percent. The threshold should be generous (CI hosts are noisy); it exists
to catch order-of-magnitude engine regressions, not 5% drift. Series that
exist on only one side never trip the gate.
"""

import json
import sys


def rows_by_series(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("rows", []):
        if "events_per_sec" in row:
            # Keyed by (series, x): perf rows are unique per point.
            out[(row["series"], row.get("x", 0))] = row
    return doc, out


def build_type(doc):
    """The document's build type; files written before it was recorded say "unknown"."""
    return doc.get("build", {}).get("type", "unknown")


def main():
    argv = sys.argv[1:]
    fail_above = None
    if "--fail-above" in argv:
        i = argv.index("--fail-above")
        try:
            fail_above = float(argv[i + 1])
        except (IndexError, ValueError):
            print("bench_delta: --fail-above needs a numeric percentage", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    if len(argv) != 2:
        print(__doc__.strip())
        return 0
    base_doc, base = rows_by_series(argv[0])
    cur_doc, cur = rows_by_series(argv[1])
    if base_doc.get("smoke") != cur_doc.get("smoke"):
        print("bench_delta: smoke flags differ (%s vs %s) — deltas are meaningless"
              % (base_doc.get("smoke"), cur_doc.get("smoke")))
    base_type, cur_type = build_type(base_doc), build_type(cur_doc)
    if base_type != cur_type:
        print("bench_delta: build types differ (%s vs %s) — deltas are meaningless"
              % (base_type, cur_type))
    print("%-24s %14s %14s %8s" % ("series", "base ev/s", "current ev/s", "delta"))
    tripped = []
    for key in sorted(base.keys() | cur.keys(), key=str):
        b = base.get(key)
        c = cur.get(key)
        name = "%s@%g" % key
        if b is None or c is None:
            print("%-24s %14s %14s %8s" % (name,
                                           "-" if b is None else "%.3g" % b["events_per_sec"],
                                           "-" if c is None else "%.3g" % c["events_per_sec"],
                                           "n/a"))
            continue
        bv, cv = b["events_per_sec"], c["events_per_sec"]
        delta = (cv - bv) / bv * 100 if bv else float("nan")
        print("%-24s %14.4g %14.4g %+7.1f%%" % (name, bv, cv, delta))
        if fail_above is not None and delta < -fail_above:
            tripped.append((name, delta))
    if fail_above is None:
        print("bench_delta: report-only (never fails the build)")
        return 0
    if tripped:
        for name, delta in tripped:
            print("bench_delta: FAIL %s regressed %.1f%% (threshold %.0f%%)"
                  % (name, -delta, fail_above), file=sys.stderr)
        return 1
    print("bench_delta: all shared series within %.0f%% of baseline" % fail_above)
    return 0


if __name__ == "__main__":
    sys.exit(main())
