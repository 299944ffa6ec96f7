#!/usr/bin/env python3
"""Perf-trajectory gate: diff BENCH_*.json series against committed baselines.

Every bench binary emits a BENCH_<id>.json array of flat records (see
benchutil::emit_json).  This tool joins each current series against the
committed baseline in bench/baselines/ and enforces:

  * deterministic complexity metrics (rounds, steps, epochs, raises) may
    not regress by more than --tolerance (default 10%) on any row;
  * quality metrics (ratio: achieved vs certified bound, >= 1, lower is
    better) may not worsen by more than --tolerance;
  * timing metrics (wall_ms, steps_per_sec, *_ns) are reported but never
    gate — wall clock is machine-dependent, round counts are not;
  * series shape (row count, join keys) must match exactly: a silently
    shrunken series would otherwise look like a perf win.

Rows are joined on their non-metric fields (everything that is not a
known metric), so reordering rows is fine but dropping or re-keying them
is an error.  Boolean `*_ok` flags (mis_ok, schedule_ok: the protocol's
budget-sufficiency observations) are deliberately join keys: a flip from
1 to 0 re-keys the row and fails the gate loudly — silent budget
insufficiency cannot hide inside a tolerance.

Usage:
  tools/perf_trajectory.py --baseline-dir bench/baselines --current-dir build
Exit status 0 = no gating regressions, 1 = regression or shape mismatch.

Baseline regeneration:
  tools/perf_trajectory.py --update [names...]
copies the current run's BENCH_*.json files over the committed baselines
(all of them, or only the benches whose id contains one of the given
names, e.g. `--update f12 t6`), prints what changed, and exits 0.  Use
after an intentional perf-characteristic change, then commit the diff —
the gate itself never rewrites baselines.
"""

import argparse
import json
import os
import sys

# Metrics gated with the tolerance (higher = worse).  The suffix forms
# cover the per-arm series of the T-benches (ours_ratio, protocol_rounds,
# discovery_bytes, ...): complexity counters and quality ratios gate;
# exact floating equality across machines is NOT required for them (libm
# differences in log/pow may move last bits), which is why they are
# metrics rather than join keys.
GATED_UP = ("rounds", "steps", "epochs", "raises", "ratio")
GATED_SUFFIXES = ("_rounds", "_steps", "_messages", "_bytes", "_raises",
                  "_ratio", "_gap")
# Metrics reported but never gating.  speedup / *_speedup cover
# same-machine wall-clock ratios (f12's engine throughput, t7's
# warm_vs_cold_speedup): host speed cancels, but they are still
# wall-clock-derived, so informational like the _ms/_ns fields they
# come from.
INFORMATIONAL = ("wall_ms", "steps_per_sec", "profit", "speedup", "ns",
                 "time_ms")
INFO_SUFFIXES = ("_ms", "_ns", "_per_sec", "_profit", "_share", "_bound",
                 "_speedup", "_p50", "_p95")
# The obs/ flight recorder's exports (trace span totals, histogram
# summaries, registry counters) are diagnostics, never gates: they are
# wall-clock- and sampling-dependent.  Checked BEFORE the gated rules so
# e.g. a trace_rounds or hist_message_bytes field stays informational
# despite its gated-looking suffix.  The t8 durability bench's
# recovery_*/snapshot_* fields (replay counts, snapshot cursor, image
# bytes) are likewise diagnostics of the crash-recovery arm — the one
# deliberately gated durability metric is journal_bytes, which has no
# such prefix.
INFO_PREFIXES = ("trace_", "hist_", "obs_", "recovery_", "snapshot_")


def classify(field):
    if field.startswith(INFO_PREFIXES):
        return "info"
    if field in GATED_UP or field.endswith(GATED_SUFFIXES):
        return "gated"
    if field in INFORMATIONAL or field.endswith(INFO_SUFFIXES):
        return "info"
    return "key"


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items()
                        if classify(k) == "key"))


def load(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array")
    return data


def check_series(name, baseline, current, tolerance):
    failures = []
    notes = []
    if len(current) != len(baseline):
        failures.append(f"{name}: series shape changed — {len(baseline)} "
                        f"baseline rows vs {len(current)} current rows")
    base_rows = {}
    for row in baseline:
        key = row_key(row)
        if key in base_rows:
            failures.append(f"{name}: duplicate baseline key {key}")
        base_rows[key] = row
    seen = set()
    for row in current:
        key = row_key(row)
        if key not in base_rows:
            failures.append(f"{name}: current row {dict(key)} has no "
                            f"baseline counterpart")
            continue
        seen.add(key)
        base = base_rows[key]
        for field, value in row.items():
            kind = classify(field)
            if kind == "key":
                continue
            if field not in base:
                # A gated metric the baseline lacks cannot be checked at
                # all — that is a shape error, not a pass.
                if kind == "gated":
                    failures.append(f"{name}: gated metric '{field}' absent "
                                    f"from baseline at {dict(key)} — "
                                    f"regenerate the baseline")
                continue
            ref = base[field]
            if ref is None or value is None:
                continue
            if kind == "gated":
                limit = ref * (1.0 + tolerance) + 1e-9
                if value > limit:
                    failures.append(
                        f"{name}: {field} regressed {ref:g} -> {value:g} "
                        f"(> {100 * tolerance:.0f}%) at {dict(key)}")
            elif kind == "info" and ref > 0 and value > 0:
                rel = value / ref
                if rel > 2.0 or rel < 0.5:
                    notes.append(
                        f"{name}: {field} moved {ref:g} -> {value:g} "
                        f"({rel:.2f}x, informational) at {dict(key)}")
    missing = set(base_rows) - seen
    for key in sorted(missing):
        failures.append(f"{name}: baseline row {dict(key)} missing from "
                        f"current run")
    return failures, notes


def update_baselines(args):
    produced = sorted(f for f in os.listdir(args.current_dir)
                      if f.startswith("BENCH_") and f.endswith(".json"))
    if args.names:
        produced = [f for f in produced
                    if any(name in f for name in args.names)]
    if not produced:
        print(f"--update: no matching BENCH_*.json under {args.current_dir}",
              file=sys.stderr)
        return 1
    os.makedirs(args.baseline_dir, exist_ok=True)
    for fname in produced:
        src = os.path.join(args.current_dir, fname)
        dst = os.path.join(args.baseline_dir, fname)
        # Validate before copying: a truncated or malformed run must not
        # become the committed truth.
        load(src)
        fresh = not os.path.exists(dst)
        with open(src, "rb") as f:
            payload = f.read()
        with open(dst, "wb") as f:
            f.write(payload)
        print(f"  updated: {dst}" + (" (new baseline)" if fresh else ""))
    print(f"--update: {len(produced)} baseline(s) regenerated; review and "
          f"commit the diff")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="build")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative regression on gated metrics")
    parser.add_argument("--update", action="store_true",
                        help="regenerate baselines from the current run "
                             "instead of gating against them")
    parser.add_argument("names", nargs="*",
                        help="with --update: only benches whose file name "
                             "contains one of these substrings")
    args = parser.parse_args()

    if args.update:
        return update_baselines(args)
    if args.names:
        parser.error("bench name filters are only valid with --update")

    baselines = sorted(f for f in os.listdir(args.baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}",
              file=sys.stderr)
        return 1

    all_failures = []
    for fname in baselines:
        base_path = os.path.join(args.baseline_dir, fname)
        cur_path = os.path.join(args.current_dir, fname)
        if not os.path.exists(cur_path):
            all_failures.append(f"{fname}: not produced by the current run "
                                f"(expected {cur_path})")
            continue
        failures, notes = check_series(fname, load(base_path),
                                       load(cur_path), args.tolerance)
        for note in notes:
            print(f"  note: {note}")
        if failures:
            all_failures.extend(failures)
        else:
            print(f"  ok: {fname} within {100 * args.tolerance:.0f}% on all "
                  f"gated metrics")

    if all_failures:
        print("\nPERF TRAJECTORY REGRESSIONS:", file=sys.stderr)
        for failure in all_failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf trajectory: all series within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
