#!/usr/bin/env python3
"""Summarize a flight-recorder Chrome trace (src/obs/) into a terminal report.

Reads the JSON written by obs::write_chrome_trace (--trace=PATH on the
CLI and the benches), and prints:

  * per-worker utilization — busy (union of that thread's spans), idle
    (analysis window minus busy), and busy share of the window;
  * a phase table — per (category, name): span count, total time, and
    *exclusive* self time (total minus time covered by nested spans on
    the same thread), sorted by self time;
  * the critical-path phase — the top self-time phase on the main
    thread, i.e. where the wall clock actually went after subtracting
    the work that was delegated to nested spans;
  * the registry metrics embedded in otherData (counters + histogram
    summaries), when present.

The analysis window is the union of the main thread's root spans (main
thread spans that no other main-thread span contains), so process
startup and JSON dumping do not dilute utilization, and a multi-run
trace (the online service's per-batch runs) adds its repeated roots up.
A trace without main-thread spans falls back to the full extent of the
recorded spans.

Usage: tools/trace_report.py trace.json [--top N]
"""

import argparse
import bisect
import json
import sys
from collections import defaultdict

MAIN_TID = 0  # obs hands the first recording thread tid 0 ("main")


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, list):  # bare event-array form
        return doc, {}
    return doc.get("traceEvents", []), doc.get("otherData", {})


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def root_spans(spans, tid=MAIN_TID):
    """Spans of thread `tid` that no other span on that thread contains.

    Sorted by (start, -duration), a contained span follows its container,
    and roots are appended with strictly growing ends, so a span lies in
    some root exactly when it ends within the latest one.  A straddling
    after-the-fact span becomes a root of its own; the window's union
    absorbs the overlap.
    """
    roots = []
    for s in sorted((s for s in spans if s["tid"] == tid),
                    key=lambda s: (s["ts"], -s["dur"])):
        if roots and s["ts"] + s["dur"] <= roots[-1]["ts"] + roots[-1]["dur"]:
            continue
        roots.append(s)
    return roots


def merge_intervals(intervals):
    """Sorted, disjoint [start, end) intervals covering the same set."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def clip_to_window(start, end, window, starts):
    """The pieces of [start, end) inside the window's disjoint intervals
    (`starts` holds the intervals' start points, for bisection)."""
    pieces = []
    k = max(bisect.bisect_right(starts, start) - 1, 0)
    while k < len(window) and window[k][0] < end:
        lo, hi = max(start, window[k][0]), min(end, window[k][1])
        if hi > lo:
            pieces.append((lo, hi))
        k += 1
    return pieces


def analysis_window(spans):
    """(intervals, length, label) of the analysis window: the union of the
    main thread's root spans, else the full extent of the spans."""
    roots = root_spans(spans)
    if roots:
        window = merge_intervals(
            (s["ts"], s["ts"] + s["dur"]) for s in roots)
        label = f"union of {len(roots)} main-thread root span(s)"
    else:
        window = [[min(s["ts"] for s in spans),
                   max(s["ts"] + s["dur"] for s in spans)]]
        label = "full trace extent"
    length = sum(end - start for start, end in window)
    return window, max(length, 1e-9), label


def phase_table(spans):
    """Per (category/name): span count, total and exclusive self time."""
    agg = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    for s in spans:
        key = f"{s['cat']}/{s['name']}"
        agg[key]["count"] += 1
        agg[key]["total"] += s["dur"]
        agg[key]["self"] += s["self_dur"]
    return agg


def parse_events(events):
    """(thread names by tid, complete spans) of a Chrome trace."""
    thread_names = {}
    spans = []
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            thread_names[ev.get("tid", 0)] = ev["args"]["name"]
        elif ev.get("ph") == "X":
            spans.append({"cat": ev.get("cat", "?"), "name": ev["name"],
                          "ts": float(ev["ts"]), "dur": float(ev["dur"]),
                          "tid": int(ev.get("tid", 0))})
    return thread_names, spans


def self_times(spans):
    """Exclusive time per span via the sorted-stack nesting walk.

    RAII spans on one thread nest perfectly; sorting by (start,
    -duration) visits parents before their children, and a span's self
    time is its duration minus the durations of its direct children.
    After-the-fact spans (wire/round deltas) can straddle the RAII
    boundaries, so the stack pops everything that cannot fully *contain*
    the incoming span — a straddler becomes a sibling, never a bogus
    parent.
    """
    per_tid = defaultdict(list)
    for s in spans:
        per_tid[s["tid"]].append(s)
    for tid_spans in per_tid.values():
        tid_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in tid_spans:
            end = s["ts"] + s["dur"]
            while stack and end > stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            s["child_dur"] = 0.0
            if stack:
                stack[-1]["child_dur"] += s["dur"]
            stack.append(s)
    for s in spans:
        s["self_dur"] = max(0.0, s["dur"] - s.get("child_dur", 0.0))


def fmt_ms(us):
    return f"{us / 1000.0:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace JSON from --trace=PATH")
    parser.add_argument("--top", type=int, default=12,
                        help="phase rows to print (default 12)")
    args = parser.parse_args()

    events, other = load_trace(args.trace)
    thread_names, spans = parse_events(events)
    if not spans:
        print(f"{args.trace}: no complete ('X') spans — was tracing "
              f"enabled (runtime gate) and compiled in?", file=sys.stderr)
        return 1

    window, window_us, window_label = analysis_window(spans)
    window_starts = [start for start, _ in window]
    self_times(spans)

    print(f"trace: {args.trace}")
    print(f"spans: {len(spans)} across {len(set(s['tid'] for s in spans))} "
          f"thread(s); window = {fmt_ms(window_us)} ms ({window_label})")
    if other:
        kept = other.get("span_count")
        lost = other.get("overwritten_spans")
        if kept is not None:
            print(f"recorder: {kept} span(s) retained, "
                  f"{lost or 0} overwritten (ring wrap)")
    print()

    # --- per-worker utilization -----------------------------------------
    print("worker utilization (busy = union of spans inside the window):")
    print(f"  {'thread':<12} {'busy(ms)':>10} {'idle(ms)':>10} {'busy%':>7}")
    for tid in sorted(set(s["tid"] for s in spans)):
        intervals = []
        for s in spans:
            if s["tid"] == tid:
                intervals.extend(clip_to_window(
                    s["ts"], s["ts"] + s["dur"], window, window_starts))
        busy = union_length(intervals)
        idle = max(0.0, window_us - busy)
        name = thread_names.get(tid, f"tid-{tid}")
        print(f"  {name:<12} {fmt_ms(busy):>10} {fmt_ms(idle):>10} "
              f"{100.0 * busy / window_us:>6.1f}%")
    print()

    # --- phase table -----------------------------------------------------
    agg = phase_table(spans)
    ranked = sorted(agg.items(), key=lambda kv: -kv[1]["self"])
    print(f"phases by exclusive self time (top {min(args.top, len(ranked))}):")
    print(f"  {'phase':<24} {'count':>7} {'total(ms)':>11} {'self(ms)':>10} "
          f"{'self%':>7}")
    for key, a in ranked[:args.top]:
        print(f"  {key:<24} {a['count']:>7} {fmt_ms(a['total']):>11} "
              f"{fmt_ms(a['self']):>10} "
              f"{100.0 * a['self'] / window_us:>6.1f}%")
    print()

    # --- critical path ----------------------------------------------------
    # Worker spans overlap each other; the main thread's exclusive time is
    # the serial wall clock.  The top self-time phase there is the phase a
    # perf effort should attack first.
    main_agg = defaultdict(float)
    for s in spans:
        if s["tid"] == MAIN_TID:
            main_agg[f"{s['cat']}/{s['name']}"] += s["self_dur"]
    if main_agg:
        top_phase, top_self = max(main_agg.items(), key=lambda kv: kv[1])
        print(f"critical-path phase (top self time on main thread): "
              f"{top_phase} — {fmt_ms(top_self)} ms "
              f"({100.0 * top_self / window_us:.1f}% of window)")
    else:
        print("critical-path phase: no main-thread spans in this trace")

    # --- registry metrics -------------------------------------------------
    metrics = other.get("metrics") if isinstance(other, dict) else None
    if metrics:
        counters = metrics.get("counters", {})
        if counters:
            print("\ncounters:")
            for name in sorted(counters):
                print(f"  {name:<32} {counters[name]}")
        hists = metrics.get("histograms", {})
        if hists:
            print("\nhistograms:")
            print(f"  {'name':<28} {'count':>8} {'sum':>12} {'min':>8} "
                  f"{'p50':>8} {'p95':>8} {'max':>8}")
            for name in sorted(hists):
                h = hists[name]
                print(f"  {name:<28} {h['count']:>8} {h['sum']:>12} "
                      f"{h['min']:>8} {h['p50']:>8} {h['p95']:>8} "
                      f"{h['max']:>8}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # report piped into head/less and truncated
        sys.exit(0)
