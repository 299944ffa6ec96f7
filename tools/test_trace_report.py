#!/usr/bin/env python3
"""Unit tests for the trace analyzer's window (tools/trace_report.py).

The report divides every phase's self time by its analysis window.  The
window is the union of the main thread's root spans, so a trace with
repeated roots (the online service runs the engine once per batch) adds
them up instead of measuring against one run.  Registered as the
`test_trace_report` ctest.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
_SCRIPT = os.path.join(_TOOLS_DIR, "trace_report.py")
_SPEC = importlib.util.spec_from_file_location("trace_report", _SCRIPT)
trace_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_report)


def span(cat, name, ts, dur, tid=0):
    return {"ph": "X", "pid": 0, "tid": tid, "cat": cat, "name": name,
            "ts": ts, "dur": dur}


# Two main-thread roots (two online batches, each with one engine run)
# and a worker with one span inside the second root and one outside
# every root.  The longest engine/run is 180 us, while engine/stage
# self time sums to 220 us over both runs.
TWO_ROOTS = [
    {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
     "args": {"name": "main"}},
    {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
     "args": {"name": "worker-1"}},
    span("online", "step", 0, 100),
    span("engine", "run", 10, 80),
    span("engine", "stage", 20, 60),
    span("online", "step", 500, 200),
    span("engine", "run", 510, 180),
    span("engine", "stage", 520, 160),
    span("engine", "component", 530, 100, tid=1),
    span("engine", "component", 800, 50, tid=1),
]


class WindowTest(unittest.TestCase):
    def setUp(self):
        _, self.spans = trace_report.parse_events(TWO_ROOTS)

    def test_window_is_the_sum_of_the_main_thread_roots(self):
        roots = trace_report.root_spans(self.spans)
        self.assertEqual([(s["ts"], s["dur"]) for s in roots],
                         [(0.0, 100.0), (500.0, 200.0)])
        window, length, label = trace_report.analysis_window(self.spans)
        self.assertEqual(window, [[0.0, 100.0], [500.0, 700.0]])
        self.assertEqual(length, 300.0)
        self.assertIn("2 main-thread root span(s)", label)

    def test_no_phase_exceeds_the_window(self):
        _, length, _ = trace_report.analysis_window(self.spans)
        trace_report.self_times(self.spans)
        table = trace_report.phase_table(self.spans)
        self.assertEqual(table["engine/stage"]["self"], 220.0)
        for key, row in table.items():
            self.assertLessEqual(row["self"], length, key)

    def test_worker_busy_time_is_clipped_to_the_window(self):
        window, _, _ = trace_report.analysis_window(self.spans)
        starts = [start for start, _ in window]
        self.assertEqual(
            trace_report.clip_to_window(530.0, 630.0, window, starts),
            [(530.0, 630.0)])
        self.assertEqual(
            trace_report.clip_to_window(800.0, 850.0, window, starts), [])
        self.assertEqual(
            trace_report.clip_to_window(50.0, 600.0, window, starts),
            [(50.0, 100.0), (500.0, 600.0)])

    def test_trace_without_main_thread_spans_uses_the_full_extent(self):
        _, spans = trace_report.parse_events(
            [span("engine", "component", 10, 5, tid=1),
             span("engine", "component", 40, 10, tid=2)])
        window, length, label = trace_report.analysis_window(spans)
        self.assertEqual(window, [[10.0, 50.0]])
        self.assertEqual(length, 40.0)
        self.assertEqual(label, "full trace extent")

    def test_report_prints_the_root_count_and_bounded_phases(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": TWO_ROOTS}, f)
            out = subprocess.run([sys.executable, _SCRIPT, path],
                                 capture_output=True, text=True, check=True,
                                 env=dict(os.environ,
                                          PYTHONDONTWRITEBYTECODE="1"))
        self.assertIn("window = 0.300 ms (union of 2 main-thread root "
                      "span(s))", out.stdout)
        rows = re.findall(r"^  (\w+/\w+)\s+\d+\s+[\d.]+\s+[\d.]+\s+"
                          r"([\d.]+)%$", out.stdout, re.MULTILINE)
        self.assertIn("engine/stage", [key for key, _ in rows])
        for key, share in rows:
            self.assertLessEqual(float(share), 100.0, key)


if __name__ == "__main__":
    unittest.main()
