"""Hand-computed cases for the open-loop math.

Run from the repository root:  python3 perfbench/test_openloop.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import openloop  # noqa: E402
import run  # noqa: E402


class LatencyTest(unittest.TestCase):
    def test_idle_server_latency_is_service_time(self):
        self.assertEqual(openloop.latencies([10, 20, 10, 30], 100),
                         [10, 20, 10, 30])

    def test_stall_delays_later_batches(self):
        # due 0, 50, 100, 150, 200; done 10, 150, 160, 170, 210.
        self.assertEqual(openloop.latencies([10, 100, 10, 10, 10], 50),
                         [10, 100, 60, 20, 10])

    def test_overload_latency_grows_each_batch(self):
        self.assertEqual(openloop.latencies([10] * 5, 9),
                         [10, 11, 12, 13, 14])


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(openloop.percentile([10, 40], 95), 38.5)
        self.assertEqual(openloop.percentile([3, 1, 2], 50), 2)
        self.assertEqual(openloop.percentile([7], 95), 7)


class CapacityTest(unittest.TestCase):
    def test_idle_server_is_sustainable(self):
        self.assertTrue(openloop.sustainable([10, 10, 10, 10], 100, 50))

    def test_stall_past_the_limit_is_not_sustainable(self):
        # Latencies [10, 100, 60, 20, 10]: p95 = 92 > 80.
        self.assertFalse(openloop.sustainable([10, 100, 10, 10, 10], 50, 80))
        self.assertTrue(openloop.sustainable([10, 100, 10, 10, 10], 50, 100))

    def test_rate_above_capacity_is_a_growing_backlog(self):
        # p95 of 10..29 ms is far inside the limit, but 10 ms of work
        # arrives every 9 ms, so the queue never drains.
        service = [10] * 20
        self.assertLess(
            openloop.percentile(openloop.latencies(service, 9), 95), 1000)
        self.assertFalse(openloop.sustainable(service, 9, 1000))

    def test_max_rate_stops_at_the_backlog(self):
        # Constant 10 ms batches of 1 event: sustainable for any interval
        # above 10 ms, so capacity is 100 events/s.
        rate = openloop.max_events_per_s([10] * 20, [1] * 20, 1000)
        self.assertAlmostEqual(rate, 100.0, places=6)

    def test_max_rate_bound_by_the_work_of_a_stall(self):
        # Service [10, 40], 2 events each: p95 = 38.5 <= 40 once the
        # second batch never waits (interval >= 10), and the backlog
        # bound needs 50 < 2 * interval, so capacity is 4 events / 50 ms.
        rate = openloop.max_events_per_s([10, 40], [2, 2], 40)
        self.assertAlmostEqual(rate, 80.0, places=6)

    def test_max_rate_bound_by_the_latency_limit(self):
        # Service [10, 40]: even at an idle server p95 is 38.5 > 30.
        self.assertEqual(openloop.max_events_per_s([10, 40], [1, 1], 30), 0.0)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
