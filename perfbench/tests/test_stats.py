"""Percentiles, the ">= 10 samples beyond" rule and open-loop accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from harness import stats  # noqa: E402


def record(due_us, sent_us, recv_us, ok=True, op="decide"):
    recv = -1 if recv_us is None else int(recv_us * 1e3)
    return stats.Record(int(due_us * 1e3), int(sent_us * 1e3), recv, ok, op)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), (50, 50))
        self.assertEqual(stats.percentile(values, 0.99), (99, 1))
        self.assertEqual(stats.percentile(values, 1.0), (100, 0))
        self.assertEqual(stats.percentile([7], 0.5), (7, 0))

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(values, 0.6), (3, 2))

    def test_rejects_empty_and_bad_fraction(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0.0)

    def test_reportable_needs_ten_beyond(self):
        # p99 of 999 samples has 9 beyond it: not reportable.
        self.assertIsNone(stats.reportable_percentile(list(range(999)), 0.99))
        # 1000 samples: exactly 10 beyond.
        p = stats.reportable_percentile(list(range(1000)), 0.99)
        self.assertEqual(p, {"value": 989, "samples": 1000, "beyond": 10})
        # The median needs 20 samples.
        self.assertIsNone(stats.reportable_percentile(list(range(19)), 0.5))
        self.assertEqual(
            stats.reportable_percentile(list(range(20)), 0.5)["beyond"], 10)


class OpenLoopTest(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # The generator stalled: the request was due at 0 but left at
        # 5 ms; the server answered 100 us after it arrived.
        r = record(0, 5000, 5100)
        self.assertAlmostEqual(r.latency_us(), 5100.0)
        self.assertAlmostEqual(r.lateness_us(), 5000.0)

    def test_injected_server_stall_delays_every_queued_request(self):
        # 1000 requests every 1 ms, 100 us service; the server stalls for
        # 30 ms at request 500, so the requests due during the stall
        # queue behind it.  Timed from the send time the queue would be
        # invisible to all but the first; timed from due, all count.
        records = []
        busy_until = 0.0
        for i in range(1000):
            due = i * 1000.0
            start = max(due, busy_until)
            if i == 500:
                start += 30000.0
            busy_until = start + 100.0
            records.append(record(due, due, busy_until))
        lat = stats.latencies(records)
        delayed = sum(1 for v in lat if v > 1000.0)
        self.assertGreaterEqual(delayed, 29)
        summary = stats.phase_summary(records)
        self.assertGreater(summary["p99"]["value"], 1000.0)
        self.assertEqual(summary["failed"], 0)

    def test_failures_and_timeouts_miss_every_limit(self):
        records = [record(i * 1000.0, i * 1000.0, i * 1000.0 + 100)
                   for i in range(1000)]
        records[10] = record(10000, 10000, 10100, ok=False)
        records[20] = record(20000, 20000, None)
        self.assertEqual(stats.failed(records), 2)
        self.assertTrue(math.isinf(records[10].latency_us()))
        self.assertTrue(math.isinf(records[20].latency_us()))
        # 2 failures of 1000 do not move p99 past a 1 ms limit ...
        p99 = stats.phase_summary(records)["p99"]["value"]
        self.assertLessEqual(p99, 1000.0)
        # ... but 11 do: they are the slowest requests.
        for i in range(100, 111):
            records[i] = record(i * 1000.0, i * 1000.0, None)
        summary = stats.phase_summary(records)
        self.assertEqual(summary["failed"], 13)
        self.assertTrue(math.isinf(summary["p99"]["value"]))

    def test_parse_records(self):
        lines = ["0 10 200000 1\n", "1000000 1000010 -1 0\n"]
        records = stats.parse_records(lines, ["decide", "reload"])
        self.assertEqual(records[0].latency_us(), 200.0)
        self.assertFalse(records[1].answered)
        self.assertEqual(records[1].op, "reload")
        with self.assertRaises(ValueError):
            stats.parse_records(lines, ["decide"])


if __name__ == "__main__":
    unittest.main()
