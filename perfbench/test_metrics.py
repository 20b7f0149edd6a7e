"""Tests of the benchmark's own arithmetic:  python3 perfbench/test_metrics.py"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import median, self_times, tail, union_length  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


class TailRule(unittest.TestCase):
    def test_hundred_samples_is_p90(self):
        value, pct, n = tail(list(range(1, 101)))
        self.assertEqual(n, 100)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        # exactly ten samples lie beyond the reported value
        self.assertEqual(sum(v > value for v in range(1, 101)), 10)

    def test_order_does_not_matter(self):
        values = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 11, 12]
        self.assertEqual(tail(values), tail(sorted(values)))

    def test_eleven_samples_keep_ten_beyond(self):
        value, pct, n = tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertEqual(n, 11)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_fall_back_to_max(self):
        value, pct, n = tail([4, 1, 3])
        self.assertEqual((value, pct, n), (4, 100.0, 3))

    def test_failed_requests_are_misses(self):
        # 20 fast successes and 15 failures: the tail is a miss, and so is
        # the median once failures are the majority.
        values = [1.0] * 20 + [math.inf] * 15
        self.assertTrue(math.isinf(tail(values)[0]))
        self.assertEqual(median(values), 1.0)
        self.assertTrue(math.isinf(median([1.0] * 5 + [math.inf] * 6)))

    def test_longer_runs_move_the_percentile_up(self):
        self.assertEqual(tail(list(range(1000)))[1], 99.0)


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_sequential_children(self):
        got = self_times([span(1, 0, 0, 100), span(2, 1, 10, 30),
                          span(3, 1, 40, 70)])
        self.assertEqual(got, {1: 50, 2: 20, 3: 30})

    def test_overlapping_children_are_subtracted_once(self):
        # two workers busy at the same time under one parent
        got = self_times([span(1, 0, 0, 100), span(2, 1, 10, 60),
                          span(3, 1, 30, 80), span(4, 1, 75, 90)])
        self.assertEqual(got[1], 100 - (90 - 10))

    def test_identical_children(self):
        got = self_times([span(1, 0, 0, 10), span(2, 1, 2, 8),
                          span(3, 1, 2, 8)])
        self.assertEqual(got[1], 4)

    def test_children_clipped_to_the_parent(self):
        got = self_times([span(1, 0, 10, 20), span(2, 1, 5, 15),
                          span(3, 1, 18, 40)])
        self.assertEqual(got[1], 10 - 5 - 2)

    def test_grandchildren_count_only_against_their_parent(self):
        got = self_times([span(1, 0, 0, 100), span(2, 1, 0, 50),
                          span(3, 2, 10, 40)])
        self.assertEqual(got, {1: 50, 2: 20, 3: 30})

    def test_union_length(self):
        self.assertEqual(union_length([(0, 5), (3, 8), (10, 12), (11, 11)]), 10)
        self.assertEqual(union_length([]), 0)


class Registry(unittest.TestCase):
    def test_run_py_reports_what_benchmark_json_registers(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", run.E2E), ("per_layer", run.LAYER)):
            self.assertEqual({(m["name"], m["unit"]) for m in spec[key]},
                             set(table), key)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
