#!/usr/bin/env python3
"""Tests of the benchmark harness's own arithmetic.

    python3 perfbench/test_run.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 40 gaps: p75 leaves exactly 10 beyond it, p90 only 4.
        value, pct, beyond = run.tail_percentile(range(1, 41))
        self.assertEqual((value, pct, beyond), (30, 75.0, 10))

    def test_large_sample_reaches_high_percentile(self):
        samples = list(range(45961))
        value, pct, beyond = run.tail_percentile(samples)
        self.assertEqual(pct, 99.9)
        # 99.9% of 45961 is 45915.039: rank 45916, 45 samples beyond.
        self.assertEqual(beyond, 45)
        self.assertEqual(value, 45915)
        self.assertGreaterEqual(beyond, 10)

    def test_boundary_of_the_median(self):
        self.assertEqual(run.tail_percentile(range(20)), (9, 50.0, 10))
        self.assertEqual(run.tail_percentile(range(19)), (None, None, 0))

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile([]), (None, None, 0))
        self.assertEqual(run.tail_percentile([3.0]), (None, None, 0))

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(run.tail_percentile(samples),
                         run.tail_percentile(sorted(samples)))

    def test_count_of_samples_beyond_is_reported(self):
        for n in (20, 40, 41, 100, 1000, 10000):
            _, pct, beyond = run.tail_percentile(range(n))
            self.assertGreaterEqual(beyond, 10, n)
            higher = [s for s in run.TAIL_LADDER if s / 100 > pct]
            if higher:
                rank = -(-higher[0] * n // 10000)
                self.assertLess(n - rank, 10, n)


class ResidualTest(unittest.TestCase):
    def test_driver_residual(self):
        self.assertAlmostEqual(run.driver_residual(4.5, 0.25, 0.01), 4.24)

    def test_evaluator_estimate(self):
        driver = run.driver_residual(8.0, 0.01, 0.001)
        self.assertAlmostEqual(run.evaluator_estimate(driver, 0.5), 7.489)

    def test_residual_can_go_negative_when_replay_exceeds_driver(self):
        # The replay is measured outside the run, so on a workload that is
        # all graph work the estimate can dip below zero.
        self.assertLess(run.evaluator_estimate(4.0, 4.6), 0.0)


class ParallelEfficiencyTest(unittest.TestCase):
    def test_ideal_speedup_is_one(self):
        self.assertAlmostEqual(run.parallel_efficiency(8.0, 2.0, 4), 1.0)

    def test_serialized_service(self):
        self.assertAlmostEqual(run.parallel_efficiency(3.5, 3.5, 4), 0.25)


class TimedRunsTest(unittest.TestCase):
    def test_only_quiet_calls_are_timed(self):
        runs = [{"wall_s": 3.3, "quiet": 1, "steal_share": 0.01},
                {"wall_s": 7.7, "quiet": 0, "steal_share": 0.12},
                {"wall_s": 3.5, "quiet": 1, "steal_share": 0.02}]
        self.assertEqual([r["wall_s"] for r in run.timed_runs(runs)],
                         [3.3, 3.5])

    def test_least_stolen_half_when_none_was_quiet(self):
        runs = [{"wall_s": 7.5, "quiet": 0, "steal_share": 0.14},
                {"wall_s": 4.4, "quiet": 0, "steal_share": 0.06},
                {"wall_s": 6.3, "quiet": 0, "steal_share": 0.09},
                {"wall_s": 4.1, "quiet": 0, "steal_share": 0.05},
                {"wall_s": 8.0, "quiet": 0, "steal_share": 0.15}]
        self.assertEqual([r["wall_s"] for r in run.timed_runs(runs)],
                         [4.1, 4.4])
        self.assertEqual(run.timed_runs(runs[:1]), runs[:1])


def call(instance, wall_s, peak_rss_mb=80.0, questions=100, quiet=1,
         steal_share=0.01):
    return {"instance": instance, "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb, "quiet": quiet,
            "steal_share": steal_share, "submitted": 1, "failed": 0,
            "questions": questions, "rounds": 3, "hits": questions // 5,
            "cost_usd": 0.1 * (questions // 5)}


class EndToEndTest(unittest.TestCase):
    def test_calls_group_by_instance_in_order(self):
        runs = [call(0, 1.0), call(1, 2.0), call(2, 3.0), call(0, 1.1)]
        self.assertEqual([[r["wall_s"] for r in g]
                          for g in run.by_instance(runs)],
                         [[1.0, 1.1], [2.0], [3.0]])

    def test_times_are_instance_medians_averaged(self):
        # Instance 0 has three calls (median 4.0), instance 1 one (6.0):
        # a mean over calls would weigh instance 0 three times.
        runs = [call(0, 4.0, 90.0), call(1, 6.0, 120.0), call(0, 3.0, 92.0),
                call(0, 5.0, 94.0)]
        m = run.end_to_end({"runs": runs, "setup_s": [0.3, 0.1, 0.2],
                            "ref_s": [run.REF_NOMINAL_S]})
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["peak_rss_mb"], (92.0 + 120.0) / 2)
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_crowd_bill_sums_one_call_per_instance(self):
        runs = [call(0, 4.0, questions=100), call(1, 6.0, questions=250),
                call(0, 4.1, questions=100)]
        m = run.end_to_end({"runs": runs, "setup_s": [0.1],
                            "ref_s": [run.REF_NOMINAL_S]})
        self.assertEqual(m["questions"], 350)
        self.assertEqual(m["hits"], 70)
        self.assertAlmostEqual(m["cost_usd"], 7.0)
        self.assertEqual(m["ok_frac"], 1.0)

    def test_times_are_scaled_to_the_baseline_host(self):
        # The reference ran 1.5x slower than on the baseline host (median
        # of the samples), so the times shrink by 1.5; the bill does not.
        runs = [call(0, 6.0), call(1, 9.0)]
        ref = [1.5 * run.REF_NOMINAL_S, 9.0, 0.0]
        m = run.end_to_end({"runs": runs, "setup_s": [0.3], "ref_s": ref})
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertEqual(m["questions"], 200)
        self.assertEqual(run.raw_times({"runs": runs, "setup_s": [0.3]}),
                         (0.3, 7.5))

    def test_stolen_calls_of_an_instance_are_left_out(self):
        runs = [call(0, 4.0), call(0, 9.0, quiet=0, steal_share=0.2),
                call(1, 6.0)]
        m = run.end_to_end({"runs": runs, "setup_s": [0.1],
                            "ref_s": [run.REF_NOMINAL_S]})
        self.assertAlmostEqual(m["wall_s"], 5.0)


def sample_run():
    return {
        "cost_usd": 3074.4999999990914,
        "queries": [
            {"skyline": [1, 4, 9], "questions_per_round": [5, 3, 1],
             "cost_usd": 1.5},
            {"skyline": [0, 2], "questions_per_round": [2], "cost_usd": 0.1},
        ],
        "wall_s": 3.4,
    }


class DigestTest(unittest.TestCase):
    def test_identical_runs_agree(self):
        self.assertEqual(run.digest(sample_run()), run.digest(sample_run()))

    def test_timings_are_not_digested(self):
        other = sample_run()
        other["wall_s"] = 9.9
        self.assertEqual(run.digest(sample_run()), run.digest(other))

    def test_key_order_does_not_matter(self):
        reordered = sample_run()
        reordered["queries"] = [dict(reversed(list(q.items())))
                                for q in reordered["queries"]]
        self.assertEqual(run.digest(sample_run()), run.digest(reordered))

    def test_every_digested_field_changes_the_digest(self):
        base = run.digest(sample_run())
        edits = [
            lambda r: r["queries"][0]["skyline"].append(11),
            lambda r: r["queries"][1]["questions_per_round"].__setitem__(
                0, 3),
            lambda r: r["queries"][0].__setitem__("cost_usd", 1.6),
            lambda r: r.__setitem__("cost_usd", 3074.5),
            lambda r: r["queries"].reverse(),
        ]
        for edit in edits:
            changed = copy.deepcopy(sample_run())
            edit(changed)
            self.assertNotEqual(run.digest(changed), base)


if __name__ == "__main__":
    unittest.main()
