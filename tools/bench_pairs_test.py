#!/usr/bin/env python3
"""Self-check of the pair runner's verdicts on made-up pairs.

    python3 tools/bench_pairs_test.py

Runs no benchmark; CTest runs it as bench_pairs_test.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # importing bench_pairs leaves no __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import summary, verdicts  # noqa: E402

RUN_S = {"name": "run_s.p50", "better": "lower", "bound": 0.25}
GFLOPS = {"name": "gflops", "better": "higher", "bound": 0.25}
NO_FAILURES = {"parent": 0, "change": 0}


def parent_runs(n):
    """n parent medians around 1.0 s with a small spread."""
    return [1.0 + 0.01 * (i % 3) for i in range(n)]


class Verdicts(unittest.TestCase):
    def test_ten_clean_wins_are_a_gain(self):
        pairs = [(p, 0.6) for p in parent_runs(10)]
        out = verdicts(RUN_S, pairs, NO_FAILURES)
        self.assertIn("wins 10/10", out)
        self.assertIn("gain: yes", out)
        self.assertIn("regression: no", out)

    def test_fewer_than_ten_pairs_are_no_gain(self):
        pairs = [(p, 0.6) for p in parent_runs(5)]
        out = verdicts(RUN_S, pairs, NO_FAILURES)
        self.assertIn("wins 5/5", out)
        self.assertIn("gain: no (5 pairs, fewer than 10)", out)

    def test_higher_is_better_metric(self):
        pairs = [(1.0 / p, 1.0 / 0.6) for p in parent_runs(10)]
        out = verdicts(GFLOPS, pairs, NO_FAILURES)
        self.assertIn("wins 10/10", out)
        self.assertIn("gain: yes", out)

    def test_failed_change_runs_count_against_a_gain(self):
        # The change wins the 7 pairs it finishes and fails in 3: that is
        # 7 wins of 10 pairs run, and more failed ops than the parent.
        pairs = [(p, 0.6) for p in parent_runs(7)] + [(1.0, None)] * 3
        out = verdicts(RUN_S, pairs, {"parent": 0, "change": 3})
        self.assertIn("wins 7/10", out)
        self.assertIn("gain: no (change failed 3 ops vs parent 0)", out)
        self.assertIn("regression: REGRESSION (change failed 3 ops vs "
                      "parent 0)", out)

    def test_nine_wins_with_more_failed_ops_are_no_gain(self):
        pairs = [(p, 0.6) for p in parent_runs(9)] + [(1.0, None)]
        out = verdicts(RUN_S, pairs, {"parent": 0, "change": 1})
        self.assertIn("wins 9/10", out)
        self.assertIn("gain: no (change failed 1 ops vs parent 0)", out)

    def test_failed_parent_runs_still_count_as_pairs(self):
        pairs = [(p, 0.6) for p in parent_runs(8)] + [(None, 0.6)] * 2
        out = verdicts(RUN_S, pairs, {"parent": 2, "change": 0})
        self.assertIn("wins 8/10", out)
        self.assertIn("gain: no", out)
        self.assertNotIn("REGRESSION", out)

    def test_change_without_any_result(self):
        out = verdicts(RUN_S, [(1.0, None)] * 4, {"parent": 0, "change": 4})
        self.assertIn("no result from the change", out)
        self.assertIn("gain: no (change failed 4 ops vs parent 0)", out)
        self.assertIn("regression: REGRESSION", out)

    def test_identical_values_need_every_run(self):
        self.assertIn("identical on all 6 runs",
                      verdicts(RUN_S, [(0.5, 0.5)] * 3, NO_FAILURES))
        out = verdicts(RUN_S, [(0.5, 0.5)] * 2 + [(0.5, None)],
                       {"parent": 0, "change": 1})
        self.assertNotIn("identical", out)
        self.assertIn("regression: REGRESSION", out)

    def test_slower_median_beyond_the_bound_is_a_regression(self):
        pairs = [(p, 1.4) for p in parent_runs(10)]
        out = verdicts(RUN_S, pairs, NO_FAILURES)
        self.assertIn("gain: no", out)
        self.assertIn("regression: REGRESSION", out)


class Summary(unittest.TestCase):
    def test_median_ops_per_side(self):
        out = summary({"parent": 0, "change": 1},
                      {"parent": [55, 52, 54], "change": [88, None, 90, 95]})
        self.assertIn("failed ops 0/1", out)
        self.assertIn("median ops attempted 54/90", out)

    def test_side_without_counts(self):
        out = summary({"parent": 0, "change": 2},
                      {"parent": [60, 61], "change": [None, None]})
        self.assertIn("median ops attempted 60.5/-", out)


if __name__ == "__main__":
    unittest.main()
