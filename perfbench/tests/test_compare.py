"""Edge cases of the compare rule (perfbench/compare.py).

Run with: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))

import compare  # noqa: E402

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_lower_is_better(self):
        v, wins, n = compare.verdict(BASE, scaled(BASE, 0.8), "lower", 0.1)
        self.assertEqual((v, wins, n), ("gain", 10, 10))

    def test_clear_gain_higher_is_better(self):
        v, wins, _ = compare.verdict(BASE, scaled(BASE, 1.2), "higher")
        self.assertEqual((v, wins), ("gain", 10))

    def test_nine_of_ten_wins_is_enough(self):
        change = scaled(BASE, 0.8)
        change[3] = BASE[3] * 1.01  # one loss
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0],
                         "gain")

    def test_ties_count_for_neither_side(self):
        change = scaled(BASE, 0.8)
        change[0] = BASE[0]  # one tie: still 9 wins of 10 pairs
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[:2],
                         ("gain", 9))
        change[1] = BASE[1]  # two ties: 8 of 10 is not enough
        v, wins, _ = compare.verdict(BASE, change, "lower", 0.1)
        self.assertEqual(wins, 8)
        self.assertNotEqual(v, "gain")

    def test_wins_without_a_median_gap_beyond_the_spread_are_no_gain(self):
        # Every pair wins by a hair, far inside the base's own spread.
        change = [b - 1e-6 for b in BASE]
        v, wins, _ = compare.verdict(BASE, change, "lower", 0.1)
        self.assertEqual(wins, 10)
        self.assertEqual(v, "within bound")

    def test_identical_values(self):
        self.assertEqual(compare.verdict(BASE, list(BASE), "lower", 0.1),
                         ("identical", 0, 10))
        self.assertEqual(compare.verdict([3.0], [3.0], "higher")[0],
                         "identical")

    def test_fewer_than_ten_pairs_make_no_claim(self):
        v, wins, n = compare.verdict(BASE[:9], scaled(BASE[:9], 0.5),
                                     "lower", 0.1)
        self.assertEqual((v, wins, n), ("too few pairs", 9, 9))

    def test_regression_beyond_bound(self):
        self.assertEqual(
            compare.verdict(BASE, scaled(BASE, 1.3), "lower", 0.1)[0],
            "regression")
        self.assertEqual(
            compare.verdict(BASE, scaled(BASE, 0.7), "higher", 0.1)[0],
            "regression")

    def test_worse_but_within_bound(self):
        self.assertEqual(
            compare.verdict(BASE, scaled(BASE, 1.04), "lower", 0.1)[0],
            "within bound")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
        change = list(reversed(noisy))
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1)[0],
                         "unresolved")

    def test_unbounded_metric_loss(self):
        self.assertEqual(compare.verdict(BASE, scaled(BASE, 1.5), "lower")[0],
                         "loss")
        self.assertEqual(
            compare.verdict(BASE, scaled(BASE, 1.001), "lower")[0],
            "no clear change")


class CompareFilesTest(unittest.TestCase):
    def test_rows_pair_runs_per_workload_and_metric(self):
        benchmark = {
            "end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "sim.syncs", "unit": "count",
                           "better": "lower"}],
        }

        def record(workload, wall, syncs):
            return {"workload": workload,
                    "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                "sim.syncs": {"value": syncs,
                                              "unit": "count"}}}

        base = [record("a", w, 7) for w in BASE] + [record("b", 1.0, 3)]
        change = [record("a", w * 0.5, 7) for w in BASE]
        rows = compare.compare(base, change, benchmark)
        self.assertEqual([(r["workload"], r["metric"], r["verdict"])
                          for r in rows],
                         [("a", "sim.syncs", "identical"),
                          ("a", "wall_s", "gain")])
        self.assertIn("wall_s", compare.render(rows))


if __name__ == "__main__":
    unittest.main()
