#!/usr/bin/env python3
"""Decision rule of the paired bench gate (scripts/bench_gate.py), on
synthetic samples: no build and no timing."""

import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))
import bench_gate  # noqa: E402

# Ten parent runs, median 100, quartiles 98.25 and 101.75: spread 0.035.
TIGHT = [97, 98, 98, 99, 100, 100, 101, 102, 102, 103]
# Ten parent runs, median 100, quartiles 70 and 130: spread 0.6.
WIDE = [50, 60, 70, 70, 90, 110, 130, 130, 140, 150]
END_TO_END = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "sat_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def verdict(parent, change, bound=0.25, better="lower"):
    return bench_gate.judge(parent, change, bound, better)["verdict"]


def scaled(runs, factor):
    return [x * factor for x in runs]


def perfbench_runs(p50s, rps, correct=True, failed=0, invalid=(), seed=1):
    return [{"correct": correct, "attempted": 1000, "failed": failed,
             "metrics": {"p50_ms": p, "sat_rps": r}, "seed": seed + i,
             "log": "seed%d.log" % (seed + i), "invalid": list(invalid)}
            for i, (p, r) in enumerate(zip(p50s, rps))]


class Judge(unittest.TestCase):
    def test_worse_than_bound_with_tight_spread_fails(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 1.3)), "FAIL")

    def test_within_bound_is_ok(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 1.2)), "ok")

    def test_better_is_ok(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 0.5)), "ok")

    def test_wide_spread_with_overlapping_runs_is_unresolved(self):
        # Median 100 -> 130 (worse by 0.3), but change runs overlap.
        self.assertEqual(verdict(WIDE, scaled(WIDE, 1.3)), "unresolved")
        # Never "ok", even without a move.
        self.assertEqual(verdict(WIDE, WIDE), "unresolved")

    def test_wide_spread_with_every_change_run_worse_fails(self):
        self.assertEqual(verdict(WIDE, [151] * 10), "FAIL")

    def test_higher_is_better_judged_in_its_direction(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 0.7), better="higher"),
                         "FAIL")
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 1.5), better="higher"),
                         "ok")
        self.assertEqual(verdict(WIDE, [49] * 10, better="higher"), "FAIL")

    def test_zero_parent_median_fails(self):
        self.assertEqual(verdict([0] * 10, TIGHT), "FAIL")

    def test_row_reports_medians_move_and_spread(self):
        row = bench_gate.judge(TIGHT, scaled(TIGHT, 1.1), 0.25)
        self.assertAlmostEqual(row["parent"], 100)
        self.assertAlmostEqual(row["change"], 110)
        self.assertAlmostEqual(row["move"], 0.1)
        self.assertAlmostEqual(row["spread"], 0.035)


class Workload(unittest.TestCase):
    def verdicts(self, parent, change):
        rows, problems = bench_gate.judge_workload(END_TO_END, parent, change)
        return {name: row["verdict"] for name, row in rows.items()}, problems

    def test_unchanged_passes(self):
        runs = perfbench_runs(TIGHT, scaled(TIGHT, 15))
        self.assertEqual(self.verdicts(runs, runs),
                         ({"p50_ms": "ok", "sat_rps": "ok"}, []))

    def test_throughput_drop_fails_on_sat_rps(self):
        parent = perfbench_runs(TIGHT, scaled(TIGHT, 15))
        change = perfbench_runs(TIGHT, scaled(TIGHT, 10))
        verdicts, problems = self.verdicts(parent, change)
        self.assertEqual(verdicts, {"p50_ms": "ok", "sat_rps": "FAIL"})
        self.assertEqual(problems, [])

    def test_incorrect_run_fails(self):
        parent = perfbench_runs(TIGHT, TIGHT)
        change = parent[:9] + perfbench_runs([100], [100], correct=False,
                                             seed=10)
        _, problems = self.verdicts(parent, change)
        self.assertEqual(problems, ["1 change run(s) with correct: false\n"
                                    "      seed 10: failed 0 of 1000"
                                    " (log: seed10.log)"])

    def test_incorrect_run_says_why(self):
        # A fired validity guard shows its line; failed answers their count.
        late = "invalid run: load generator ran late (lag p99 > 4 x latency p50)"
        parent = perfbench_runs(TIGHT, TIGHT)
        change = (parent[:8] +
                  perfbench_runs([100], [100], correct=False, invalid=[late],
                                 seed=9) +
                  perfbench_runs([100], [100], correct=False, failed=3,
                                 seed=10))
        _, problems = self.verdicts(parent, change)
        self.assertEqual(problems[0].splitlines(), [
            "2 change run(s) with correct: false",
            "      seed 9: " + late + " (log: seed9.log)",
            "      seed 10: failed 3 of 1000 (log: seed10.log)"])
        self.assertIn("failed share", problems[1])

    def test_invalid_lines_read_from_the_run_log(self):
        with tempfile.NamedTemporaryFile("w", suffix=".log") as log:
            log.write("window p50/p90/p99/lag_p99 ms: 1.4/2.0/3.1/9.0\n"
                      "invalid run: load generator ran late "
                      "(lag p99 > 4 x latency p50)\n"
                      "invalid run: IA still holds parked k_u\n")
            log.flush()
            self.assertEqual(bench_gate.invalid_lines(log.name), [
                "invalid run: load generator ran late "
                "(lag p99 > 4 x latency p50)",
                "invalid run: IA still holds parked k_u"])

    def test_larger_failed_share_fails(self):
        parent = perfbench_runs(TIGHT, TIGHT)
        change = parent[:9] + perfbench_runs([100], [100], failed=1)
        _, problems = self.verdicts(parent, change)
        self.assertEqual(len(problems), 1)
        self.assertIn("failed share", problems[0])
        # The same share on both sides is no regression.
        self.assertEqual(self.verdicts(change, change)[1], [])

    def test_missing_metric_fails(self):
        parent = perfbench_runs(TIGHT, TIGHT)
        change = perfbench_runs(TIGHT, TIGHT)
        del change[3]["metrics"]["p50_ms"]
        _, problems = self.verdicts(parent, change)
        self.assertEqual(problems, ["p50_ms not reported by every run"])


class Crypto(unittest.TestCase):
    def runs(self, **series):
        return [{name: values[i] for name, values in series.items()}
                for i in range(10)]

    def test_slower_series_fails_and_steady_one_passes(self):
        parent = self.runs(BM_A=TIGHT, BM_B=TIGHT)
        change = self.runs(BM_A=scaled(TIGHT, 1.2), BM_B=TIGHT)
        rows, problems = bench_gate.judge_crypto(parent, change)
        self.assertEqual({name: row["verdict"] for name, row in rows.items()},
                         {"BM_A": "FAIL", "BM_B": "ok"})
        self.assertEqual(problems, [])

    def test_series_erroring_on_change_side_fails(self):
        parent = self.runs(BM_A=TIGHT)
        change = self.runs(BM_A=TIGHT)
        change[4]["BM_A"] = None
        rows, problems = bench_gate.judge_crypto(parent, change)
        self.assertEqual(rows, {})
        self.assertEqual(problems, ["BM_A errors on the change side"])

    def test_series_missing_on_change_side_fails(self):
        parent = self.runs(BM_A=TIGHT, BM_B=TIGHT)
        change = self.runs(BM_A=TIGHT)
        _, problems = bench_gate.judge_crypto(parent, change)
        self.assertEqual(problems, ["BM_B missing on the change side"])

    def test_series_the_parent_cannot_run_is_not_judged(self):
        parent = self.runs(BM_A=[None] * 10)
        change = self.runs(BM_A=[None] * 10, BM_NEW=TIGHT)
        self.assertEqual(bench_gate.judge_crypto(parent, change), ({}, []))


if __name__ == "__main__":
    unittest.main()
