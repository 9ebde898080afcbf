"""Tests for the benchmark runner's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_accepts_the_allowed_alphabet(self):
        for name in ("infer_obs_per_s", "core.stats.ns_per_obs", "a-b", "0x", "A.b_c-9"):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_anything_else(self):
        for name in ("", "a b", "obs/s", "a:b", "naïve", "x\n", "(y)", "a,b"):
            self.assertFalse(run.valid_name(name), repr(name))

    def test_every_declared_metric_is_valid_and_unique(self):
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)
            self.assertLessEqual(len(name), 64)

    def test_result_line_refuses_an_invalid_name(self):
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})


class ResultLine(unittest.TestCase):
    def test_has_exactly_the_result_keys(self):
        line = run.result_line(True, 12, 0, {"setup_s": 0.5}, {"setup_s": "s"})
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(parsed["metrics"], {"setup_s": {"value": 0.5, "unit": "s"}})
        self.assertIs(parsed["correct"], True)
        self.assertEqual((parsed["attempted"], parsed["failed"]), (12, 0))


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / q2)

    def test_known_value(self):
        # Exclusive quartiles of 1..10 are 2.75, 5.5 and 8.25.
        self.assertAlmostEqual(run.quartile_spread(list(range(1, 11))), 1.0)


class ReferenceHost(unittest.TestCase):
    def test_factor_is_the_median_probe_over_the_reference(self):
        ref = run.PROBE_REFERENCE_S
        probes = [{"memory_s": ref * 0.6, "compute_s": ref * 0.6},
                  {"memory_s": ref * 0.5, "compute_s": ref * 0.3},
                  {"memory_s": ref * 5.0, "compute_s": ref * 5.0}]
        self.assertAlmostEqual(run.host_factor(probes), 1.2)

    def test_rates_scale_up_set_up_down_and_the_rest_passes_through(self):
        raw = {"infer_obs_per_s": 100.0, "query_lookups_per_s": 50.0, "setup_s": 3.0,
               "watch_peak_rss_mb": 70.0, "label_accuracy": 0.9}
        self.assertEqual(run.to_reference_host(raw, 2.0),
                         {"infer_obs_per_s": 200.0, "query_lookups_per_s": 100.0,
                          "setup_s": 1.5, "watch_peak_rss_mb": 70.0, "label_accuracy": 0.9})

    def test_every_timing_metric_is_scaled(self):
        raw = {name: 1.0 for name, _, _ in run.END_TO_END}
        out = run.to_reference_host(raw, 2.0)
        scaled = {name for name in out if out[name] != 1.0}
        self.assertEqual(scaled, {name for name, unit, _ in run.END_TO_END
                                  if unit in ("obs/s", "lookups/s", "s")})


class Scoring(unittest.TestCase):
    def test_scores_only_communities_with_known_truth(self):
        labels = [
            {"community": "1:1", "intent": "action"},
            {"community": "1:2", "intent": "information"},
            {"community": "2:7", "intent": "action"},
            {"community": "3:3", "intent": "action"},
        ]
        truth = {"1:1": "action", "1:2": "action", "2:7": "action"}
        self.assertAlmostEqual(run.score_labels(labels, truth), 2 / 3)

    def test_nothing_scored_is_zero(self):
        self.assertEqual(run.score_labels([], {"1:1": "action"}), 0.0)


class Parsing(unittest.TestCase):
    def test_check_line(self):
        out = "anomaly x\ncheck: 120 observations, 300 checked, 4 unknown, 0 anomalies\n"
        self.assertEqual(run.parse_check(out), (120, 0))
        self.assertEqual(run.parse_check("nothing"), (None, None))

    def test_watch_observations(self):
        out = "records              : 10\nobservations         : 4711\nwindow advances      : 3\n"
        self.assertEqual(run.parse_watch(out), 4711)
        self.assertIsNone(run.parse_watch(""))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json and run.py's tables must say the same thing."""

    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_lists_match_run_py(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
                         run.PER_LAYER)

    def test_bounds_and_set_up(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_shape_of_the_file(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertEqual(self.bench["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)
        for workload in self.bench["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)


if __name__ == "__main__":
    unittest.main()
