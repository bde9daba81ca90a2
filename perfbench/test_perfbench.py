"""Tests of the perfbench helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest
from collections import Counter

import measure
import plan
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(measure.percentile(values, 0), 1.0)
        self.assertEqual(measure.percentile(values, 100), 4.0)
        self.assertAlmostEqual(measure.percentile(values, 50), 2.5)
        self.assertAlmostEqual(measure.percentile(values, 95), 3.85)

    def test_single_sample_and_empty(self):
        self.assertEqual(measure.percentile([7.0], 95), 7.0)
        with self.assertRaises(ValueError):
            measure.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_percentile(19))
        self.assertEqual(measure.tail_percentile(20), 50.0)
        self.assertEqual(measure.tail_percentile(99), 50.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(199), 90.0)
        self.assertEqual(measure.tail_percentile(200), 95.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(10000), 99.9)

    def test_serve_minimum_supports_p95(self):
        self.assertGreaterEqual(
            measure.tail_percentile(workloads.ServeMixed.MIN_REQUESTS), 95.0)

    def test_spread_is_iqr_over_median(self):
        self.assertEqual(measure.spread([10.0] * 5), 0.0)
        self.assertAlmostEqual(measure.spread([8, 9, 10, 11, 12]), 0.3)


class EnoughWorkTest(unittest.TestCase):
    def test_time_floor_and_minimum(self):
        self.assertFalse(workloads.enough_work(29.9, 500, 30, 200, 280))
        self.assertFalse(workloads.enough_work(45.0, 199, 30, 200, 280))

    def test_goes_on_towards_the_target_for_a_fifth_longer(self):
        self.assertFalse(workloads.enough_work(31.0, 250, 30, 200, 280))
        self.assertTrue(workloads.enough_work(31.0, 280, 30, 200, 280))
        self.assertTrue(workloads.enough_work(36.0, 250, 30, 200, 280))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(measure.self_times([(0, 10, -1)]), [10])

    def test_children_are_subtracted(self):
        spans = [(0, 100, -1), (10, 30, 0), (50, 60, 0), (55, 58, 2)]
        self.assertEqual(measure.self_times(spans), [70, 20, 7, 3])

    def test_overlapping_children_count_once(self):
        spans = [(0, 100, -1), (10, 40, 0), (30, 50, 0)]
        self.assertEqual(measure.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(10, 20, -1), (5, 15, 0), (18, 30, 0)]
        self.assertEqual(measure.self_times(spans)[0], 3)

    def test_union_length(self):
        self.assertEqual(measure.union_length([]), 0)
        self.assertEqual(measure.union_length([(0, 5), (5, 8), (10, 11)]), 9)
        self.assertEqual(measure.union_length([(3, 3), (1, 2)]), 1)


class ServePlanTest(unittest.TestCase):
    def test_same_seed_same_plan(self):
        self.assertEqual(plan.serve_plan(7, 300), plan.serve_plan(7, 300))
        self.assertEqual(plan.hot_set(7), plan.hot_set(7))

    def test_other_seed_other_plan(self):
        self.assertNotEqual(plan.serve_plan(7, 48), plan.serve_plan(8, 48))
        self.assertNotEqual(plan.hot_seed(7), plan.hot_seed(8))

    def test_prefix_is_stable(self):
        self.assertEqual(plan.serve_plan(3, 100),
                         plan.serve_plan(3, 250)[:100])

    def test_block_composition(self):
        p = plan.serve_plan(11, 4 * plan.BLOCK)
        for b in range(4):
            kinds = Counter(r.kind for r in
                            p[b * plan.BLOCK:(b + 1) * plan.BLOCK])
            self.assertEqual(kinds, {"hot": 18, "compat": 4, "fresh": 2})

    def test_whole_blocks_have_a_seed_independent_mix(self):
        n = workloads.ServeMixed.CYCLE_REQUESTS

        def mix(seed):
            return Counter((r.kind, r.accel, r.network)
                           for r in plan.serve_plan(seed, n))
        self.assertEqual(mix(1), mix(2))
        self.assertEqual(mix(1), mix(12345))

    def test_seeds(self):
        p = plan.serve_plan(5, 10 * plan.BLOCK)
        hs = plan.hot_seed(5)
        for r in p:
            if r.kind == "fresh":
                self.assertNotEqual(r.seed, hs)
            else:
                self.assertEqual(r.seed, hs)
        fresh = [r.seed for r in p if r.kind == "fresh"]
        self.assertEqual(len(fresh), len(set(fresh)))
        self.assertTrue(all(0 < r.seed < 2 ** 53 for r in p))

    def test_hot_set_covers_the_hot_pairs(self):
        pairs = {(r.accel, r.network) for r in plan.hot_set(1)}
        self.assertEqual(len(pairs), 6)
        self.assertEqual(pairs, {(r.accel, r.network)
                                 for r in plan.serve_plan(1, 200)
                                 if r.kind == "hot"})


class LayerMetricsTest(unittest.TestCase):
    def span(self, name, start, end, parent=-1, design="", network="",
             layer=-1, count=0, outcome=""):
        return [name, start, end, parent, 1, design, network, layer, count,
                outcome]

    def test_self_times_by_layer(self):
        spans = [
            self.span("workload.synth", 0, 2_000_000, network="VGG16"),
            self.span("workload.get", 2_000_000, 5_000_000, network="VGG16",
                      layer=0, outcome="compile"),
            self.span("accel.prepare", 2_500_000, 4_500_000, parent=1),
            self.span("workload.get", 5_000_000, 6_000_000, network="VGG16",
                      layer=0, outcome="mem"),
            self.span("accel.execute", 6_000_000, 9_000_000, design="loas",
                      network="VGG16", layer=0, count=1000),
            self.span("api.render", 9_000_000, 10_000_000),
            # Outside the traced pass window: ignored.
            self.span("workload.synth", 20_000_000, 30_000_000),
        ]
        passes = [{"id": 1, "traced": True, "start_ns": 0,
                   "end_ns": 10_000_000}]
        out, span_ms = workloads.layer_metrics({"spans": spans}, passes, 1)
        self.assertAlmostEqual(out["workload.synth_ms"], 2.0)
        self.assertAlmostEqual(out["workload.compile_ms"], 2.0)
        self.assertEqual(out["workload.compiles"], 1)
        self.assertAlmostEqual(out["workload.cache_hit_ratio"], 0.5)
        self.assertAlmostEqual(out["accel.execute_ms.loas"], 3.0)
        self.assertAlmostEqual(out["accel.execute_ms.loas.vgg16-L0"], 3.0)
        self.assertAlmostEqual(out["accel.ns_per_op.loas"], 3000.0)
        self.assertAlmostEqual(out["api.render_ms"], 1.0)
        self.assertAlmostEqual(span_ms, 10.0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         workloads.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         workloads.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
