"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench/tests
"""

import json
import os
import sys
import unittest

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import WORKLOADS, Oracle, make_inputs  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # op [0, 10] has children a [1, 5] and c [6, 9]; a has child b [2, 3]
        tree = [
            ["op", 0.0, 10.0, -1, 0],
            ["a", 1.0, 5.0, 0, 0],
            ["b", 2.0, 3.0, 1, 0],
            ["c", 6.0, 9.0, 0, 0],
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 3.0, 1.0, 3.0])

    def test_children_cover_time_once(self):
        # overlapping children count their union; parts outside the parent do not count
        tree = [
            ["p", 0.0, 10.0, -1, None],
            ["x", 1.0, 5.0, 0, None],
            ["y", 4.0, 8.0, 0, None],
            ["z", 9.0, 12.0, 0, None],
        ]
        self.assertEqual(spans.self_times(tree)[0], 10.0 - 7.0 - 1.0)

    def test_layer_metrics_sum_self_time_by_name(self):
        tree = [
            ["op", 0.0, 10.0, -1, 0],
            ["solver.newton", 0.0, 8.0, 0, 0],
            ["solver.residual", 1.0, 2.0, 1, 0],
            ["solver.residual", 3.0, 4.0, 1, 0],
            ["surfaces.frames", 1.5, 2.0, 2, 0],
        ]
        m = spans.layer_metrics(tree, {"solver.newton_iters": 1})
        self.assertEqual(m["solver.residual_calls"]["value"], 2)
        self.assertEqual(m["solver.step_accept_ratio"]["value"], 0.5)
        self.assertEqual(m["surfaces.frames_s"]["value"], 0.5)
        self.assertEqual(m["solver.self_s"]["value"], 6.0 + 0.5 + 1.0)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS.values():
            self.assertEqual(make_inputs(w, 7, 30), make_inputs(w, 7, 30), w.name)

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS.values():
            self.assertNotEqual(make_inputs(w, 7, 30), make_inputs(w, 8, 30), w.name)


class _Stub:
    """Op 1 misses its oracle and op 2 raises; ops 0 and 3 pass."""

    def run(self, ctx, i, op):
        from stcmc.errors import MaxIterations

        if i == 2:
            raise MaxIterations("deliberate")
        return op

    def check(self, ctx, i, op, out):
        return ["deliberate miss"] if i == 1 else []


class OutputGate(unittest.TestCase):
    def test_failed_ops_counted_not_dropped(self):
        results = run_ops(_Stub(), None, [0, 1, 2, 3])
        self.assertEqual(len(results), 4)
        line = run.result_line([{"missed": [r["missed"] for r in results]}], {})
        self.assertEqual((line["attempted"], line["failed"], line["correct"]), (4, 2, False))

    def test_oracle_rejects_a_perturbed_root(self):
        w = Oracle()
        ctx = w.setup([])
        root = np.zeros((w.lmax + 1) ** 2)  # the round sphere of radius sigma is an exact root
        self.assertEqual(w.check(ctx, 0, {}, root), [])
        root[5] = 1e-3
        self.assertEqual(len(w.check(ctx, 0, {}, root)), 1)


class Tracing(unittest.TestCase):
    def test_install_wraps_every_namespace_and_undoes(self):
        import stcmc
        from stcmc import solver, surfaces

        original = surfaces.surface_frames
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            self.assertIsNot(solver.surface_frames, original)
            self.assertIs(solver.surface_frames, surfaces.surface_frames)
            with tracer.span("op"):
                solver.curvature_residual(
                    stcmc.SchwarzschildProvider(1.0), stcmc.GraphSurface.round([0, 0, 0], 20.0, 4), 20.0
                )
        finally:
            uninstall()
        self.assertIs(solver.surface_frames, original)
        names = {s[0] for s in tracer.spans}
        for name in ("solver.residual", "surfaces.frames", "chart.jet", "chart.curvature", "spectral.synth_jet"):
            self.assertIn(name, names)
        parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
        self.assertEqual(parents["surfaces.frames"], "solver.residual")
        self.assertGreater(tracer.counts["chart.jet_points"], 0)


class Overhead(unittest.TestCase):
    def test_estimate_counts_spans_in_ops_and_pass_throughs(self):
        tracer = spans.Tracer()
        with tracer.span("setup"):
            pass
        tracer.op = 0
        with tracer.span("op"):
            tracer.wrap("inner", lambda: None)()
            tracer.wrap("linalg", lambda: None, under="solver.")()
        self.assertEqual(tracer.passed, 1)
        self.assertAlmostEqual(spans.overhead_estimate(tracer, (1.0, 0.25)), 2.0 + 0.25)

    def test_call_costs_are_small_and_non_negative(self):
        span_cost, pass_cost = spans.call_costs(n=2000, repeats=3)
        self.assertTrue(0.0 <= span_cost < 1e-3 and 0.0 <= pass_cost < 1e-3)


class Steady(unittest.TestCase):
    def test_median_move_counts_either_way(self):
        import steady

        self.assertAlmostEqual(steady.moved(10.0, 13.0), 0.3)
        self.assertAlmostEqual(steady.moved(10.0, 7.0), 0.3)


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        expected = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
        expected[spans.OVERHEAD_METRIC] = "s"
        self.assertEqual(layers, expected)


if __name__ == "__main__":
    unittest.main()
