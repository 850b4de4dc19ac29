"""A failed correctness gate fails the run; inputs are seed-determined.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import os
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, ".."))

from harness import gen, phases, stats  # noqa: E402

spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

WANTED = [{"name": "decide_p50_us", "unit": "us"}]


CATALOGUE = {
    "a-te": ["time_s", "energy_j"],
    "b-ppw": ["time_s", "ppw_gips_per_w"],
    "c-eppw": ["energy_j", "ppw_gips_per_w"],
}


def context(seconds=phases.NOMINAL_SECONDS):
    ctx = phases.Context({}, tempfile.mkdtemp(), {"cell_scenario": "x"}, 1,
                         1, "modes.json", {}, seconds)
    ctx.metrics["decide_p50_us"] = 250.0
    return ctx


class GateTest(unittest.TestCase):
    def test_matching_digests_pass(self):
        ctx = context()
        phases.check_replay(ctx, "7a2738f7ebd48d2f",
                            {"digest": "7a2738f7ebd48d2f", "failed": 0})
        result = run.summarize(ctx, WANTED)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["decide_p50_us"],
                         {"value": 250.0, "unit": "us"})

    def test_digest_mismatch_fails_the_run(self):
        ctx = context()
        phases.check_replay(ctx, "7a2738f7ebd48d2f",
                            {"digest": "7a2738f7ebd48d2e", "failed": 0})
        self.assertFalse(run.summarize(ctx, WANTED)["correct"])

    def test_replay_failure_fails_the_run(self):
        ctx = context()
        phases.check_replay(ctx, "aa", {"digest": "aa", "failed": 3})
        self.assertFalse(run.summarize(ctx, WANTED)["correct"])

    def test_missing_metric_fails_the_run(self):
        ctx = context()
        del ctx.metrics["decide_p50_us"]
        result = run.summarize(ctx, WANTED)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})

    def test_benchmark_json_matches_the_workloads(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


class ShortRunTest(unittest.TestCase):
    def test_every_pooled_percentile_is_reportable_at_any_length(self):
        # --seconds scales the serve sessions and campaign repeats, but a
        # short run still pools enough samples for every percentile.
        for seconds in (1, 10, phases.NOMINAL_SECONDS):
            ctx = context(seconds)
            ctx.inputs = types.SimpleNamespace(stream=gen.StreamGenerator(
                CATALOGUE, dict(gen.BUILTIN_MODES), 1))
            low, high, reload = [], [], []
            for _ in range(ctx.repeats(phases.SESSIONS,
                                       phases.MIN_SESSIONS)):
                low += [op for _, op in phases.decide_requests(
                    ctx, phases.LOW_REQUESTS) if op != "batch"]
                ops = [op for _, op in phases.with_reloads(
                    phases.decide_requests(ctx, phases.HIGH_REQUESTS))]
                high += [op for op in ops if op not in ("batch", "reload")]
                reload += [op for op in ops if op == "reload"]
            for samples, q in ((low, 0.5), (low, 0.99), (high, 0.99),
                               (reload, 0.5)):
                self.assertIsNotNone(
                    stats.reportable_percentile([1.0] * len(samples), q),
                    "%g s: p%g of %d samples" % (seconds, q * 100,
                                                 len(samples)))
            for n in phases.LAUNCHES.values():
                self.assertGreaterEqual(
                    ctx.repeats(n, phases.MIN_REPEATS), 3)


class GeneratorTest(unittest.TestCase):
    DOCS = [
        {"name": "xu3-mibench-te", "platform": "exynos5422",
         "objectives": ["time_s", "energy_j"],
         "methods": ["parmis", "performance", "powersave", "ondemand"]},
        {"name": "mobile3-edp", "platform": "mobile3",
         "objectives": ["time_s", "edp_js"],
         "methods": ["parmis", "performance", "powersave", "ondemand"]},
    ]
    def test_campaign_plan_is_seeded_and_sized_by_seed_free_shape(self):
        a = gen.campaign_plan(self.DOCS, 3, 2)
        self.assertEqual(a, gen.campaign_plan(self.DOCS, 3, 2))
        b = gen.campaign_plan(self.DOCS, 4, 2)
        self.assertNotEqual(a[0]["base_seed"], b[0]["base_seed"])
        # Same cells and method shares whatever the seed.
        self.assertEqual(a[1:], b[1:])
        self.assertEqual(a[2], 2 * (4 + 4 + 2 * len(gen.LEARNED_METHODS)))
        self.assertAlmostEqual(sum(a[1].values()), 1.0)

    def test_stream_is_seeded_and_every_request_resolves(self):
        modes = dict(gen.BUILTIN_MODES)
        modes["deadline"] = ("best_for", ["time_s"])
        one = gen.StreamGenerator(CATALOGUE, modes, 5).requests(400)
        self.assertEqual(
            one, gen.StreamGenerator(CATALOGUE, modes, 5).requests(400))
        self.assertNotEqual(
            one, gen.StreamGenerator(CATALOGUE, modes, 6).requests(400))
        kinds = {kind for _, kind in one}
        self.assertEqual(kinds, {"mode", "auto", "weights", "batch"})
        for line, _ in one:
            doc = json.loads(line)
            bodies = doc["requests"] if doc["op"] == "batch" else [doc]
            for body in bodies:
                objectives = CATALOGUE[body["scenario"]]
                mode = body.get("mode")
                if mode == "auto":
                    mode = gen.auto_mode(body["workload"])
                if mode is not None:
                    self.assertTrue(gen.applicable(modes[mode], objectives),
                                    line)
                else:
                    self.assertTrue(set(body["weights"]) <= set(objectives))


if __name__ == "__main__":
    unittest.main()
