"""Tests of the benchmark driver's arithmetic and parsing.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import tempfile
import unittest

import run


def span(id_, parent, start, end, name="x", thread=0, **attrs):
    return {"id": id_, "parent": parent, "thread": thread, "name": name,
            "start_ns": start, "end_ns": end, "attrs": attrs}


MANIFEST = {
    "name": "serve_saturation",
    "description": "d",
    "status": 0,
    "elapsed_ms": 3628.63,
    "sections": [{"type": "table", "table": {
        "title": "t", "columns": ["rate", "p99ms"],
        "rows": [["0.50", "751.3"], ["0.70", "991.4"]]}}],
}


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 1, 12, 20),
                 span(3, 0, 50, 60)]
        own = run.self_times(spans)
        self.assertAlmostEqual(own[0], 70e-9)
        self.assertAlmostEqual(own[1], 12e-9)
        self.assertAlmostEqual(own[2], 8e-9)
        self.assertAlmostEqual(own[3], 10e-9)

    def test_overlapping_children_count_their_union(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60, thread=1),
                 span(2, 0, 40, 90, thread=2), span(3, 0, 95, 120, thread=1)]
        self.assertAlmostEqual(run.self_times(spans)[0], 15e-9)

    def test_worker_roots_adopt_the_innermost_scenario_span(self):
        spans = [span(0, -1, 0, 100, name="runner.scenario.dse_memory"),
                 span(1, 0, 20, 80, name="roofsurface.validate"),
                 span(2, -1, 30, 50, name="kernels.gemm_steady", thread=1),
                 span(3, -1, 90, 95, name="kernels.gemm_steady", thread=2)]
        run.adopt_orphans(spans)
        self.assertEqual(spans[2]["parent"], 1)
        self.assertEqual(spans[3]["parent"], 0)
        own = run.self_times(spans)
        self.assertAlmostEqual(own[0], 35e-9)
        self.assertAlmostEqual(own[1], 40e-9)


class Pauses(unittest.TestCase):
    def test_spans_do_not_count_pauses(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 15, 25), span(2, 0, 40, 50)]
        run.remove_pauses(spans, [(10, 20), (30, 35)])
        self.assertEqual([(s["start_ns"], s["end_ns"]) for s in spans],
                         [(0, 85), (10, 15), (25, 35)])

    def test_sample_times_exclude_pauses_and_scale_by_slowdown(self):
        proc = run.Proc(wall=12.0, t1=12_000_000_000, cpu=9.0, rss_mb=20.0,
                        elapsed=11.9,
                        pauses=[(1_000_000_000, 2_000_000_000),
                                (3_000_000_000, 4_000_000_000)],
                        chunks=[1.5 * run.PROBE_REF_NS, 2.5 * run.PROBE_REF_NS])
        m = run.e2e_of([proc])
        self.assertAlmostEqual(m["slowdown"], 2.0)
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["cpu_s"], 4.5)
        self.assertAlmostEqual(m["setup_s"], 0.05)
        self.assertAlmostEqual(m["raw_wall_s"], 10.0)

    def test_a_pause_after_the_last_scenario_is_not_setup(self):
        ms = 1_000_000
        inside = (100 * ms, 106 * ms)
        after = (195 * ms, 201 * ms)
        # The scenario ran from 1 ms to 193 ms; 1 ms before it and 5 ms
        # after it, outside the late pause, are setup.
        proc = run.Proc(wall=0.204, t1=204 * ms, pauses=[inside, after])
        self.assertAlmostEqual(run.setup_of(proc, 0.192), 0.006)
        # Without the late pause the scenario ends at 199 ms.
        proc = run.Proc(wall=0.204, t1=204 * ms, pauses=[inside])
        self.assertAlmostEqual(run.setup_of(proc, 0.198), 0.006)


class ManifestParsing(unittest.TestCase):
    def test_single_scenario_is_a_bare_object(self):
        self.assertEqual(run.scenarios_of(MANIFEST), [MANIFEST])

    def test_several_scenarios_are_wrapped(self):
        doc = {"schema": "s", "jobs": 1, "scenarios": [MANIFEST, MANIFEST]}
        self.assertEqual(len(run.scenarios_of(doc)), 2)

    def test_other_json_is_rejected(self):
        with self.assertRaises(ValueError):
            run.scenarios_of([1, 2])

    def test_p95_is_read_from_dse_campaign_prose(self):
        doc = {"name": "dse_campaign", "sections": [
            {"type": "prose",
             "text": "p95 analytic-vs-sim relative error: 7.84% over 32\n"}]}
        self.assertEqual(run.p95_err_pct([doc]), 7.84)


class OutputCheck(unittest.TestCase):
    refs = {"serve_saturation": run.digest(MANIFEST)}

    def check(self, doc):
        return run.check_outputs(json.dumps(doc), ["serve_saturation"],
                                 self.refs)[0]

    def test_reference_output_passes(self):
        self.assertEqual(self.check(MANIFEST), {})

    def test_elapsed_ms_is_ignored(self):
        doc = copy.deepcopy(MANIFEST)
        doc["elapsed_ms"] = 1.0
        self.assertEqual(self.check(doc), {})

    def test_one_changed_cell_fails(self):
        doc = copy.deepcopy(MANIFEST)
        doc["sections"][0]["table"]["rows"][1][1] = "991.5"
        self.assertEqual(self.check(doc),
                         {"serve_saturation": "output differs from reference"})

    def test_failed_status_and_missing_scenario_fail(self):
        doc = copy.deepcopy(MANIFEST)
        doc["status"] = 1
        self.assertEqual(self.check(doc), {"serve_saturation": "status 1"})
        doc["name"] = "other"
        self.assertEqual(self.check(doc),
                         {"serve_saturation": "missing from output"})

    def test_unparsable_output_fails(self):
        probs, _ = run.check_outputs("not json", ["serve_saturation"],
                                     self.refs)
        self.assertIn("unparsable", probs["serve_saturation"])


class LayerMetrics(unittest.TestCase):
    def test_counts_distinct_keys_and_rates(self):
        spans = [span(0, -1, 0, 4_000_000_000,
                      name="runner.scenario.serve_resilience",
                      baseline_hits=0, baseline_misses=0)]
        for i in range(6):
            spans.append(span(1 + i, 0, 100 + i * 10, 105 + i * 10,
                              name="kernels.gemm_steady", key="k%d" % (i % 2)))
        spans.append(span(7, 0, 1_000_000_000, 3_000_000_000,
                          name="serve.sim", requests=1000.0))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.json")
            with open(path, "w") as f:
                json.dump({"spans": spans}, f)
            proc = run.Proc(wall=5.5, spans_path=path,
                            pauses=[(500_000_000, 1_000_000_000)],
                            chunks=[2 * run.PROBE_REF_NS])
            m, calls = run.layer_metrics([proc])
        self.assertEqual(m["kernels.gemm_steady.calls"], 6)
        self.assertEqual(m["kernels.gemm_steady.distinct"], 2)
        # The host ran at half the reference speed: times halve, rates
        # double. The pause before serve.sim shifts it but not its length.
        self.assertEqual(m["serve.sim.runs"], 1)
        self.assertAlmostEqual(m["serve.sim.self_s"], 1.0)
        self.assertAlmostEqual(m["serve.sim.requests_per_s"], 1000.0)
        # (5.5 s wall - 0.5 s paused - 3.5 s unpaused scenario) / 2.
        self.assertAlmostEqual(m["runner.outside_s"], 0.75)
        self.assertEqual(m["kernels.gemm.calls"], 0)
        self.assertEqual(set(m) | {k for k in run.LAYER_UNITS
                                   if k.startswith(("sim.", "trace."))},
                         set(run.LAYER_UNITS))
        self.assertEqual(calls["kernels.gemm_steady"], 6)

    def test_a_layer_the_workload_must_enter_is_checked(self):
        calls = {n: 1 for n in run.WORKLOADS["serve_faults"]["enters"]}
        calls["runner.scenario.serve_resilience"] = 1
        self.assertEqual(run.missing_spans("serve_faults", calls), [])
        del calls["serve.sim"]
        calls["runner.scenario.serve_resilience"] = 0
        self.assertEqual(run.missing_spans("serve_faults", calls),
                         ["serve.sim", "runner.scenario.serve_resilience"])


if __name__ == "__main__":
    unittest.main()
