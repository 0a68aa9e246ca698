"""Fast checks of the benchmark's own code; runs no heavy solve.

    python3 perfbench/selftest.py
"""

import json
import unittest

import run
import tracing

workloads = run._import_program()

from ecdlab import ecd_core, scenarios  # noqa: E402  (needs the path set above)


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),       # overlaps a: the union [1, 6] is covered once
            ("c", 2.0, 3.0, 1),
            ("a", 7.0, 8.0, 0),       # same name twice: self times add up
            ("late", 9.5, 12.0, 0),   # runs past its parent: clipped to [9.5, 10]
        ]
        self.assertEqual(tracing.self_times(spans),
                         {"root": 10.0 - 5.0 - 1.0 - 0.5, "a": 2.0 + 1.0, "b": 3.0,
                          "c": 1.0, "late": 2.5})

    def test_root_inclusive_skips_nested_spans(self):
        spans = [("run", 0.0, 10.0, -1), ("em.lw_field", 1.0, 3.0, 0),
                 ("em.lw_potential", 1.5, 2.0, 1), ("em.lw_potential", 4.0, 4.5, 0)]
        self.assertEqual(tracing.root_inclusive(spans, "em."), 2.5)


class Inputs(unittest.TestCase):
    def test_seed_zero_scenarios_validate(self):
        for workload in workloads.WORKLOADS.values():
            for name, doc in workload.make(0).get("scenarios", {}).items():
                with self.subTest(workload=workload.name, scenario=name):
                    self.assertEqual(scenarios.validate_config(doc), [])

    def test_seeds_are_reproducible_and_keep_problem_sizes(self):
        def sizes(node):
            if isinstance(node, dict):
                return {k: sizes(v) for k, v in node.items()}
            if isinstance(node, list):
                return [sizes(v) for v in node] if any(
                    isinstance(v, (dict, list)) for v in node) else len(node)
            return type(node).__name__
        for workload in workloads.WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertEqual(json.dumps(workload.make(7)), json.dumps(workload.make(7)))
                self.assertNotEqual(workload.make(7), workload.make(8))
                self.assertEqual(sizes(workload.make(0)), sizes(workload.make(7)))

    def test_seed_zero_reference_values(self):
        cf = workloads.WORKLOADS["cf-wave-full"].make(0)
        self.assertEqual((cf["electric"], cf["s_samples"], cf["epsilon"], cf["s_max"]),
                         ([0.1, 0.0, 0.0], [-1.0], 1e-2, 10.0))
        lw = workloads.WORKLOADS["lw-map"].make(0)["scenarios"]["lw-field-map"]["parameters"]
        self.assertEqual(lw["worldline"]["x0"], [0.0, 0.0, 0.0, 0.0])


class Tracing(unittest.TestCase):
    def traced_consistency(self):
        tracer = tracing.Tracer()
        pair = ecd_core.EcdPair.free((1, 0, 0, 0), ecd_core.calibrate(0.1, s_max=1.0))
        with tracer:
            traced_pair = ecd_core.EcdPair.free((1, 0, 0, 0), ecd_core.calibrate(0.1, s_max=1.0))
            ecd_core.consistency_residual(traced_pair, [0.0], tol=1e-3)
        ecd_core.consistency_residual(pair, [0.0], tol=1e-3)   # not counted
        return tracer

    def test_wraps_at_the_callers_lookup_and_restores(self):
        originals = (ecd_core.phi_eval, ecd_core.free_propagator, scenarios.consistency_residual,
                     ecd_core.EcdPair.__dict__["free"], ecd_core.Trajectory.state_at)
        tracer = self.traced_consistency()
        self.assertEqual(originals, (
            ecd_core.phi_eval, ecd_core.free_propagator, scenarios.consistency_residual,
            ecd_core.EcdPair.__dict__["free"], ecd_core.Trajectory.state_at))
        c = tracer.counts
        self.assertEqual(c["ecd_core.consistency_residual"], 1)
        self.assertEqual(c["ecd_core.phi_eval"], 1)
        self.assertGreater(c["ecd_core.propagator"], 0)
        self.assertEqual(c["ecd_core.propagator"], c["propagators.free_propagator"])
        self.assertEqual(c["dynamics.Trajectory.state_at"], c["ecd_core.propagator"] + 1)
        self.assertEqual(len(tracer.spans), sum(c[name] for name in tracing.SPAN_NAMES))

    def test_every_declared_per_layer_metric_is_produced(self):
        tracer = self.traced_consistency()
        solver = run.Solver(None, {}, {}, None)
        metrics = run.layer_metrics(tracer, 1.0, 1.0, solver)
        metrics["trace.overhead_s"] = 0.0
        _, per_layer = run.load_metric_spec()
        self.assertEqual(sorted(set(m["name"] for m in per_layer) - set(metrics)), [])
        self.assertEqual(metrics["ecd_core.kernel_evals_per_phi"],
                         tracer.counts["ecd_core.propagator"])


if __name__ == "__main__":
    unittest.main()
