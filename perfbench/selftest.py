"""Fast self-test of the benchmark itself; it does not run subdecay.

    python3 perfbench/selftest.py

Every correctness check must accept a result built from its independent
reference and reject the same result deliberately perturbed, and the tracer
must report a wrapped name that does not exist as absent instead of failing.
"""

from __future__ import annotations

import json
import math
import sys
import types
import unittest
from pathlib import Path

import numpy as np
from scipy.special import erfcx

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import WRAPPED, Tracer, install, layer_metrics  # noqa: E402


class ChecksRejectPerturbedResults(unittest.TestCase):

    def test_exponent(self):
        self.assertEqual(checks.exponent_within("e", -0.93, -0.9, 0.05), [])
        self.assertTrue(checks.exponent_within("e", -0.84, -0.9, 0.05))

    def test_bounded_norms(self):
        t = np.linspace(0.0, 100.0, 50)[:, None]
        decaying = np.hstack([1.0 / (1.0 + t), 2.0 / (1.0 + t) ** 0.5])
        self.assertTrue(checks.norms_bounded(decaying))
        self.assertFalse(checks.norms_bounded(decaying * np.exp(t / 10.0)))
        self.assertFalse(checks.norms_bounded(np.where(t > 50.0, np.nan, decaying)))

    def test_manufactured(self):
        x = np.linspace(0.0, math.pi, 65)
        times = np.linspace(0.0, 1.0, 41)
        exact = np.stack([checks.manufactured_u(x[None, :], times[:, None]),
                          checks.manufactured_v(x[None, :], times[:, None])], axis=1)
        args = (x, times, 2.0, 1.0 / 40, math.pi / 64, 0.9)
        self.assertEqual(checks.manufactured_within(2.0 * exact, *args), [])
        perturbed = 2.0 * exact
        perturbed[-1, 1, 32] += 0.05
        self.assertTrue(checks.manufactured_within(perturbed, *args))

    def test_picard_against_branch_cut(self):
        times = np.linspace(0.0, 20.0, 5121)
        U, V = np.exp(-times / 7.0), times * np.exp(-times / 5.0)
        at = np.array([1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
        ref = (np.exp(-at / 7.0), at * np.exp(-at / 5.0))
        self.assertEqual(checks.picard_agrees("p", times, 3.0 * U, 3.0 * V, True, at, ref, 3.0), [])
        self.assertTrue(checks.picard_agrees("p", times, 3.0 * U, 3.0 * V * (1 + 2e-4), True,
                                             at, ref, 3.0))
        self.assertTrue(checks.picard_agrees("p", times, 3.0 * U, 3.0 * V, False, at, ref, 3.0))
        self.assertTrue(checks.picard_agrees("p", times, U, V, True, at + 1e-3, ref, 1.0))

    def test_decoupled_half_order(self):
        t = np.linspace(0.0, 10.0, 4097)
        U = 0.7 * erfcx(np.sqrt(t))
        self.assertEqual(checks.decoupled_half_order(t, U, 0.0 * t, 0.7), [])
        self.assertTrue(checks.decoupled_half_order(t, U + 1e-5, 0.0 * t, 0.7))
        self.assertTrue(checks.decoupled_half_order(t, U, U, 0.7))

    def test_slope(self):
        t = np.logspace(2.0, 4.0, 60)
        self.assertEqual(checks.slope_within("s", t, 3.0 * t ** -0.9, -0.9, 0.05), [])
        self.assertTrue(checks.slope_within("s", t, 3.0 * t ** -0.8, -0.9, 0.05))

    def test_closed_form_mittag_leffler(self):
        # E_{1/2,1/2}(-x) series sum_k (-x)^k / Gamma(k/2 + 1/2) at small x,
        # and continuity across the switch to the large-x expansion, where
        # the cancelling closed form keeps about ten digits (the mode check
        # needs seven)
        x = 0.3
        series = sum((-x) ** k / math.gamma(0.5 * k + 0.5) for k in range(60))
        self.assertAlmostEqual(float(checks.ml_half(x)), series, delta=1e-14)
        below, above = checks.ml_half([50.0 - 1e-9, 50.0])
        self.assertAlmostEqual(below / above, 1.0, delta=1e-9)

    def test_projection(self):
        exact = checks.hat_coefficients(32, 1.5)
        self.assertEqual(np.count_nonzero(exact), 16)
        self.assertEqual(checks.projection_within("h", exact * (1 + 3e-6), exact), [])
        bad = exact.copy()
        bad[30] *= 1.0 + 1e-4
        self.assertTrue(checks.projection_within("h", bad, exact))
        bad = exact.copy()
        bad[1] = 1e-12
        self.assertTrue(checks.projection_within("h", bad, exact))

    def test_modes(self):
        coeffs = np.array([1.0, 0.0, -0.2, 0.0])
        v = np.array([c * checks.mode_reference(float(n * n), 10.0)
                      for n, c in enumerate(coeffs, start=1)])
        self.assertEqual(checks.modes_within("m", v, coeffs, 10.0), [])
        bad = v.copy()
        bad[2] *= 1.0 + 1e-6
        self.assertTrue(checks.modes_within("m", bad, coeffs, 10.0))
        bad = v.copy()
        bad[1] = 1e-20
        self.assertTrue(checks.modes_within("m", bad, coeffs, 10.0))

    def test_asymptotic_ratios(self):
        self.assertEqual(checks.ratios_approach_one("r", [1.096, 1.0146, 1.0015]), [])
        self.assertTrue(checks.ratios_approach_one("r", [1.096, 1.1, 1.0015]))
        self.assertTrue(checks.ratios_approach_one("r", [1.3, 1.2, 1.05]))

    def test_sin_coefficient(self):
        t = 1000.0
        lead = 0.8 * math.sqrt(math.pi / 2.0) * t ** -1.5 / (2.0 * math.sqrt(math.pi))
        self.assertEqual(checks.sin_coefficient_within(lead, t, 0.8), [])
        self.assertTrue(checks.sin_coefficient_within(lead * 1.03, t, 0.8))


class TracerReportsAbsentNames(unittest.TestCase):

    def test_wraps_and_counts(self):
        def solve(a, b, z=None):
            return np.size(z)

        module = types.SimpleNamespace(__name__="fake", ml_neg=solve)
        tracer = Tracer()
        tracer.wrap(module, "ml_neg", "ml.direct", points=lambda a, k: np.size(a[2]))
        self.assertEqual(module.ml_neg(0.5, 0.5, np.zeros(7)), 7)
        self.assertEqual(tracer.span("ml.direct").calls, 1)
        self.assertEqual(tracer.span("ml.direct").points, 7)
        tracer.enabled = False
        module.ml_neg(0.5, 0.5, np.zeros(3))
        self.assertEqual(tracer.span("ml.direct").calls, 1)

    def test_missing_name_is_absent(self):
        tracer = Tracer()
        tracer.wrap(types.SimpleNamespace(__name__="fake"), "gone", "x")
        self.assertEqual(tracer.absent, ["fake.gone"])

    def test_install_on_partial_program(self):
        frac_ode = types.SimpleNamespace(__name__="frac_ode", quad=lambda f, a, b: 0.0)
        tracer = install(Tracer(), {"frac_ode": frac_ode})
        self.assertEqual(len(tracer.absent), len(WRAPPED) - 1)
        self.assertIn("frac_ode.ml_neg", tracer.absent)
        self.assertIn("cli.run", tracer.absent)
        frac_ode.quad(None, 0.0, 1.0)
        metrics = layer_metrics(tracer)
        self.assertEqual(metrics["frac_ode.quad.calls"], 1)
        self.assertEqual(metrics["mittag_leffler.us_per_point"], 0.0)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
        self.assertEqual(set(layer_metrics(Tracer())), declared)


if __name__ == "__main__":
    unittest.main()
