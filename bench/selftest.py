"""Tests of the benchmark's own parts, run from the repository root:

    python3 bench/selftest.py

They cover each oracle on a case small enough to check by hand, the span
self-time arithmetic of the tracer, and the failure accounting of a run.
Two more need the bvm sources under ``src/``: the counted failure of the
MC ``bvm sweep`` operation, and the tracer on a live threaded estimate.
"""

from __future__ import annotations

import math
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

HAVE_SOURCES = run.prepare()


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class OracleTests(unittest.TestCase):
    def test_normal_diff_mass_is_the_95_percent_interval(self):
        sd = 2**-0.5  # X - Y ~ N(0, 1)
        self.assertAlmostEqual(oracles.normal_diff_mass(0.3, sd, 0.3, sd, 1.959963984540054), 0.95, places=12)

    def test_soft_kernel_mean_has_a_closed_form_at_zero_tolerance(self):
        # E[exp(-lam |D|)] for D ~ N(0, 1) is 2 exp(lam^2 / 2) Phi(-lam).
        self.assertAlmostEqual(oracles.soft_exponential_mean(0.0, 1.0, 0.0, 1.0),
                               2.0 * math.exp(0.5) * _phi(-1.0), places=9)
        # A very fast decay leaves the hard interval mass.
        self.assertAlmostEqual(oracles.soft_exponential_mean(0.0, 1.0, 1.0, 1e7), _phi(1.0) - _phi(-1.0), places=6)

    def test_student_t_masses_on_the_cauchy(self):
        self.assertAlmostEqual(oracles.student_t_mass(0.0, 1, 1.0, -1.0, 1.0), 0.5, places=12)
        self.assertEqual(oracles.student_t_mass(0.0, 1, 1.0, 1.0, -1.0), 0.0)
        self.assertAlmostEqual(oracles.student_t_soft_mass(0.0, 0.0, 1, 1.0, 1.0, 1e7), 0.5, places=6)

    def test_dirichlet_distance_bounds(self):
        masses, counts = [0.5, 0.5], [3, 4]
        self.assertEqual(oracles.dirichlet_distance_mc(masses, counts, 2.0, 1000, 0), 1.0)
        self.assertEqual(oracles.dirichlet_distance_mc(masses, counts, -1.0, 1000, 0), 0.0)

    def test_area_bootstrap_on_two_points(self):
        # Resamples of [1, 2] against [0, 1]: areas 0.5, 1, 1.5 with
        # probabilities 1/4, 1/2, 1/4, so P(area <= 1) = 3/4.
        p = oracles.area_bootstrap_mc([0.0, 1.0], [1.0, 2.0], 1.0, 40_000, 1)
        self.assertLess(abs(p - 0.75), 4 * oracles.binomial_se(0.75, 40_000))
        with self.assertRaises(ValueError):
            oracles.area_bootstrap_mc([0.0], [1.0, 2.0], 1.0, 10, 1)

    def test_hellinger_hand_values(self):
        self.assertEqual(oracles.hellinger([1.0, 0.0], [0.0, 1.0]), 1.0)
        self.assertEqual(oracles.hellinger([0.25, 0.75], [0.25, 0.75]), 0.0)
        self.assertAlmostEqual(oracles.hellinger([0.5, 0.5], [1.0, 0.0]), math.sqrt(1.0 - math.sqrt(0.5)), places=15)

    def test_power_product_of_two_standard_normals(self):
        # A t with a huge dof is a standard normal: each power is 0.95.
        p = oracles.power_product_interval(0.0, 1.0, 0.0, 1e12, 1.0, 0.05, 0.05)
        self.assertAlmostEqual(p, 0.95 * 0.95, places=9)
        self.assertAlmostEqual(oracles.intervals_mass(lambda x: x, [(0.1, 0.2), (0.5, 0.9)]), 0.5, places=15)

    def test_linear_gaussian_evidence_of_one_point(self):
        # y = theta + noise, theta ~ N(0, 1), noise ~ N(0, 1): y ~ N(0, 2).
        got = oracles.linear_gaussian_log_evidence([[1.0]], [0.0], [1.0], 1.0, [0.0])
        self.assertAlmostEqual(got, -0.5 * math.log(4.0 * math.pi), places=12)

    def test_oscillator_reduces_to_its_terms(self):
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(oracles.oscillator([2.0, 0.0, 1.0, 3.0, 0.0, 1.0], x)[0], np.full(5, 2.0))
        np.testing.assert_allclose(oracles.oscillator([0.0, 1.0, 0.0, 3.0, 0.0, 1.0], x)[0], x)
        # Data equal to the fixed model path always agrees.
        path = oracles.oscillator([1.0, 1.0, 1.0, 10.0, 1.0, 10.0], x)[0]
        self.assertEqual(oracles.oscillator_mean_error_mc([1.0, 1.0, 1.0, 10.0, 1.0, 10.0], None, path,
                                                          1e-9, 1e-6, x, 100, 0), 1.0)

    def test_binomial_se(self):
        self.assertAlmostEqual(oracles.binomial_se(0.5, 100), 0.05, places=15)
        self.assertAlmostEqual(oracles.binomial_se(0.0, 100), math.sqrt(0.01 * 0.99 / 100), places=15)

    def test_grid_prior_and_paths(self):
        theta, w = oracles.grid_prior([2.0, 5.0], [1.0, None], points=3, span=1.0)
        np.testing.assert_allclose(theta, [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        e = math.exp(-0.5)
        np.testing.assert_allclose(w, np.array([e, 1.0, e]) / (1.0 + 2.0 * e))
        paths = oracles.polynomial_paths([[1.0, 2.0]], [0, 1], np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(paths, [[1.0, 3.0, 5.0]])

    def test_gamma_eps_cell(self):
        err = np.array([[0.0, 0.0, 0.3], [0.05, 0.05, 0.05]])
        w = np.array([0.25, 0.75])
        self.assertEqual(oracles.gamma_eps_cell(err, err.max(axis=1), w, 2 / 3, 0.1, 5.0), 1.0)
        self.assertEqual(oracles.gamma_eps_cell(err, err.max(axis=1), w, 2 / 3, 0.1, 2.0), 0.75)
        self.assertEqual(oracles.gamma_eps_cell(err, err.max(axis=1), w, 1.0, 0.1, 5.0), 0.75)


class SelfTimeTests(unittest.TestCase):
    def test_covered_is_the_union_clipped_to_the_span(self):
        self.assertEqual(tracer.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0), 5.0)
        self.assertEqual(tracer.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0)
        self.assertEqual(tracer.covered([], 0.0, 10.0), 0.0)

    def test_self_time_subtracts_overlapping_children_once(self):
        spans = [
            (1, 0, "engine.estimate_bvm_mc", 0.0, 10.0),
            (2, 1, "agreement.kernel_many", 1.0, 3.0),  # two worker threads overlap in 2..3
            (3, 1, "agreement.kernel_many", 2.0, 5.0),
            (4, 2, "comparison.on_batch", 1.5, 2.5),
        ]
        t = tracer.span_times(spans)
        self.assertEqual(t["engine.estimate_bvm_mc"], (10.0, 6.0, 1))
        self.assertEqual(t["agreement.kernel_many"], (5.0, 4.0, 2))
        self.assertEqual(t["comparison.on_batch"], (1.0, 1.0, 1))


def _check(op, ok, fault=None):
    return SimpleNamespace(op=op, ok=ok, detail="", fault=fault)


class _Op:
    def __init__(self, name):
        self.name, self.threads = name, 1
        self.run = lambda: 1.0
        self.digest = lambda raw: (raw.hex(), raw)


class AccountingTests(unittest.TestCase):
    def _workload(self, checks):
        return SimpleNamespace(ops=[_Op("good"), _Op("bad")], check=lambda values: checks)

    def test_a_fault_fails_its_operation_in_every_round_and_stays_correct(self):
        tally = run.Tally()
        wl = self._workload([_check("good", True), _check("bad", False, fault="named fault")])
        _, values, _ = run.run_round(wl, tally)
        run.check_outputs(wl, values, tally)
        run.run_round(wl, tally)
        run.run_round(wl, tally)
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (6, 3, True))

    def test_round_time_at_reference_speed(self):
        # Rounds timed while the calibration kernel ran at half speed count half;
        # the median round and the median calibration are taken apart.
        rounds = [({}, 2.0, 2 * run.CALIBRATION_S), ({}, 4.0, 2 * run.CALIBRATION_S), ({}, 3.0, run.CALIBRATION_S)]
        self.assertAlmostEqual(run.reference_wall_s(rounds), 1.5)

    def test_any_other_failed_check_makes_the_run_incorrect(self):
        tally = run.Tally()
        wl = self._workload([_check("bad", False)])
        _, values, _ = run.run_round(wl, tally)
        run.check_outputs(wl, values, tally)
        self.assertFalse(tally.correct)


@unittest.skipUnless(HAVE_SOURCES, "needs the bvm sources under src/")
class ProgramTests(unittest.TestCase):
    def test_mc_sweep_is_counted_as_failed_on_the_named_fault(self):
        import workloads

        work_root = run.ROOT / ".bench_work"
        work_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            wl = workloads.build("sweep", 0, Path(tmp))
            values = {op.name: op.digest(op.run())[1] for op in wl.ops}
            checks = [c for c in wl.check(values) if c.op == "mc-sweep" and not c.ok]
        self.assertEqual(len(checks), 1)
        self.assertEqual(checks[0].fault, workloads.SWEEP_SAMPLES_FAULT)
        self.assertIn("k=10000 grid: True", checks[0].detail)

    def test_tracer_parents_worker_spans_and_restores_every_name(self):
        import os

        from bvm import agreement, distributions, engine, metrics

        original = engine.estimate_bvm_mc
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIs(metrics.estimate_bvm_mc, engine.estimate_bvm_mc)
            self.assertIsNot(engine.estimate_bvm_mc, original)
            os.environ["BVM_THREADS"] = "2"
            scenario = engine.Scenario(distributions.Normal(0.0, 1.0), distributions.Normal(0.0, 1.0),
                                       agreement.Threshold("abs_diff", 1.0))
            engine.estimate_bvm_mc(scenario, 3 * 4096, 0)
        finally:
            os.environ["BVM_THREADS"] = "1"
            tr.uninstall()
        self.assertIs(engine.estimate_bvm_mc, original)
        self.assertIs(metrics.estimate_bvm_mc, original)
        (root,) = [s for s in tr.spans if s[2] == "engine.estimate_bvm_mc"]
        kernels = [s for s in tr.spans if s[2] == "agreement.kernel_many"]
        self.assertEqual(len(kernels), 3)
        self.assertTrue(all(s[1] == root[0] for s in kernels))
        self.assertEqual(tr.counts()["distributions.values_drawn"], 2 * 3 * 4096)


if __name__ == "__main__":
    unittest.main()
