"""Acceptance gate: every recorded criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts, so the suite both reports
and enforces. Criteria 1-5 exercise the bundled studies end to end;
6-9 pin closed-form identities; 10 is the data-free property bundle.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from bvm import (
    And,
    Categorical,
    DiracDelta,
    InputGrid,
    Interval,
    Normal,
    Or,
    Scenario,
    ShiftedExponential,
    SoftExponential,
    StudentT,
    Threshold,
    area_metric,
    divergence,
    ecdf,
    estimate_bvm_mc,
    polynomial_model,
)
from bvm.config import build_scenario
from bvm.metrics import (
    DataSummary,
    GaussianLikelihoodSpec,
    bayesian_evidence,
    classical_hypothesis,
    frequentist,
    reliability,
)
from bvm.rng import DATA_STREAM
from bvm.studies import _oscillator_config, run_study


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def poly_sweep_report():
    t0 = time.perf_counter()
    rep = run_study("ex-5.3", seed=0)
    rep.values["elapsed_s"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def oscillator_seeds():
    results = {}
    for seed in range(10):
        for variant in ("deterministic", "uncertain"):
            for rule in ("mean_error", "compound"):
                built = build_scenario(_oscillator_config(variant, rule, seed))
                est = estimate_bvm_mc(built.scenario, 3000, seed)
                results[(seed, variant, rule)] = est.p_hat
    return results


class TestCriterion1DeterministicSweep:
    def test_cells_binary_and_counts(self, poly_sweep_report):
        rep = poly_sweep_report
        checks = dict((label, (ok, detail)) for label, ok, detail in rep.checks)
        binary_ok = checks["deterministic sweep cells are exactly 0 or 1"][0]
        n1 = rep.values["deterministic_agreements_model1"]
        n2 = rep.values["deterministic_agreements_model2"]
        ratio = rep.values["deterministic_averaged_ratio"]
        elapsed = rep.values["elapsed_s"]
        ok = binary_ok and n2 > n1 and 0.35 <= ratio <= 0.60 and elapsed < 30.0
        report(
            "1 (deterministic cosine sweep)",
            ok,
            f"binary={binary_ok}, counts {n1:.0f}<{n2:.0f}, ratio={ratio:.4f} "
            f"(band [0.35,0.60], target 0.4687), elapsed={elapsed:.1f}s (<30s incl. uncertain run)",
        )


class TestCriterion2UncertainSweep:
    def test_ratio_and_cellwise_bound(self, poly_sweep_report):
        rep = poly_sweep_report
        ratio = rep.values["uncertain_averaged_ratio"]
        max_cell = rep.values["uncertain_max_cell_ratio"]
        cell_ok = dict((label, ok) for label, ok, _ in rep.checks)[
            "no cellwise ratio exceeds 1 outside the eps = 0 column"
        ]
        elapsed = rep.values["elapsed_s"]
        ok = 0.63 <= ratio <= 0.87 and cell_ok and elapsed < 180.0
        report(
            "2 (uncertain cosine sweep)",
            ok,
            f"ratio={ratio:.4f} (band [0.63,0.87], target 0.7471), "
            f"max cell ratio={max_cell:.4f}, elapsed={elapsed:.1f}s (<180s)",
        )


class TestCriterion3DeterministicOscillator:
    def test_mean_error_and_compound(self, oscillator_seeds):
        mean_ok = sum(
            oscillator_seeds[(s, "deterministic", "mean_error")] >= 0.95 for s in range(10)
        )
        compound_zero = all(
            oscillator_seeds[(s, "deterministic", "compound")] == 0.0 for s in range(10)
        )
        ok = mean_ok >= 9 and compound_zero
        report(
            "3 (deterministic oscillator)",
            ok,
            f"mean-error >= 0.95 on {mean_ok}/10 seeds (need >= 9, target 0.99); "
            f"compound exactly 0 on all seeds: {compound_zero}",
        )


class TestCriterion4UncertainOscillator:
    def test_compound_band_and_threshold_behaviour(self, oscillator_seeds):
        in_band = sum(
            0.85 <= oscillator_seeds[(s, "uncertain", "compound")] <= 0.98 for s in range(10)
        )
        thresh_ok = sum(
            oscillator_seeds[(s, "uncertain", "mean_error")] >= 0.90 for s in range(10)
        )
        ok = in_band >= 8 and thresh_ok >= 9
        report(
            "4 (uncertain oscillator)",
            ok,
            f"compound in [0.85,0.98] on {in_band}/10 seeds (need >= 8, target 0.93); "
            f"mean-error >= 0.90 on {thresh_ok}/10 seeds (target 0.96)",
        )


class TestCriterion5PowerRanking:
    def test_ranking_and_brute_force(self):
        rep = run_study("ex-5.1", seed=0)
        ok = rep.passed
        products = [rep.values[f"power_product_std_{s}"] for s in (0.5, 2.0, 8.0)]
        report(
            "5 (power-product ranking)",
            ok,
            "products = " + ", ".join(f"{p:.4f}" for p in products) + "; middle strictly highest; "
            "joint MC within 3 standard errors at K=1e5",
        )


class TestCriterion6Classical:
    def test_complement_of_alpha(self):
        worst = max(
            abs(classical_hypothesis(StudentT(0, 10, 1.75), a).estimate.p_hat - (1 - a))
            for a in (0.01, 0.05, 0.5)
        )
        report("6 (classical test level)", worst <= 1e-9, f"max |p - (1-alpha)| = {worst:.2e} (<= 1e-9)")


class TestCriterion7ExactAgreement:
    def test_certain_point_masses(self):
        rule = Threshold("abs_diff", 0.0)
        equal = estimate_bvm_mc(Scenario(DiracDelta(2.0), DiracDelta(2.0), rule), 1000, 0).p_hat
        unequal = estimate_bvm_mc(Scenario(DiracDelta(2.0), DiracDelta(3.0), rule), 1000, 0).p_hat
        ok = equal == 1.0 and unequal == 0.0
        report("7 (certain exact agreement)", ok, f"equal -> {equal}, unequal -> {unequal}")


class TestCriterion8FrequentistReliability:
    def test_fifty_random_fixtures(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            model_mean = rng.normal(0, 2)
            ybar = rng.normal(0, 2)
            s = abs(rng.normal()) + 0.3
            n = int(rng.integers(3, 40))
            eps = abs(rng.normal()) + 0.05
            fr = frequentist(model_mean, DataSummary(ybar, s, n), Threshold("abs_value", eps))
            rel = reliability(DiracDelta(model_mean), StudentT(ybar, n - 1, s / math.sqrt(n)), eps)
            worst = max(worst, abs(fr.p_hat - rel.p_hat))
        report("8 (frequentist = reliability)", worst <= 1e-6, f"max gap over 50 fixtures = {worst:.2e} (<= 1e-6)")


class TestCriterion9ConjugateEvidence:
    def test_twenty_random_triples(self):
        rng = np.random.default_rng(7)
        grid = InputGrid(np.array([0.0]))
        model = polynomial_model([0])
        worst_z = 0.0
        for i in range(20):
            y = rng.normal(0, 1.5)
            sigma = abs(rng.normal()) + 0.2
            tau = abs(rng.normal()) + 0.2
            lik = GaussianLikelihoodSpec(sigma, np.array([y]), grid)
            res = bayesian_evidence(model, Normal(0, tau), lik, k=100_000, seed=i)
            target = math.log(stats.norm.pdf(y, 0, math.hypot(sigma, tau)))
            worst_z = max(worst_z, abs(res.log_evidence - target) / res.std_error_log)
        report("9 (conjugate evidence oracle)", worst_z <= 3.0, f"max |z| over 20 triples = {worst_z:.2f} (<= 3)")


class TestCriterion10Properties:
    """Data-free property suites."""

    def test_probability_bounds(self):
        rng = np.random.default_rng(0)
        ok = True
        for i in range(20):
            sc = Scenario(
                Normal(rng.normal(), abs(rng.normal()) + 0.1),
                Normal(rng.normal(), abs(rng.normal()) + 0.1),
                SoftExponential("abs_diff", abs(rng.normal()), abs(rng.normal()) + 0.5),
            )
            p = estimate_bvm_mc(sc, 2000, i).p_hat
            ok = ok and 0.0 <= p <= 1.0
        report("10a (probability bounds)", ok, "20 random soft scenarios stayed in [0, 1]")

    def test_eps_monotone(self):
        model, data = Normal(0, 1), Normal(0.4, 1.3)
        ps = [
            estimate_bvm_mc(Scenario(model, data, Threshold("abs_diff", e)), 20_000, 11).p_hat
            for e in np.linspace(0, 3, 16)
        ]
        ok = all(b >= a for a, b in zip(ps, ps[1:]))
        report("10b (eps monotonicity)", ok, "threshold acceptance nondecreasing over 16 tolerances")

    def test_and_or_inequalities(self):
        a = Threshold("abs_diff", 0.5)
        b = Interval("identity", -0.4, 1.0)
        model, data = Normal(0, 1), Normal(0.1, 0.9)
        k, seed = 30_000, 5
        p_a = estimate_bvm_mc(Scenario(model, data, a), k, seed).p_hat
        p_b = estimate_bvm_mc(Scenario(model, data, b), k, seed).p_hat
        p_and = estimate_bvm_mc(Scenario(model, data, And([a, b])), k, seed).p_hat
        p_or = estimate_bvm_mc(Scenario(model, data, Or([a, b])), k, seed).p_hat
        ok = p_and <= min(p_a, p_b) and p_or >= max(p_a, p_b)
        report(
            "10c (and/or inequalities)",
            ok,
            f"P(and)={p_and:.4f} <= min({p_a:.4f},{p_b:.4f}) and P(or)={p_or:.4f} >= max",
        )

    def test_soft_tolerance_closed_form_vs_nested_mc(self):
        eps_prime, lam = 0.25, 3.0
        model, data = Normal(0, 1), Normal(0.2, 0.6)
        k, seed = 150_000, 13
        soft = estimate_bvm_mc(
            Scenario(model, data, SoftExponential("abs_diff", eps_prime, lam)), k, seed
        )
        f = np.abs(model.sample(seed, k, stream=0) - data.sample(seed, k, stream=DATA_STREAM))
        eps_draws = ShiftedExponential(lam, eps_prime).sample(seed, k, stream=2)
        p_nested = float(np.mean(f <= eps_draws))
        se_nested = math.sqrt(p_nested * (1 - p_nested) / k)
        gap = abs(soft.p_hat - p_nested)
        bound = 3 * math.hypot(soft.std_error, se_nested)
        report(
            "10d (soft-tolerance marginalisation)",
            gap <= bound,
            f"closed {soft.p_hat:.5f} vs nested {p_nested:.5f}, gap {gap:.5f} <= {bound:.5f}",
        )

    def test_mc_matches_enumeration_on_100_seeds(self):
        model = Categorical([0.0, 1.0, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1])
        data = Categorical([0.0, 2.0], [0.55, 0.45])
        rule = Threshold("abs_diff", 1.0)
        exact = sum(
            mp * dp * rule.kernel(mv, dv)
            for mv, mp in zip(model.values, model.probs)
            for dv, dp in zip(data.values, data.probs)
        )
        hits = 0
        for seed in range(100):
            est = estimate_bvm_mc(Scenario(model, data, rule), 100_000, seed)
            if abs(est.p_hat - exact) <= 3 * est.std_error:
                hits += 1
        report(
            "10e (MC vs enumeration)",
            hits >= 99,
            f"{hits}/100 seeds within 3 standard errors of the exact value {exact:.4f}",
        )

    def test_thread_count_invariance(self, monkeypatch):
        sc = Scenario(Normal(0, 1), Normal(0.3, 1.2), Threshold("abs_diff", 0.7))
        monkeypatch.setenv("BVM_THREADS", "1")
        p1 = estimate_bvm_mc(sc, 60_000, 3).p_hat
        monkeypatch.setenv("BVM_THREADS", "8")
        p8 = estimate_bvm_mc(sc, 60_000, 3).p_hat
        report("10f (thread determinism)", p1 == p8, f"1 thread {p1!r} == 8 threads {p8!r}")

    def test_area_transport_identity(self):
        rng = np.random.default_rng(3)
        ok = True
        for _ in range(100):
            a = rng.normal(size=10)
            b = rng.normal(0.5, 1.5, size=10)
            direct = area_metric(ecdf(a), ecdf(b))
            oracle = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
            ok = ok and abs(direct - oracle) <= 1e-12 * max(1.0, oracle)
        report("10g (ECDF area identity)", ok, "area equals sorted mean absolute difference on 100 fixtures")

    def test_divergence_axioms(self):
        rng = np.random.default_rng(4)
        ok = True
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            for kind in ("kl", "sym_kl", "js", "hellinger"):
                ok = ok and divergence(kind, p, q) >= 0.0
                ok = ok and divergence(kind, p, p) == 0.0
        report("10h (divergence axioms)", ok, "nonnegative everywhere, zero exactly on equal masses")
